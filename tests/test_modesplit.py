import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nc2ent import modesplit
from nc2ent.linalg import StateVector, entanglement_entropy, schmidt_decompose
from nc2ent.modesplit import (
    ProtocolConfig,
    ProtocolResult,
    _run_seed,
    _sector_keys,
    _transitions,
    TwoModeState,
    apply_tunneling,
    binomial_sector_amplitude,
    inject,
    project_sector,
    run_protocol,
    sector_probabilities,
    success_probability_by_round,
)
from nc2ent.symmetric import (
    SuUnitary,
    SymmetricState,
    apply_splitting,
    coherent_state,
    dicke_dim,
    haar_random_su,
    occupation_basis,
    splitting_isometry,
)
from nc2ent.verify import measure_sector_probabilities

from test_symmetric import apply_tensor_power, dicke_embedding

BALANCED = 1.0 / math.sqrt(2.0)


def random_symmetric(k: int, n: int, rng) -> SymmetricState:
    dim = len(occupation_basis(k, n))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return SymmetricState.normalized(k, n, amps)


# --------------------------------------------------------------------- inject

def test_inject_puts_everything_in_full_sector():
    st = coherent_state(SuUnitary(np.eye(2)), 3)
    tw = inject(st)
    probs = sector_probabilities(tw)
    assert abs(probs[(3, 0)] - 1.0) < 1e-14
    assert all(p < 1e-14 for key, p in probs.items() if key != (3, 0))
    assert np.allclose(tw.sectors[(3, 0)].reshape(-1), st.amplitudes)


def test_inject_is_linear():
    rng = np.random.default_rng(70)
    a = random_symmetric(2, 2, rng)
    b = random_symmetric(2, 2, rng)
    combo = SymmetricState.normalized(2, 2, 0.3 * a.amplitudes + 0.7j * b.amplitudes)
    tw = inject(combo)
    direct = 0.3 * a.amplitudes + 0.7j * b.amplitudes
    direct /= np.linalg.norm(direct)
    assert np.allclose(tw.sectors[(2, 0)].reshape(-1), direct)


# ------------------------------------------------------------- apply_tunneling

def test_tunneling_with_r_one_is_identity():
    rng = np.random.default_rng(71)
    tw = inject(random_symmetric(2, 3, rng))
    out = apply_tunneling(tw, 1.0, 0.0)
    assert np.max(np.abs(out.sectors[(3, 0)] - tw.sectors[(3, 0)])) < 1e-12


def test_tunneling_rejects_bad_amplitudes():
    tw = inject(coherent_state(SuUnitary(np.eye(2)), 2))
    with pytest.raises(ValueError):
        apply_tunneling(tw, 0.9, 0.9)


def test_coherent_balanced_sector_weights():
    # oracle: |C_{N_A,N_B}|^2 = binom(2, N_A) / 4 = (1/4, 1/2, 1/4)
    u = haar_random_su(2, 72)
    tw = apply_tunneling(inject(coherent_state(u, 2)), BALANCED, BALANCED)
    probs = sector_probabilities(tw)
    assert abs(probs[(2, 0)] - 0.25) < 1e-12
    assert abs(probs[(1, 1)] - 0.5) < 1e-12
    assert abs(probs[(0, 2)] - 0.25) < 1e-12


def test_coherent_sector_amplitudes_all_n():
    assert measure_sector_probabilities(2, range(1, 7), 0.6, 0.8, np.random.default_rng(73)) < 1e-10


@pytest.mark.parametrize("k", [2, 3, 4])
def test_binomial_sector_law_holds_for_non_coherent_inputs(k):
    # a random symmetric state is not coherent (its split is entangled); the law still holds for it
    rng = np.random.default_rng(80 + k)
    r, t = 0.6, 0.8 * cmath.exp(0.3j)
    for n in range(2, 5):
        psi = random_symmetric(k, n, rng)
        split = StateVector(apply_splitting(psi, 1, n - 1))
        assert entanglement_entropy(schmidt_decompose(split, dicke_dim(k, 1), dicke_dim(k, n - 1))) > 1e-3
        probs = sector_probabilities(apply_tunneling(inject(psi), r, t))
        for n_a in range(n + 1):
            assert abs(probs[(n_a, n - n_a)] - abs(binomial_sector_amplitude(n, n_a, r, t)) ** 2) < 1e-14


EDGE_OFFSETS = st.floats(min_value=-11.0, max_value=-2.0).map(lambda e: 10.0 ** e)
PHASES = st.floats(min_value=0.0, max_value=2 * math.pi)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(0, 6), offset=EDGE_OFFSETS, near_one=st.booleans(),
       phase_r=PHASES, phase_t=PHASES, seed=st.integers(0, 2**32 - 1))
def test_sector_probabilities_at_the_reflectivity_edges(k, n, offset, near_one, phase_r, phase_t, seed):
    # |r| within offset of 0 or of 1; |t| from the exact complement, so
    # |r|^2 + |t|^2 = 1 holds to roundoff at both edges
    if near_one:
        r_mag, t_mag = 1.0 - offset, math.sqrt(offset * (2.0 - offset))
    else:
        r_mag, t_mag = offset, math.sqrt(1.0 - offset**2)
    r, t = r_mag * cmath.exp(1j * phase_r), t_mag * cmath.exp(1j * phase_t)
    assert measure_sector_probabilities(k, (n,), r, t, np.random.default_rng(seed)) <= 1e-10


def test_tunneling_preserves_norm():
    rng = np.random.default_rng(74)
    for _ in range(10):
        tw = inject(random_symmetric(2, 4, rng))
        out = apply_tunneling(tw, 0.3 + 0.4j, math.sqrt(1 - 0.25))
        total = sum(sector_probabilities(out).values())
        assert abs(total - 1.0) < 1e-12


def test_tunneling_matches_first_quantized_oracle():
    # oracle: embed into the (C^{2K})^{(x)N} tensor space, rotate every
    # particle with the single-particle matrix, and compare sector blocks
    rng = np.random.default_rng(75)
    k = 2
    r, t = 0.48 + 0.36j, complex(0.8)
    single = np.block([[r * np.eye(k), np.conj(t) * np.eye(k)],
                       [t * np.eye(k), -np.conj(r) * np.eye(k)]])
    for n in range(1, 7):
        state = random_symmetric(k, n, rng)
        sim = apply_tunneling(inject(state), r, t)
        e = dicke_embedding(2 * k, n)
        tensor_in = e @ inject(state).to_flat()
        tensor_out = apply_tensor_power(single, tensor_in, n)
        flat_out = e.conj().T @ tensor_out
        assert np.max(np.abs(sim.to_flat() - flat_out)) < 1e-10


def test_tunneling_matches_first_quantized_oracle_three_levels():
    rng = np.random.default_rng(84)
    k = 3
    r, t = 0.48 + 0.36j, 0.64 - 0.48j
    single = np.block([[r * np.eye(k), np.conj(t) * np.eye(k)],
                       [t * np.eye(k), -np.conj(r) * np.eye(k)]])
    for n in range(1, 5):
        state = random_symmetric(k, n, rng)
        sim = apply_tunneling(inject(state), r, t)
        e = dicke_embedding(2 * k, n)
        flat_out = e.conj().T @ apply_tensor_power(single, e @ inject(state).to_flat(), n)
        assert np.max(np.abs(sim.to_flat() - flat_out)) < 1e-10


def test_first_pass_is_binomial_amplitude_times_splitting():
    # one pass over inject(psi) puts sqrt(C(N, N_A)) r^N_A t^N_B S psi in sector (N_A, N_B)
    rng = np.random.default_rng(85)
    r, t = 0.6 + 0.3j, complex(0.0, math.sqrt(1 - 0.45))
    for k in (2, 3):
        for n in range(2, 6):
            psi = random_symmetric(k, n, rng)
            out = apply_tunneling(inject(psi), r, t)
            for n_a in range(1, n):
                dense = splitting_isometry(k, n, n_a, n - n_a) @ psi.amplitudes
                want = binomial_sector_amplitude(n, n_a, r, t) * dense
                assert np.max(np.abs(out.sectors[(n_a, n - n_a)].reshape(-1) - want)) < 1e-12


def test_flat_round_trip():
    rng = np.random.default_rng(86)
    tw = apply_tunneling(inject(random_symmetric(3, 3, rng)), 0.6, 0.8)
    back = TwoModeState.from_flat(3, 3, tw.to_flat())
    for key, block in tw.sectors.items():
        assert np.array_equal(back.sectors[key], block)


def test_nan_tunneling_parameters_rejected():
    nan = float("nan")
    tw = inject(coherent_state(SuUnitary(np.eye(2)), 2))
    for r, t in ((nan, 0.8), (0.6, nan), (nan, nan), (0.6, complex(0.8, nan)), (float("inf"), 0.0)):
        with pytest.raises(ValueError, match="finite"):
            apply_tunneling(tw, r, t)
        with pytest.raises(ValueError, match="finite"):
            ProtocolConfig(r=r, t=t, target=(1, 1))
    with pytest.raises(ValueError, match="finite"):
        ProtocolConfig.from_magnitudes(nan, target=(1, 1))
    with pytest.raises(ValueError, match="finite"):
        ProtocolConfig.from_magnitudes(0.6, phase=nan, target=(1, 1))


# ---------------------------------------------------------- sector bookkeeping

def test_sector_probabilities_sum_to_one():
    rng = np.random.default_rng(76)
    tw = apply_tunneling(inject(random_symmetric(3, 3, rng)), 0.7, math.sqrt(0.51))
    assert abs(sum(sector_probabilities(tw).values()) - 1.0) < 1e-12


def test_project_sector_coherent_gives_product():
    rng = np.random.default_rng(77)
    u = haar_random_su(2, rng)
    tw = apply_tunneling(inject(coherent_state(u, 4)), BALANCED, BALANCED)
    for n_a in range(1, 4):
        block, prob = project_sector(tw, n_a, 4 - n_a)
        prod = np.outer(coherent_state(u, n_a).amplitudes,
                        coherent_state(u, 4 - n_a).amplitudes)
        fid = abs(np.vdot(prod.reshape(-1), block.reshape(-1))) ** 2
        assert fid >= 1.0 - 1e-10


def test_project_sector_matches_splitting_isometry():
    rng = np.random.default_rng(78)
    psi = random_symmetric(2, 4, rng)
    tw = apply_tunneling(inject(psi), BALANCED, BALANCED)
    block, _ = project_sector(tw, 2, 2)
    target = splitting_isometry(2, 4, 2, 2) @ psi.amplitudes
    fid = abs(np.vdot(target, block.reshape(-1))) ** 2
    assert fid >= 1.0 - 1e-10


def test_project_zero_amplitude_sector_errors():
    tw = inject(coherent_state(SuUnitary(np.eye(2)), 2))
    with pytest.raises(ValueError):
        project_sector(tw, 1, 1)  # no tunneling yet, sector empty


def test_two_mode_state_validation():
    with pytest.raises(ValueError):
        TwoModeState(k=2, n=2, sectors={})
    tw = inject(coherent_state(SuUnitary(np.eye(2)), 2))
    bad = dict(tw.sectors)
    bad[(2, 0)] = bad[(2, 0)] * 2.0
    with pytest.raises(ValueError):
        TwoModeState(k=2, n=2, sectors=bad)


def test_two_mode_state_rejects_non_finite_amplitudes():
    sectors = {(2, 0): [[math.nan], [0.0], [0.0]], (1, 1): np.zeros((2, 2)), (0, 2): np.zeros((1, 3))}
    with pytest.raises(ValueError, match="non-finite") as err:
        TwoModeState(k=2, n=2, sectors=sectors)
    assert "\n" not in str(err.value)


def test_two_mode_state_rejects_unknown_sectors():
    tw = inject(coherent_state(SuUnitary(np.eye(2)), 2))
    with pytest.raises(ValueError, match="sector \\(9, 9\\)"):
        TwoModeState(k=2, n=2, sectors={**tw.sectors, (9, 9): np.zeros(1)})
    with pytest.raises(ValueError, match="sector \\(3, 0\\)"):
        TwoModeState.single_sector(2, 2, (3, 0), tw.sectors[(2, 0)])


def test_sectors_are_read_only_views_of_amplitudes():
    rng = np.random.default_rng(87)
    injected = inject(random_symmetric(3, 3, rng))
    tunneled = apply_tunneling(injected, 0.6, 0.8)
    built = TwoModeState(3, 3, {key: np.array(block) for key, block in tunneled.sectors.items()})
    block, _ = project_sector(tunneled, 2, 1)
    carried = TwoModeState.single_sector(3, 3, (2, 1), block)
    for state in (injected, tunneled, built, carried, TwoModeState.from_flat(3, 3, tunneled.to_flat())):
        assert not state.amplitudes.flags.writeable
        for block in state.sectors.values():
            assert not block.flags.writeable
            assert np.shares_memory(block, state.amplitudes)
        joined = np.concatenate([block.reshape(-1) for block in state.sectors.values()])
        assert np.array_equal(joined, state.amplitudes)


# --------------------------------------------------------------- run_protocol

def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(r=1.0, t=0.0, target=(1, 1))
    with pytest.raises(ValueError):
        ProtocolConfig(r=0.0, t=1.0, target=(1, 1))
    with pytest.raises(ValueError):
        ProtocolConfig(r=BALANCED, t=BALANCED, target=(0, 2))
    with pytest.raises(ValueError):
        ProtocolConfig(r=0.5, t=0.5, target=(1, 1))  # norms do not add to 1


def test_protocol_zero_rounds_reports_failure():
    cfg = ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=0, seed=1)
    res = run_protocol(coherent_state(SuUnitary(np.eye(2)), 2), cfg)
    assert not res.succeeded and res.rounds == 0 and res.fidelity is None


def test_protocol_deterministic_per_seed():
    psi = coherent_state(haar_random_su(2, 79), 3)
    cfg = ProtocolConfig(r=0.6, t=0.8, target=(2, 1), max_rounds=32, seed=123)
    a = run_protocol(psi, cfg)
    b = run_protocol(psi, cfg)
    assert a.outcomes == b.outcomes and a.rounds == b.rounds


def test_protocol_config_accepts_numpy_integers():
    cfg = ProtocolConfig(r=0.6, t=0.8, target=(np.int64(2), np.int8(1)), max_rounds=np.int64(32),
                         seed=np.uint32(123))
    assert cfg.target == (2, 1) and all(type(count) is int for count in cfg.target)
    psi = coherent_state(haar_random_su(2, 79), 3)
    plain = ProtocolConfig(r=0.6, t=0.8, target=(2, 1), max_rounds=32, seed=123)
    assert run_protocol(psi, cfg).outcomes == run_protocol(psi, plain).outcomes


def test_protocol_success_fidelity_for_coherent_input():
    rng = np.random.default_rng(80)
    for _ in range(5):
        u = haar_random_su(2, rng)
        cfg = ProtocolConfig(r=BALANCED, t=BALANCED, target=(2, 1), max_rounds=64,
                             seed=int(rng.integers(2**32)))
        res = run_protocol(coherent_state(u, 3), cfg)
        assert res.succeeded
        assert res.fidelity >= 1.0 - 1e-10


def test_protocol_success_fidelity_for_superposition_input():
    rng = np.random.default_rng(81)
    u, v = haar_random_su(2, rng), haar_random_su(2, rng)
    amps = coherent_state(u, 3).amplitudes + coherent_state(v, 3).amplitudes
    psi = SymmetricState.normalized(2, 3, amps)
    for _ in range(10):
        cfg = ProtocolConfig(r=0.6, t=0.8, target=(1, 2), max_rounds=64,
                             seed=int(rng.integers(2**32)))
        res = run_protocol(psi, cfg)
        assert res.succeeded
        assert res.fidelity >= 1.0 - 1e-9


def test_protocol_first_round_matches_the_public_steps():
    # run_protocol draws its counts from the sector chain: the first-round
    # probability is the chain's column weight |D_N[i, 0]|^2 exactly, and the
    # kernel's weight (inject, apply_tunneling, sector_probabilities) within 4
    # ulps; a first-round success is the kernel's pass, block for block
    rng = np.random.default_rng(88)
    for k, n in ((2, 3), (3, 4), (2, 6)):
        u, v = haar_random_su(k, rng), haar_random_su(k, rng)
        column = _transitions(n, 0.6, 0.8j)[:, 0]
        chain = dict(zip(_sector_keys(n), (column.real**2 + column.imag**2).tolist()))
        for psi in (coherent_state(u, n),
                    SymmetricState.normalized(k, n, coherent_state(u, n).amplitudes
                                              + coherent_state(v, n).amplitudes)):
            tunneled = apply_tunneling(inject(psi), 0.6, 0.8j)
            probs = sector_probabilities(tunneled)
            for seed in range(6):
                cfg = ProtocolConfig(r=0.6, t=0.8j, target=(1, n - 1), max_rounds=1, seed=seed)
                res = run_protocol(psi, cfg)
                assert res.probabilities[0] == chain[res.outcomes[0]]
                assert abs(res.probabilities[0] - probs[res.outcomes[0]]) <= 4 * np.spacing(res.probabilities[0])
                if res.succeeded:
                    block, _ = project_sector(tunneled, 1, n - 1)
                    assert np.array_equal(res.final_block, block)


def test_failed_rounds_keep_classical_structure():
    # measuring a wrong sector leaves a product of coherent states with the
    # same label, so classicality survives every failed round
    u = haar_random_su(2, 82)
    tw = apply_tunneling(inject(coherent_state(u, 4)), BALANCED, BALANCED)
    block, _ = project_sector(tw, 3, 1)
    carried = TwoModeState.single_sector(2, 4, (3, 1), block)
    again = apply_tunneling(carried, BALANCED, BALANCED)
    for n_a in range(5):
        prob = sector_probabilities(again)[(n_a, 4 - n_a)]
        if prob < 1e-12:
            continue
        blk, _ = project_sector(again, n_a, 4 - n_a)
        prod = np.outer(coherent_state(u, n_a).amplitudes,
                        coherent_state(u, 4 - n_a).amplitudes)
        assert abs(np.vdot(prod.reshape(-1), blk.reshape(-1))) ** 2 >= 1.0 - 1e-10


def test_empirical_success_rate_single_round():
    # success frequency of single-shot runs tracks |C_{N_X,N_Y}|^2
    u = SuUnitary(np.eye(2))
    psi = coherent_state(u, 2)
    p = abs(binomial_sector_amplitude(2, 1, BALANCED, BALANCED)) ** 2
    runs = 2000
    hits = 0
    seq = np.random.SeedSequence(83)
    for child in seq.spawn(runs):
        cfg = ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=1,
                             seed=int(child.generate_state(1)[0]))
        if run_protocol(psi, cfg).succeeded:
            hits += 1
    sigma = math.sqrt(p * (1 - p) / runs)
    assert abs(hits / runs - p) < 3 * sigma


def test_run_seed_is_the_seed_of_the_spawned_child():
    for seed in (0, 7, 2**63 + 5):
        children = np.random.SeedSequence(seed).spawn(50)
        assert [_run_seed(seed, run) for run in range(50)] == [int(c.generate_state(1)[0]) for c in children]


# ----------------------------------------------------------- the sector chain

def must_hold(condition: bool) -> None:
    assert condition


def replay(psi: SymmetricState, cfg: ProtocolConfig, clear_draw=must_hold):
    """run_protocol rebuilt from the public steps on the whole two-mode state,
    with the same generator and the same first-reach draw. Every draw must lie
    more than 1e-12 from a cumulative weight, as clear_draw (assume, in a
    Hypothesis test) decides. Returns (outcomes, probabilities, the
    post-selected block on success or None)."""
    rng = np.random.default_rng(cfg.seed)
    state = inject(psi)
    outcomes, probs = [], []
    for _ in range(cfg.max_rounds):
        state = apply_tunneling(state, cfg.r, cfg.t)
        weights = sector_probabilities(state)
        u = rng.random()
        cumulative = list(itertools.accumulate(weights.values()))
        clear_draw(min(abs(u - acc) for acc in cumulative) > 1e-12)
        key = next((key for key, acc in zip(weights, cumulative) if u <= acc), (0, psi.n))
        block, prob = project_sector(state, *key)
        outcomes.append(key)
        probs.append(prob)
        if key == cfg.target:
            return outcomes, probs, block
        state = TwoModeState.single_sector(psi.k, psi.n, key, block)
    return outcomes, probs, None


def assert_matches_replay(psi: SymmetricState, cfg: ProtocolConfig, clear_draw=must_hold) -> ProtocolResult:
    outcomes, probs, block = replay(psi, cfg, clear_draw)
    res = run_protocol(psi, cfg)
    assert list(res.outcomes) == outcomes
    assert np.max(np.abs(np.subtract(res.probabilities, probs)), initial=0.0) <= 1e-14
    assert res.succeeded == (block is not None)
    if res.succeeded:
        assert res.fidelity >= 1.0 - 1e-12
        assert np.max(np.abs(res.final_block - block)) <= 1e-12  # the chain carries the kernel's phase
    return res


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(2, 6), r_mag=st.floats(0.15, 0.95), phase_r=PHASES, phase_t=PHASES,
       split=st.integers(0, 4), max_rounds=st.integers(0, 8), input_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1))
def test_protocol_matches_the_full_two_mode_path(k, n, r_mag, phase_r, phase_t, split, max_rounds, input_seed, seed):
    # run_protocol samples the sector chain and runs the kernel once; the
    # replay runs the kernel on the whole state every round
    psi = random_symmetric(k, n, np.random.default_rng(input_seed))
    r, t = r_mag * cmath.exp(1j * phase_r), math.sqrt(1.0 - r_mag**2) * cmath.exp(1j * phase_t)
    n_a = 1 + split % (n - 1)
    cfg = ProtocolConfig(r=r, t=t, target=(n_a, n - n_a), max_rounds=max_rounds, seed=seed)
    assert_matches_replay(psi, cfg, clear_draw=assume)


def test_success_after_an_endpoint_count_matches_the_full_path():
    # a success whose pre-state sits in (N, 0) after round 1, or in (0, N),
    # starts the kernel pass from psi itself rather than from apply_splitting
    psi = random_symmetric(3, 3, np.random.default_rng(89))
    seen = set()
    for seed in range(200):
        cfg = ProtocolConfig(r=0.45, t=math.sqrt(1 - 0.45**2) * cmath.exp(0.4j), target=(1, 2),
                             max_rounds=8, seed=seed)
        res = assert_matches_replay(psi, cfg)
        if res.succeeded and res.rounds >= 2 and res.outcomes[-2] in ((3, 0), (0, 3)):
            seen.add(res.outcomes[-2])
    assert seen == {(3, 0), (0, 3)}


def test_success_probability_by_round_is_the_kernel_chain():
    # the transition matrix read off the kernel, one pre-state S_j psi per
    # sector, is |D_N|^2; the absorbing chain on it gives the same law
    rng = np.random.default_rng(90)
    k, n, r, t = 3, 4, 0.6 + 0.3j, math.sqrt(0.55) * cmath.exp(0.2j)
    psi = random_symmetric(k, n, rng)
    keys = _sector_keys(n)
    moves = np.empty((n + 1, n + 1))
    for j, key in enumerate(keys):
        image = psi.amplitudes if 0 in key else apply_splitting(psi, *key)
        pre = TwoModeState.single_sector(k, n, key, image.reshape(dicke_dim(k, key[0]), dicke_dim(k, key[1])))
        moves[:, j] = list(sector_probabilities(apply_tunneling(pre, r, t)).values())
    assert np.max(np.abs(moves - np.abs(_transitions(n, r, t)) ** 2)) < 1e-14
    cfg = ProtocolConfig(r=r, t=t, target=(1, 3))
    alive, want = np.eye(n + 1)[0], []
    for _ in range(10):
        alive = moves @ alive
        want.append(alive[keys.index((1, 3))])
        alive[keys.index((1, 3))] = 0.0
    assert np.max(np.abs(np.subtract(success_probability_by_round(cfg, n, 10), want))) < 1e-14
    assert success_probability_by_round(cfg, n, 0) == []
    with pytest.raises(ValueError, match=r"target \(1, 3\) does not partition N=5"):
        success_probability_by_round(cfg, 5, 3)


# ----------------------------------------------------- passes a job's runs share

def count_passes(monkeypatch) -> list[int]:
    """One entry per kernel pass, the tunneling of a whole two-mode vector."""
    passes = []
    tunnel = modesplit._tunnel

    def counting(k, n, amps, r, t):
        passes.append(n)
        return tunnel(k, n, amps, r, t)

    monkeypatch.setattr(modesplit, "_tunnel", counting)
    return passes


def test_single_shot_runs_of_one_state_share_one_pass(monkeypatch):
    psi = coherent_state(haar_random_su(2, np.random.default_rng(91)), 2)
    passes = count_passes(monkeypatch)
    results = [run_protocol(psi, ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=1,
                                                seed=_run_seed(91, run)))
               for run in range(64)]
    assert 0 < sum(res.succeeded for res in results) < 64
    assert passes == [2]
    first = next(res for res in results if res.succeeded)
    assert all(res.final_block is first.final_block for res in results if res.succeeded)


def test_repeat_until_success_runs_make_one_pass_per_last_count(monkeypatch):
    # a success from last count prev reuses the pass from S_prev psi; each
    # (target, r, t) makes at most N + 1 passes on one state
    n = 4
    psi = random_symmetric(3, n, np.random.default_rng(92))
    passes = count_passes(monkeypatch)
    for r, t, target in ((0.6, 0.8j, (1, 3)), (0.45, math.sqrt(1 - 0.45**2) * cmath.exp(0.3j), (2, 2))):
        before, last_counts = len(passes), set()
        for run in range(300):
            res = run_protocol(psi, ProtocolConfig(r=r, t=t, target=target, max_rounds=20, seed=_run_seed(92, run)))
            if res.succeeded:
                last_counts.add(res.outcomes[-2] if res.rounds > 1 else (n, 0))
        assert len(last_counts) >= 3
        assert len(passes) - before == len(last_counts) <= n + 1


def test_a_second_config_on_one_state_gives_what_a_fresh_state_gives():
    rng = np.random.default_rng(93)
    psi = random_symmetric(2, 5, rng)
    first = ProtocolConfig(r=0.7, t=math.sqrt(0.51) * cmath.exp(0.9j), target=(2, 3), max_rounds=12)
    second = ProtocolConfig(r=0.5 + 0.2j, t=math.sqrt(0.71), target=(3, 2), max_rounds=12)
    for run in range(40):
        run_protocol(psi, replace(first, seed=run))
    fresh = SymmetricState(psi.k, psi.n, psi.amplitudes)
    late = 0
    for run in range(120):
        cfg = replace(second, seed=run)
        got, want = run_protocol(psi, cfg), run_protocol(fresh, cfg)
        assert (got.succeeded, got.rounds, got.outcomes) == (want.succeeded, want.rounds, want.outcomes)
        assert got.probabilities == want.probabilities
        if not got.succeeded:
            continue
        if got.rounds == 1:
            assert np.array_equal(got.final_block, want.final_block) and got.fidelity == want.fidelity
        else:
            late += 1
            assert np.max(np.abs(got.final_block - want.final_block)) <= 1e-15
            assert abs(got.fidelity - want.fidelity) <= 1e-15
    assert late > 0
    # the memo is no field: the state prints as the fresh one does
    assert repr(psi) == repr(fresh)


def test_a_config_change_keeps_only_the_new_configs_passes():
    psi = random_symmetric(3, 3, np.random.default_rng(94))
    old = ProtocolConfig(r=0.6, t=0.8, target=(1, 2), max_rounds=10)
    new = ProtocolConfig(r=0.8, t=0.6j, target=(2, 1), max_rounds=10)
    for run in range(100):
        run_protocol(psi, replace(old, seed=run))
    results = [run_protocol(psi, replace(new, seed=run)) for run in range(100)]
    key, reference, blocks = psi._protocol_memo
    assert key == (new.target, new.r, new.t)
    assert np.array_equal(reference, apply_splitting(psi, *new.target))
    assert blocks and set(blocks) <= set(range(psi.n + 1))
    shape = (dicke_dim(3, 2), dicke_dim(3, 1))
    assert all(block.shape == shape and not block.flags.writeable for block in blocks.values())
    assert any(res.final_block is blocks[0] for res in results if res.succeeded and res.rounds == 1)


# ------------------------------------------------------ the sector chain's table

def test_a_jobs_runs_build_the_chain_table_once_per_shape(monkeypatch):
    built = []
    table = modesplit._chain_table

    def counting(transitions):
        built.append(transitions.shape[0] - 1)
        return table(transitions)

    monkeypatch.setattr(modesplit, "_chain_table", counting)
    modesplit._level_rotations.cache_clear()
    rng = np.random.default_rng(95)
    for n in (3, 5, 3):
        psi = random_symmetric(2, n, rng)
        base = ProtocolConfig.from_magnitudes(0.6, phase=0.7, target=(1, n - 1), max_rounds=12)
        results = [run_protocol(psi, replace(base, seed=_run_seed(95, run))) for run in range(16)]
        assert any(res.succeeded for res in results) and any(res.rounds > 1 for res in results)
    assert built == [3, 5]


def test_every_rounds_probability_is_the_table_weight_bit_for_bit():
    # a phase of modulus 1 leaves |D_N[i, prev]|^2 alone, so every round reads the weight itself
    n, r, t = 4, 0.6 * cmath.exp(0.4j), 0.8 * cmath.exp(1.1j)
    amps = _transitions(n, r, t)
    weights = amps.real**2 + amps.imag**2
    keys = _sector_keys(n)
    psi = random_symmetric(3, n, np.random.default_rng(96))
    later = 0
    for seed in range(200):
        res = run_protocol(psi, ProtocolConfig(r=r, t=t, target=(2, 2), max_rounds=12, seed=seed))
        prev = 0
        for key, prob in zip(res.outcomes, res.probabilities):
            assert prob == weights[keys.index(key), prev]
            prev = keys.index(key)
        later += res.rounds - 1
    assert later > 100


def test_success_probability_by_round_reads_the_table_the_runs_draw_from(monkeypatch):
    n, r, t = 5, 0.5 + 0.3j, math.sqrt(0.66) * cmath.exp(-0.8j)
    cfg = ProtocolConfig(r=r, t=t, target=(2, 3), max_rounds=8, seed=3)
    reads = []
    chain = modesplit._chain
    monkeypatch.setattr(modesplit, "_chain", lambda *key: reads.append(key) or chain(*key))
    law = success_probability_by_round(cfg, n, 8)
    run_protocol(random_symmetric(2, n, np.random.default_rng(97)), cfg)
    assert reads == [(n, cfg.r, cfg.t)] * 2
    amps = _transitions(n, r, t)
    moves = np.column_stack([weights for weights, _, _ in chain(n, r, t)])
    assert np.array_equal(moves, amps.real**2 + amps.imag**2)
    goal, alive, want = _sector_keys(n).index((2, 3)), np.eye(n + 1)[0], []
    for _ in range(8):
        alive = moves @ alive
        want.append(float(alive[goal]))
        alive[goal] = 0.0
    assert law == want
