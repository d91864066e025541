"""One measurement per property of the paper: a `measure_*` function takes
sizes, inputs and a random generator and returns worst residuals, minima and
counts, never a verdict. The `verify` suites call them at reduced size and
judge the values against TOLERANCES; the acceptance criteria, at full size."""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import conversion, gcnot, linalg, modesplit, symmetric, witness

# Thresholds the checks below are pinned to, echoed into run reports.
TOLERANCES = {
    "gram_splitting": 1e-10,
    "unitarity": 1e-10,
    "mixture_negativity": 1e-10,
    "mixture_product": 1e-10,          # distance of a converted mixture from its product form
    "superposition_entropy": 1e-8,
    "one_ebit_maxima": 1e-6,
    "mirror_symmetry": 1e-9,
    "other_input_gap": 1e-3,           # the other basis input stays this far below one ebit
    "overlap_splitting": 1e-12,
    "isometry_fidelity": 1e-10,
    "sector_probabilities": 1e-10,
    "chain_weights": 1e-12,            # kernel sector weights against the |D_N|^2 column
    "chain_blocks": 1e-10,             # kernel post-selected blocks against phase * S psi
    "postselected_fidelity": 1e-9,
    "witness_chain": 1e-10,
    "witness_detection": -0.01,        # the witness must go below this on the target
    "witness_classical_floor": -1e-10,  # and stay above this on every classical state
    "beamsplitter_point": 1e-12,
    "beamsplitter_identity": 1e-12,
    "success_rate_sigmas": 3.0,
}

BALANCED = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float        # distance from the tolerance; positive means pass with room
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _check(name: str, passed: bool, margin: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), margin=float(margin), detail=detail)


def _within(name: str, detail: str = "", **worst: float) -> CheckResult:
    """Pass iff each worst value is <= TOLERANCES[its key]; the margin is the least room."""
    margins = [TOLERANCES[key] - value for key, value in worst.items()]
    return _check(name, all(m >= 0 for m in margins), min(margins), detail)


# ------------------------------------------------------------------ measures

def measure_conversions(dim: int, sets: int, rng: np.random.Generator) -> tuple[int, int, float, float]:
    """Convert `sets` random classical sets of dimension dim at the default
    splitting and one random superposition per support size of each. Returns
    (rank trials, rank matches, worst |G_d * G_e - G|, worst |U^dag U - I|)."""
    trials = matches = 0
    worst_split = worst_unitary = 0.0
    for _ in range(sets):
        cs = conversion.random_classical_set(dim, rng)
        split = conversion.make_split(cs, conversion.default_epsilon(cs))
        conv = conversion.build_conversion(cs, split)
        product = split.gram_d.entries * split.gram_e.entries
        worst_split = max(worst_split, float(np.max(np.abs(product - cs.gram.entries))))
        u = conv.unitary
        worst_unitary = max(worst_unitary, float(np.max(np.abs(u.conj().T @ u - np.eye(dim * dim)))))
        for support in range(1, dim + 1):
            psi, r_c = conversion.random_superposition(cs, support, rng)
            trials += 1
            matches += linalg.schmidt_decompose(conv.convert(psi), dim, dim).rank == r_c == support
    return trials, matches, worst_split, worst_unitary


def measure_mixed_faithfulness(dim: int, rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Convert one random classical set of dimension dim, one random mixture
    per size 1..min(dim, 5) and one random superposition per support 2..dim.
    Returns (worst mixture negativity, worst distance from the product
    mixture, least superposition entropy, worst beta/s of the separability
    bound that negativity reads, inf where a mixture's bound fails)."""
    cs = conversion.random_classical_set(dim, rng)
    split = conversion.make_split(cs, conversion.default_epsilon(cs))
    conv = conversion.build_conversion(cs, split)
    worst_neg = worst_product = worst_ratio = 0.0
    floor = linalg.DENSITY_TOL / (dim * dim)
    for terms in range(1, min(dim, 5) + 1):
        weights = rng.random(terms)
        weights /= weights.sum()
        idx = rng.choice(dim, size=terms, replace=False)
        sigma = conv.convert_density(sum(w * cs.states[i].projector() for w, i in zip(weights, idx)))
        worst_neg = max(worst_neg, linalg.negativity(sigma, dim, dim))
        beta = linalg._attached_bound(sigma, dim, dim)
        worst_ratio = max(worst_ratio, beta / floor if beta is not None and beta <= floor else math.inf)
        explicit = sum(w * split.d_states[i].tensor(split.e_states[i]).projector()
                       for w, i in zip(weights, idx))
        worst_product = max(worst_product, float(np.max(np.abs(sigma - explicit))))
    min_entropy = math.inf
    for support in range(2, dim + 1):
        psi, _ = conversion.random_superposition(cs, support, rng)
        sd = linalg.schmidt_decompose(conv.convert(psi), dim, dim)
        min_entropy = min(min_entropy, linalg.entanglement_entropy(sd))
    return worst_neg, worst_product, min_entropy, worst_ratio


def measure_ebit_maxima(angles: int) -> tuple[float, float]:
    """Optimal entanglement of the two-state conversion at `angles` theta in
    [pi/2, pi - 0.01]. Returns (worst |max - 1| for input |0>, worst
    difference from pi - theta with input |1>)."""
    worst_max = worst_mirror = 0.0
    for theta in np.linspace(math.pi / 2, math.pi - 0.01, angles):
        _, ebits0 = gcnot.optimal_epsilon(float(theta), linalg.basis_state(2, 0))
        _, ebits1 = gcnot.optimal_epsilon(math.pi - float(theta), linalg.basis_state(2, 1))
        worst_max = max(worst_max, abs(ebits0 - 1.0))
        worst_mirror = max(worst_mirror, abs(ebits0 - ebits1))
    return worst_max, worst_mirror


def measure_cnot_nonequivalence(theta: float) -> tuple[int, int, float]:
    """Returns (input directions of gcnot.PROBE_POINTS that reach one ebit at
    the optimal splitting of the pair at theta; the same count for the orthogonal
    pair at extreme splitting; ebits of the other basis input at the optimum)."""
    probe = gcnot.cnot_equivalence_probe(theta)
    control, _, _ = gcnot.maximal_input_count(math.pi / 2, gcnot.mu_to_epsilon(1e-6))
    return probe.maximal_count, control, probe.entropy_one if theta > math.pi / 2 else probe.entropy_zero


def measure_overlap_splitting(pairs: int, max_particles: int, rng: np.random.Generator) -> float:
    """Worst |<u|v>_N - <u|v>_M <u|v>_{N-M}| over `pairs` Haar pairs,
    K = 2..4, N = 2..max_particles and every split M."""
    worst = 0.0
    for _ in range(pairs):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, max_particles + 1))
        u, v = symmetric.haar_random_su(k, rng), symmetric.haar_random_su(k, rng)
        overlaps = [symmetric.coherent_state(u, m).overlap(symmetric.coherent_state(v, m))
                    for m in range(n + 1)]
        for m in range(1, n):
            worst = max(worst, abs(overlaps[n] - overlaps[m] * overlaps[n - m]))
    return worst


def measure_isometry_action(k: int, n: int, n_x: int, samples: int, rng: np.random.Generator) -> float:
    """Worst 1 - |<u_{N_X}| <u_{N-N_X}| S |u_N>|^2 of the splitting isometry
    S (applied by apply_splitting) over `samples` Haar coherent inputs."""
    worst = 0.0
    for _ in range(samples):
        u = symmetric.haar_random_su(k, rng)
        out = symmetric.apply_splitting(symmetric.coherent_state(u, n), n_x, n - n_x)
        prod = np.kron(symmetric.coherent_state(u, n_x).amplitudes,
                       symmetric.coherent_state(u, n - n_x).amplitudes)
        worst = max(worst, abs(1.0 - abs(np.vdot(prod, out)) ** 2))
    return worst


def measure_splitting_faithfulness(k: int, n: int, n_x: int, samples: int,
                                   rng: np.random.Generator) -> tuple[float, float, float]:
    """The splitting isometry S (apply_splitting) on `samples` mixtures of three
    Haar coherent projectors, as sum_i w_i |S psi_i><S psi_i|, then on `samples`
    superpositions of two Haar coherent states (near-parallel pairs skipped). Returns
    (worst output negativity, worst distance from the product mixture, least superposition entropy)."""
    dims = symmetric.dicke_dim(k, n_x), symmetric.dicke_dim(k, n - n_x)
    worst_neg = worst_product = 0.0
    min_entropy = math.inf
    for _ in range(samples):
        unitaries = [symmetric.haar_random_su(k, rng) for _ in range(3)]
        weights = rng.random(3)
        weights /= weights.sum()
        images = [symmetric.apply_splitting(symmetric.coherent_state(u, n), n_x, n - n_x) for u in unitaries]
        sigma = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, images))
        worst_neg = max(worst_neg, linalg.negativity(sigma, *dims))
        factors = [(symmetric.coherent_state(u, n_x).as_state_vector(),
                    symmetric.coherent_state(u, n - n_x).as_state_vector()) for u in unitaries]
        explicit = sum(w * x.tensor(y).projector() for w, (x, y) in zip(weights, factors))
        worst_product = max(worst_product, float(np.max(np.abs(sigma - explicit))))
    for _ in range(samples):
        u, v = symmetric.haar_random_su(k, rng), symmetric.haar_random_su(k, rng)
        if abs(symmetric.overlap(u, v, 1)) > 1 - 1e-6:
            continue
        amps = symmetric.coherent_state(u, n).amplitudes + symmetric.coherent_state(v, n).amplitudes
        out = linalg.StateVector(symmetric.apply_splitting(symmetric.SymmetricState.normalized(k, n, amps),
                                                           n_x, n - n_x))
        min_entropy = min(min_entropy, linalg.entanglement_entropy(linalg.schmidt_decompose(out, *dims)))
    return worst_neg, worst_product, min_entropy


def measure_sector_probabilities(k: int, ns, r: complex, t: complex, rng: np.random.Generator) -> float:
    """Worst deviation of the sector probabilities after one tunneling pass
    from |binomial_sector_amplitude|^2, one Haar coherent input per N in ns."""
    worst = 0.0
    for n in ns:
        state = modesplit.inject(symmetric.coherent_state(symmetric.haar_random_su(k, rng), n))
        probs = modesplit.sector_probabilities(modesplit.apply_tunneling(state, r, t))
        for n_a in range(n + 1):
            expected = abs(modesplit.binomial_sector_amplitude(n, n_a, r, t)) ** 2
            worst = max(worst, abs(probs[(n_a, n - n_a)] - expected))
    return worst


def measure_success_frequency(runs: int, seed: int, rng: np.random.Generator, n: int = 2,
                              max_rounds: int = 1) -> tuple[int, float]:
    """Balanced runs of at most max_rounds rounds, K = 2, target (1, N - 1), on
    a Haar coherent input, run i seeded by modesplit._run_seed(seed, i). Returns
    (successes, the exact probability of success within max_rounds, from the
    sector chain)."""
    psi = symmetric.coherent_state(symmetric.haar_random_su(2, rng), n)
    base = modesplit.ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, n - 1), max_rounds=max_rounds)
    hits = sum(modesplit.run_protocol(psi, dataclasses.replace(base, seed=modesplit._run_seed(seed, run))).succeeded
               for run in range(runs))
    return hits, sum(modesplit.success_probability_by_round(base, n, max_rounds))


CHAIN_SHAPES = ((2, 5), (3, 4), (4, 3), (5, 2), (6, 2))  # (K, N): small N at large K


def measure_chain_transitions(rounds: int, rng: np.random.Generator) -> tuple[float, float]:
    """One full two-mode kernel path of `rounds` rounds per (K, N) in
    CHAIN_SHAPES (inject, then apply_tunneling, sector_probabilities and
    project_sector, the counted block carried by TwoModeState.single_sector),
    on a random non-coherent input with random complex r and t, each count
    drawn from the kernel's weights. Returns (worst deviation of a round's
    sector weights from the previous count's row of the chain's table, the
    weights run_protocol draws from, worst deviation of a counted block from
    c S psi, c the chain's phase)."""
    worst_weight = worst_block = 0.0
    for k, n in CHAIN_SHAPES:
        dim = symmetric.dicke_dim(k, n)
        psi = symmetric.SymmetricState.normalized(k, n, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        r_mag, phase_r, phase_t = rng.uniform(0.2, 0.9), *rng.uniform(0.0, 2 * math.pi, 2)
        r, t = r_mag * cmath.exp(1j * phase_r), math.sqrt(1.0 - r_mag**2) * cmath.exp(1j * phase_t)
        transitions, table, keys = modesplit._transitions(n, r, t), modesplit._chain(n, r, t), modesplit._sector_keys(n)
        state, prev, phase = modesplit.inject(psi), 0, 1.0
        for _ in range(rounds):
            state = modesplit.apply_tunneling(state, r, t)
            weights = np.array(list(modesplit.sector_probabilities(state).values()))
            column = phase * transitions[:, prev]
            worst_weight = max(worst_weight, float(np.max(np.abs(weights - table[prev][0]))))
            prev = int(rng.choice(n + 1, p=weights / weights.sum()))
            block, _ = modesplit.project_sector(state, *keys[prev])
            phase = column[prev] / abs(column[prev])
            image = phase * modesplit._sector_image(psi, prev)
            worst_block = max(worst_block, float(np.max(np.abs(block.reshape(-1) - image))))
            state = modesplit.TwoModeState.single_sector(k, n, keys[prev], block)
    return worst_weight, worst_block


def measure_postselected_fidelity(runs: int, r: complex, t: complex,
                                  rng: np.random.Generator) -> tuple[int, float]:
    """Repeat-until-success runs, target (2, 1), at most 64 rounds, on a
    superposition of two Haar coherent states, K = 2, N = 3. Returns
    (successes, least fidelity on success or 1.0)."""
    u, v = symmetric.haar_random_su(2, rng), symmetric.haar_random_su(2, rng)
    amps = symmetric.coherent_state(u, 3).amplitudes + symmetric.coherent_state(v, 3).amplitudes
    psi = symmetric.SymmetricState.normalized(2, 3, amps)
    fidelities = []
    for _ in range(runs):
        cfg = modesplit.ProtocolConfig(r=r, t=t, target=(2, 1), max_rounds=64,
                                       seed=int(rng.integers(2**32)))
        res = modesplit.run_protocol(psi, cfg)
        if res.succeeded:
            fidelities.append(res.fidelity)
    return len(fidelities), min(fidelities, default=1.0)


def measure_witness_chain(samples: int, rng: np.random.Generator) -> tuple[float, float, float]:
    """Projector witness W of the converted |0> for the orthogonal pair at
    mu = 0.01, compressed to W~ = V^dag W V. Returns (worst |Tr(W~ rho) -
    Tr(W V rho V^dag)| over `samples` random pure inputs, Tr(W~ |0><0|), the
    least value on a classical state)."""
    cs = gcnot.gcnot_classical_pair(math.pi / 2)
    split = conversion.make_split(cs, gcnot.mu_to_epsilon(0.01))
    conv = conversion.build_conversion(cs, split)
    w = witness.swap_style_witness(2, 2, conv.convert(linalg.basis_state(2, 0)))
    w_tilde = witness.nonclassicality_witness(w, conv)
    worst = 0.0
    for _ in range(samples):
        rho_in = linalg.random_state(2, rng).projector()
        lhs, _ = witness.detect(w_tilde, rho_in)
        rhs = float(np.real(np.trace(w.operator @ conv.convert_density(rho_in))))
        worst = max(worst, abs(lhs - rhs))
    target_value, _ = witness.detect(w_tilde, linalg.basis_state(2, 0).projector())
    return worst, target_value, min(witness.detect(w_tilde, c.projector())[0] for c in cs.states)


def measure_beamsplitter(samples: int, rng: np.random.Generator) -> tuple[float, float, float]:
    """Returns (error of x = y = 1/2 at overlap e^-1, eps = e^0.5 - 1; worst
    |x + y - 1|; worst |ov^x ov^y - ov|), the last two over `samples` random
    overlaps in (0.02, 0.98) with feasible eps."""
    x, y = gcnot.beamsplitter_params(math.exp(-1.0), math.exp(0.5) - 1.0)
    point_err = max(abs(x - 0.5), abs(y - 0.5))
    worst_sum = worst_split = 0.0
    for _ in range(samples):
        ov = rng.uniform(0.02, 0.98)
        x, y = gcnot.beamsplitter_params(ov, rng.uniform(0.0, 1.0 / ov - 1.0))
        worst_sum = max(worst_sum, abs(x + y - 1.0))
        worst_split = max(worst_split, abs(ov**x * ov**y - ov))
    return point_err, worst_sum, worst_split


# -------------------------------------------------------------------- suites

def run_discrete_suite(seed: int = 0, trials: int = 20) -> list[CheckResult]:
    """Rank equality, Gram-splitting identity, and mixed-state faithfulness
    for random classical sets at a few dimensions."""
    rng = np.random.default_rng(seed)
    dims = (2, 3, 5)
    per_dim = [measure_conversions(dim, trials, rng) for dim in dims]
    total, passes = sum(m[0] for m in per_dim), sum(m[1] for m in per_dim)
    checks = [
        _check("rank-equality", passes == total, float(passes - total), detail=f"{passes}/{total} trials"),
        _within("gram-splitting", gram_splitting=max(m[2] for m in per_dim)),
        _within("unitarity", unitarity=max(m[3] for m in per_dim)),
    ]
    floor = TOLERANCES["superposition_entropy"]
    for dim in dims:
        neg, product, entropy, ratio = measure_mixed_faithfulness(dim, rng)
        route = f"certificate \u03b2/s={ratio:.2e}" if ratio <= 1.0 else "cholesky"
        checks.append(_within(f"mixture-negativity-D{dim}", route, mixture_negativity=neg, mixture_product=product))
        checks.append(_check(f"superposition-entropy-D{dim}", entropy > floor, entropy - floor))
    return checks


def run_gcnot_suite(seed: int = 0, trials: int = 16) -> list[CheckResult]:
    """Entanglement maxima, mirror symmetry, the unique-maximal-input probe,
    the witness pipeline, and the beamsplitter identification."""
    rng = np.random.default_rng(seed)
    angles = max(trials, 4)
    worst_max, worst_mirror = measure_ebit_maxima(angles)
    count, control, other = measure_cnot_nonequivalence(2 * math.pi / 3)
    other_room = 1.0 - TOLERANCES["other_input_gap"] - other
    chain, target_value, classical_min = measure_witness_chain(10, rng)
    bound, floor = TOLERANCES["witness_detection"], TOLERANCES["witness_classical_floor"]
    point_err, worst_sum, worst_split = measure_beamsplitter(25, rng)
    return [
        _within("one-ebit-maxima", detail=f"{angles} angles, worst |max-1| = {worst_max:.3e}",
                one_ebit_maxima=worst_max),
        _within("mirror-symmetry", mirror_symmetry=worst_mirror),
        _check("unique-maximal-input", count == 1 and other_room > 0, min(1 - abs(count - 1), other_room),
               detail=f"count={count}, other input {other:.4f} ebits"),
        _check("cnot-control-two-maxima", control >= 2, float(control - 2), detail=f"count={control}"),
        _within("witness-chain", witness_chain=chain),
        _check("witness-detects", target_value < bound, bound - target_value),
        _check("witness-classical-safe", classical_min >= floor, classical_min - floor),
        _within("beamsplitter-point", beamsplitter_point=point_err),
        _within("beamsplitter-identity", beamsplitter_identity=max(worst_sum, worst_split)),
    ]


def run_symmetric_suite(seed: int = 0, trials: int = 20) -> list[CheckResult]:
    """Overlap power law and splits, splitting-isometry action, and mixed
    faithfulness for symmetric coherent states."""
    rng = np.random.default_rng(seed)
    checks = [
        _within("overlap-splitting", overlap_splitting=measure_overlap_splitting(trials, 6, rng)),
        _within("isometry-coherent-action", isometry_fidelity=measure_isometry_action(2, 4, 2, trials, rng)),
    ]
    neg, product, entropy = measure_splitting_faithfulness(2, 3, 1, max(trials // 4, 3), rng)
    mixed = _within("mixed-faithfulness", mixture_negativity=neg, mixture_product=product)
    entropy_room = entropy - TOLERANCES["superposition_entropy"]
    checks.append(_check(mixed.name, mixed.passed and entropy_room > 0, min(mixed.margin, entropy_room),
                         detail=f"min entropy {entropy:.2e}"))
    return checks


def _rate_check(name: str, hits: int, trials: int, p: float, detail: str) -> CheckResult:
    """Pass iff the success frequency hits/trials is within success_rate_sigmas binomial sigmas of p."""
    allowed = TOLERANCES["success_rate_sigmas"] * math.sqrt(p * (1.0 - p) / trials)
    dev = abs(hits / trials - p)
    return _check(name, dev <= allowed, allowed - dev, detail=detail)


def run_modesplit_suite(seed: int = 0, trials: int = 2000) -> list[CheckResult]:
    """Sector statistics against the binomial amplitudes, empirical success
    frequency, post-selected fidelity for a superposition input, the kernel
    against the sector chain, and the success frequency over several rounds
    against the chain's exact probability."""
    rng = np.random.default_rng(seed)
    worst = measure_sector_probabilities(2, (4,), BALANCED, BALANCED, rng)
    hits, p = measure_success_frequency(trials, seed, rng)
    runs = 50
    successes, min_fid = measure_postselected_fidelity(runs, BALANCED, BALANCED, rng)
    fid_floor = 1.0 - TOLERANCES["postselected_fidelity"]
    chain_weight, chain_block = measure_chain_transitions(6, rng)
    multi_hits, multi_p = measure_success_frequency(trials, seed + 1, rng, n=3, max_rounds=4)  # a stream of its own
    return [
        _within("sector-probabilities", sector_probabilities=worst),
        _rate_check("empirical-success-rate", hits, trials, p, detail=f"{hits}/{trials} vs p={p:.4f}"),
        _check("postselected-fidelity", successes == runs and min_fid >= fid_floor, min_fid - fid_floor,
               detail=f"{successes}/{runs} successes, min fidelity {min_fid!r}"),
        _within("chain-transitions", detail=f"6 rounds at each (K, N) in {CHAIN_SHAPES}",
                chain_weights=chain_weight, chain_blocks=chain_block),
        _rate_check("multi-round-success-rate", multi_hits, trials, multi_p,
                    detail=f"{multi_hits}/{trials} within 4 rounds vs p={multi_p:.4f}"),
    ]


_RUNNERS = {
    "discrete": run_discrete_suite,
    "symmetric": run_symmetric_suite,
    "modesplit": run_modesplit_suite,
    "gcnot": run_gcnot_suite,
}
SUITES = tuple(_RUNNERS)


def run_suites(names, seed: int = 0, trials: int | None = None) -> dict[str, list[CheckResult]]:
    if trials is not None and not linalg._is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed is not None and not linalg._is_integer(seed):
        raise ValueError(f"seed must be None or an integer, got {seed!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    results: dict[str, list[CheckResult]] = {}
    for name in names:
        if name not in _RUNNERS:
            raise ValueError(f"unknown suite {name!r}; valid: all, {', '.join(SUITES)}")
        runner = _RUNNERS[name]
        results[name] = runner(seed=seed) if trials is None else runner(seed=seed, trials=trials)
    return results
