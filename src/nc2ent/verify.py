"""Self-check suites behind the `verify` CLI command: scaled-down versions of
the acceptance properties with per-check pass/fail results and margins."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import conversion, gcnot, linalg, modesplit, symmetric, witness

SUITES = ("discrete", "symmetric", "modesplit", "gcnot")

# Thresholds the checks below are pinned to, echoed into run reports.
TOLERANCES = {
    "gram_splitting": 1e-10,
    "unitarity": 1e-10,
    "mixture_negativity": 1e-10,
    "superposition_entropy": 1e-8,
    "one_ebit_maxima": 1e-6,
    "mirror_symmetry": 1e-9,
    "overlap_splitting": 1e-12,
    "isometry_fidelity": 1e-10,
    "sector_probabilities": 1e-10,
    "postselected_fidelity": 1e-9,
    "witness_chain": 1e-10,
    "witness_detection": -0.01,        # the witness must go below this on the target
    "witness_classical_floor": -1e-10,  # and stay above this on every classical state
    "beamsplitter_point": 1e-12,
    "beamsplitter_identity": 1e-12,
    "success_rate_sigmas": 3.0,
}


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


def _within(name: str, key: str, worst: float, detail: str = "") -> CheckResult:
    """Pass iff worst <= TOLERANCES[key]; the margin is the room left."""
    return _check(name, worst <= TOLERANCES[key], TOLERANCES[key] - worst, detail)


def run_discrete_suite(seed: int = 0, trials: int = 20) -> list[CheckResult]:
    """Rank equality, Gram-splitting identity, and mixed-state faithfulness
    for random classical sets at a few dimensions."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    worst_split = 0.0
    worst_unitary = 0.0
    total = passes = 0
    for dim in (2, 3, 5):
        cs = conversion.random_classical_set(dim, rng)
        split = conversion.make_split(cs, conversion.default_epsilon(cs))
        conv = conversion.build_conversion(cs, split)
        product = split.gram_d.entries * split.gram_e.entries
        worst_split = max(worst_split, float(np.max(np.abs(product - cs.gram.entries))))
        rep = conversion.verify_rank_equality(cs, conv, trials=trials, seed=int(rng.integers(2**32)))
        u = conv.unitary.matrix
        worst_unitary = max(worst_unitary, float(np.max(np.abs(u @ u.conj().T - np.eye(dim * dim)))))
        total += rep.trials
        passes += rep.passes
        # classical mixtures stay separable; rank >= 2 inputs come out entangled
        weights = rng.random(min(dim, 5))
        weights /= weights.sum()
        rho = sum(w * c.projector() for w, c in zip(weights, cs.states))
        neg = linalg.negativity(conv.convert_density(rho), dim, dim)
        checks.append(_within(f"mixture-negativity-D{dim}", "mixture_negativity", neg))
        psi, _ = conversion.random_superposition(cs, 2, rng)
        ent = linalg.entanglement_entropy(linalg.schmidt_decompose(conv.convert(psi), dim, dim))
        floor = TOLERANCES["superposition_entropy"]
        checks.append(_check(f"superposition-entropy-D{dim}", ent > floor, ent - floor))
    checks.insert(0, _check("rank-equality", passes == total, float(passes - total),
                            detail=f"{passes}/{total} trials"))
    checks.insert(1, _within("gram-splitting", "gram_splitting", worst_split))
    checks.insert(2, _within("unitarity", "unitarity", worst_unitary))
    return checks


def run_gcnot_suite(seed: int = 0, trials: int = 16) -> list[CheckResult]:
    """Entanglement maxima, mirror symmetry, the unique-maximal-input probe,
    the witness pipeline, and the beamsplitter identification."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    thetas = np.linspace(math.pi / 2, math.pi - 0.01, max(trials, 4))
    worst = 0.0
    for theta in thetas:
        _, ebits = gcnot.optimal_epsilon(float(theta), linalg.basis_state(2, 0))
        worst = max(worst, abs(ebits - 1.0))
    checks.append(_within("one-ebit-maxima", "one_ebit_maxima", worst,
                          detail=f"{len(thetas)} angles, worst |max-1| = {worst:.3e}"))

    mirror_worst = 0.0
    for theta in thetas[1:-1]:
        _, e0 = gcnot.optimal_epsilon(float(theta), linalg.basis_state(2, 0))
        _, e1 = gcnot.optimal_epsilon(math.pi - float(theta), linalg.basis_state(2, 1))
        mirror_worst = max(mirror_worst, abs(e0 - e1))
    checks.append(_within("mirror-symmetry", "mirror_symmetry", mirror_worst))

    probe = gcnot.cnot_equivalence_probe(2 * math.pi / 3)
    checks.append(_check("unique-maximal-input", probe.maximal_count == 1,
                         float(1 - abs(probe.maximal_count - 1)),
                         detail=f"count={probe.maximal_count}"))
    count, _, _ = gcnot.maximal_input_count(math.pi / 2, gcnot.mu_to_epsilon(1e-6))
    checks.append(_check("cnot-control-two-maxima", count >= 2, float(count - 2),
                         detail=f"count={count}"))

    # witness chain on the orthogonal classical pair at strong splitting
    cs = gcnot.gcnot_classical_pair(math.pi / 2)
    split = conversion.make_split(cs, gcnot.mu_to_epsilon(0.01), boundary_ok=True)
    conv = conversion.build_conversion(cs, split)
    phi = conv.convert(linalg.basis_state(2, 0))
    w = witness.swap_style_witness(2, 2, phi)
    w_tilde = witness.nonclassicality_witness(w, conv)
    chain_worst = 0.0
    for _ in range(10):
        rho_in = linalg.random_state(2, rng).projector()
        lhs, _ = witness.detect(w_tilde, rho_in)
        rho_out = conv.convert_density(rho_in)
        rhs = float(np.real(np.trace(w.operator @ rho_out)))
        chain_worst = max(chain_worst, abs(lhs - rhs))
    checks.append(_within("witness-chain", "witness_chain", chain_worst))
    val, detected = witness.detect(w_tilde, linalg.basis_state(2, 0).projector())
    classical_min = min(witness.detect(w_tilde, c.projector())[0] for c in cs.states)
    bound = TOLERANCES["witness_detection"]
    checks.append(_check("witness-detects", detected and val < bound, bound - val))
    floor = TOLERANCES["witness_classical_floor"]
    checks.append(_check("witness-classical-safe", classical_min >= floor, classical_min - floor))

    x, y = gcnot.beamsplitter_params(math.exp(-1.0), math.exp(0.5) - 1.0)
    point_err = max(abs(x - 0.5), abs(y - 0.5))
    checks.append(_within("beamsplitter-point", "beamsplitter_point", point_err))
    bs_worst = 0.0
    for _ in range(25):
        ov = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 1.0 / ov - 1.0)
        x, y = gcnot.beamsplitter_params(ov, eps)
        bs_worst = max(bs_worst, abs(x + y - 1.0), abs(ov**x * ov**y - ov))
    checks.append(_within("beamsplitter-identity", "beamsplitter_identity", bs_worst))
    return checks


def run_symmetric_suite(seed: int = 0, trials: int = 20) -> list[CheckResult]:
    """Overlap power law and splits, splitting-isometry action, and mixed
    faithfulness for symmetric coherent states."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    split_worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        u = symmetric.haar_random_su(k, rng)
        v = symmetric.haar_random_su(k, rng)
        full = symmetric.coherent_state(u, n).overlap(symmetric.coherent_state(v, n))
        for n_x in range(1, n):
            lhs = symmetric.coherent_state(u, n_x).overlap(symmetric.coherent_state(v, n_x))
            rhs = symmetric.coherent_state(u, n - n_x).overlap(symmetric.coherent_state(v, n - n_x))
            split_worst = max(split_worst, abs(full - lhs * rhs))
    checks.append(_within("overlap-splitting", "overlap_splitting", split_worst))

    iso = symmetric.splitting_isometry(2, 4, 2, 2).matrix
    fid_worst = 0.0
    for _ in range(trials):
        u = symmetric.haar_random_su(2, rng)
        out = iso @ symmetric.coherent_state(u, 4).amplitudes
        prod = np.kron(symmetric.coherent_state(u, 2).amplitudes,
                       symmetric.coherent_state(u, 2).amplitudes)
        fid_worst = max(fid_worst, abs(1.0 - abs(np.vdot(prod, out)) ** 2))
    checks.append(_within("isometry-coherent-action", "isometry_fidelity", fid_worst))

    rep = symmetric.verify_splitting_faithfulness(2, 3, (1, 2), samples=max(trials // 4, 3),
                                                  seed=int(rng.integers(2**32)))
    checks.append(_check("mixed-faithfulness", rep.all_passed,
                         TOLERANCES["mixture_negativity"] - rep.max_mixture_negativity,
                         detail="; ".join(rep.failures) or "ok"))
    return checks


def run_modesplit_suite(seed: int = 0, trials: int = 2000) -> list[CheckResult]:
    """Sector statistics against the binomial amplitudes, empirical success
    frequency, and post-selected fidelity for a superposition input."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    r = t = 1.0 / math.sqrt(2.0)

    u = symmetric.haar_random_su(2, rng)
    state = modesplit.apply_tunneling(modesplit.inject(symmetric.coherent_state(u, 4)), r, t)
    probs = modesplit.sector_probabilities(state)
    worst = max(abs(probs[(n_a, 4 - n_a)] - abs(modesplit.binomial_sector_amplitude(4, n_a, r, t)) ** 2)
                for n_a in range(5))
    checks.append(_within("sector-probabilities", "sector_probabilities", worst))

    target_p = abs(modesplit.binomial_sector_amplitude(2, 1, r, t)) ** 2
    hits = 0
    base = np.random.SeedSequence(seed)
    for child in base.spawn(trials):
        cfg = modesplit.ProtocolConfig(r=r, t=t, target=(1, 1), max_rounds=1,
                                       seed=int(child.generate_state(1)[0]))
        if modesplit.run_protocol(symmetric.coherent_state(u, 2), cfg).succeeded:
            hits += 1
    allowed = TOLERANCES["success_rate_sigmas"] * math.sqrt(target_p * (1.0 - target_p) / trials)
    dev = abs(hits / trials - target_p)
    checks.append(_check("empirical-success-rate", dev <= allowed, allowed - dev,
                         detail=f"{hits}/{trials} vs p={target_p:.4f}"))

    v = symmetric.haar_random_su(2, rng)
    amps = symmetric.coherent_state(u, 3).amplitudes + symmetric.coherent_state(v, 3).amplitudes
    psi = symmetric.SymmetricState.normalized(2, 3, amps)
    fid_worst = 1.0
    successes = 0
    for run in range(50):
        cfg = modesplit.ProtocolConfig(r=r, t=t, target=(2, 1), max_rounds=64,
                                       seed=int(rng.integers(2**32)))
        res = modesplit.run_protocol(psi, cfg)
        if res.succeeded:
            successes += 1
            fid_worst = min(fid_worst, res.fidelity)
    fid_floor = 1.0 - TOLERANCES["postselected_fidelity"]
    ok = successes > 0 and fid_worst >= fid_floor
    checks.append(_check("postselected-fidelity", ok, fid_worst - fid_floor,
                         detail=f"{successes}/50 successes, min fidelity {fid_worst!r}"))
    return checks


_RUNNERS = {
    "discrete": run_discrete_suite,
    "symmetric": run_symmetric_suite,
    "modesplit": run_modesplit_suite,
    "gcnot": run_gcnot_suite,
}


def run_suites(names, seed: int = 0, trials: int | None = None) -> dict[str, list[CheckResult]]:
    results: dict[str, list[CheckResult]] = {}
    for name in names:
        if name not in _RUNNERS:
            raise ValueError(f"unknown suite {name!r}; valid: all, {', '.join(SUITES)}")
        runner = _RUNNERS[name]
        results[name] = runner(seed=seed) if trials is None else runner(seed=seed, trials=trials)
    return results
