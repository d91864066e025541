"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion measures through the `nc2ent.verify` functions that
`nc2ent verify` runs at reduced size, with its own sizes and seeds, and
asserts its own literal thresholds; a literal with a TOLERANCES key is
asserted equal to it. Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines; the module takes a few seconds on one core, most of
it the conversion sweep of criterion 1.
"""

import math

import numpy as np
import pytest

from nc2ent import verify
from nc2ent.linalg import StateVector, schmidt_decompose
from nc2ent.modesplit import apply_tunneling, inject
from nc2ent.symmetric import SymmetricState, coherent_state, dicke_dim, haar_random_su, splitting_isometry

from test_symmetric import apply_tensor_power, dicke_embedding


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def tol(key: str, literal: float) -> float:
    """A criterion's literal threshold, asserted equal to verify's tolerance."""
    assert verify.TOLERANCES[key] == literal, (key, literal)
    return literal


@pytest.fixture(scope="module")
def conversion_sweep():
    """Criterion 1 workload, shared with criterion 2: 100 seeded trials per
    dimension, each building a fresh conversion and checking every support
    size."""
    master = np.random.SeedSequence(2024)
    return [verify.measure_conversions(dim, 100, np.random.default_rng(master.spawn(1)[0]))
            for dim in range(2, 9)]


def test_criterion_1_rank_equality(conversion_sweep):
    trials = sum(m[0] for m in conversion_sweep)
    matches = sum(m[1] for m in conversion_sweep)
    assert report("1 rank-equality", matches == trials,
                  f"{matches}/{trials} rank matches over D=2..8")


def test_criterion_2_gram_splitting_and_unitarity(conversion_sweep):
    split = max(m[2] for m in conversion_sweep)
    unitarity = max(m[3] for m in conversion_sweep)
    ok = split <= tol("gram_splitting", 1e-10) and unitarity <= tol("unitarity", 1e-10)
    assert report("2 gram-splitting-identity", ok,
                  f"split residual {split:.2e}, unitarity residual {unitarity:.2e}")


def test_criterion_3_mixed_faithfulness():
    rng = np.random.default_rng(31)
    per_dim = [verify.measure_mixed_faithfulness(dim, rng) for dim in (2, 3, 4, 5)]
    worst_neg = max(m[0] for m in per_dim)
    worst_product = max(m[1] for m in per_dim)
    min_entropy = min(m[2] for m in per_dim)
    ok = (worst_neg <= tol("mixture_negativity", 1e-10)
          and worst_product <= tol("mixture_product", 1e-10)
          and min_entropy > tol("superposition_entropy", 1e-8))
    assert report("3 mixed-faithfulness", ok,
                  f"negativity {worst_neg:.2e}, product residual {worst_product:.2e}, "
                  f"min entropy {min_entropy:.2e}")


def test_criterion_4_entanglement_surface():
    worst_max, worst_mirror = verify.measure_ebit_maxima(64)
    _, _, off_input = verify.measure_cnot_nonequivalence(2 * math.pi / 3)
    ok = (worst_max <= tol("one_ebit_maxima", 1e-6)
          and worst_mirror <= tol("mirror_symmetry", 1e-9)
          and off_input < 1.0 - tol("other_input_gap", 1e-3))
    assert report("4 entanglement-surface", ok,
                  f"|max-1| {worst_max:.2e}, mirror dev {worst_mirror:.2e}, "
                  f"other input {off_input:.4f} ebits")


def test_criterion_5_cnot_nonequivalence():
    tilted_count, control_count, _ = verify.measure_cnot_nonequivalence(2 * math.pi / 3)
    ok = tilted_count == 1 and control_count >= 2
    assert report("5 cnot-nonequivalence", ok,
                  f"tilted maxima {tilted_count} (want exactly 1), "
                  f"orthogonal control {control_count} (want >= 2)")


def test_criterion_6_overlap_splitting():
    worst = verify.measure_overlap_splitting(100, 8, np.random.default_rng(6))
    ok = worst <= tol("overlap_splitting", 1e-12)
    assert report("6 overlap-splitting", ok, f"worst residual {worst:.2e} over 100 Haar pairs")


def test_criterion_7_splitting_isometry_action():
    rng = np.random.default_rng(7)
    k, n, n_x, n_y = 3, 4, 2, 2
    worst_fid = verify.measure_isometry_action(k, n, n_x, 50, rng)
    u, v = haar_random_su(k, rng), haar_random_su(k, rng)
    amps = coherent_state(u, n).amplitudes + coherent_state(v, n).amplitudes
    psi = SymmetricState.normalized(k, n, amps)
    out = StateVector(splitting_isometry(k, n, n_x, n_y).matrix @ psi.amplitudes)
    rank = schmidt_decompose(out, dicke_dim(k, n_x), dicke_dim(k, n_y)).rank
    ok = worst_fid <= tol("isometry_fidelity", 1e-10) and rank == 2
    assert report("7 splitting-isometry", ok,
                  f"worst coherent fidelity defect {worst_fid:.2e}, "
                  f"superposition Schmidt rank {rank}")


def test_criterion_8_mode_splitting_protocol():
    rng = np.random.default_rng(8)

    # (a) analytic sector probabilities, K=2, N <= 6
    r = complex(0.6, 0.3)
    worst_sector = verify.measure_sector_probabilities(2, range(1, 7), r, math.sqrt(1.0 - abs(r) ** 2), rng)
    ok_a = worst_sector <= tol("sector_probabilities", 1e-10)

    # (b) empirical success frequency over 10^4 single-shot runs
    runs = 10_000
    hits, p = verify.measure_success_frequency(runs, 88, rng)
    sigma = math.sqrt(p * (1.0 - p) / runs)
    ok_b = abs(hits / runs - p) <= tol("success_rate_sigmas", 3.0) * sigma

    # (c) post-selected fidelity for superposition inputs, repeat until success
    successes, min_fid = verify.measure_postselected_fidelity(100, 0.6, 0.8, rng)
    ok_c = successes == 100 and min_fid >= 1.0 - tol("postselected_fidelity", 1e-9)

    # (d) sector-block simulation vs first-quantized tensor-power oracle
    worst_oracle = 0.0
    r = complex(0.48, 0.36)
    t = complex(0.8)
    single = np.block([[r * np.eye(2), np.conj(t) * np.eye(2)],
                       [t * np.eye(2), -np.conj(r) * np.eye(2)]])
    for n in range(1, 7):
        dim = dicke_dim(2, n)
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = SymmetricState.normalized(2, n, raw)
        sim = apply_tunneling(inject(state), r, t).to_flat()
        e = dicke_embedding(4, n)
        oracle = e.conj().T @ apply_tensor_power(single, e @ inject(state).to_flat(), n)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(sim - oracle))))
    ok_d = worst_oracle <= 1e-10

    ok = ok_a and ok_b and ok_c and ok_d
    assert report("8 mode-splitting", ok,
                  f"sector dev {worst_sector:.2e}; empirical {hits}/{runs} vs p={p}; "
                  f"min fidelity {min_fid!r}; oracle dev {worst_oracle:.2e}")


def test_criterion_9_witness_chain():
    worst_chain, detected_value, classical_min = verify.measure_witness_chain(20, np.random.default_rng(9))
    ok = (worst_chain <= tol("witness_chain", 1e-10)
          and detected_value < tol("witness_detection", -0.01)
          and classical_min >= tol("witness_classical_floor", -1e-10))
    assert report("9 witness-chain", ok,
                  f"chain residual {worst_chain:.2e}, detected value {detected_value:.4f}, "
                  f"classical min {classical_min:.2e}")


def test_criterion_10_beamsplitter_identification():
    point_err, worst_sum, worst_split = verify.measure_beamsplitter(100, np.random.default_rng(10))
    ok = (point_err <= tol("beamsplitter_point", 1e-12)
          and worst_sum == 0.0
          and worst_split <= tol("beamsplitter_identity", 1e-12))
    assert report("10 beamsplitter-identification", ok,
                  f"worked point error {point_err:.2e}, x+y-1 {worst_sum:.2e}, "
                  f"splitting residual {worst_split:.2e}")
