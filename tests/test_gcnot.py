import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nc2ent.conversion import INDEPENDENCE_TOL, build_conversion, make_split
from nc2ent.gcnot import (
    MU_FLOOR,
    GcnotParams,
    beamsplitter_params,
    cnot_equivalence_probe,
    coherent_overlap,
    epsilon_to_mu,
    gcnot_classical_pair,
    maximal_input_count,
    mu_to_epsilon,
    optimal_epsilon,
    output_entanglement,
    sweep_surface,
)
from nc2ent.linalg import StateVector, basis_state, entanglement_entropy, schmidt_decompose


def pipeline_ebits(params, state):
    """The general conversion pipeline on the pair, boundary splits allowed:
    the reference that the closed form in output_entanglement is checked against."""
    cs = gcnot_classical_pair(params.theta)
    conv = build_conversion(cs, make_split(cs, params.epsilon, boundary_ok=True))
    return entanglement_entropy(schmidt_decompose(conv.convert(state), 2, 2))


# --------------------------------------------------------------------- params

def test_params_feasibility_bound():
    GcnotParams(theta=math.pi / 3, epsilon=1.0)  # (1+1)*0.5 = 1, boundary ok
    with pytest.raises(ValueError):
        GcnotParams(theta=math.pi / 3, epsilon=1.001)
    with pytest.raises(ValueError):
        GcnotParams(theta=1.0, epsilon=-0.1)


def test_nan_epsilon_rejected():
    with pytest.raises(ValueError):
        GcnotParams(theta=math.pi / 2, epsilon=float("nan"))
    with pytest.raises(ValueError):
        beamsplitter_params(0.5, float("nan"))


def test_mu_epsilon_round_trip():
    for eps in (0.0, 0.4, 3.0, 1e5):
        assert abs(mu_to_epsilon(epsilon_to_mu(eps)) - eps) < 1e-9 * max(eps, 1.0)


# ------------------------------------------------------- gcnot_classical_pair

def test_classical_pair_at_right_angle():
    cs = gcnot_classical_pair(math.pi / 2)
    expected = 1.0 / math.sqrt(2.0)
    assert np.allclose(cs.states[0].amplitudes, [expected, expected])
    assert np.allclose(cs.states[1].amplitudes, [expected, -expected])
    assert abs(cs.gram.entries[0, 1]) < 1e-15


def test_classical_pair_overlap_is_cos_theta():
    cs = gcnot_classical_pair(math.pi / 3)
    assert abs(cs.gram.entries[0, 1] - 0.5) < 1e-14


def test_classical_pair_degenerate_endpoints_rejected():
    for theta in (0.0, math.pi, 1e-9):
        with pytest.raises(ValueError):
            gcnot_classical_pair(theta)


# --------------------------------------------------------- output_entanglement

def test_classical_inputs_give_zero_entanglement():
    rng = np.random.default_rng(40)
    for _ in range(10):
        theta = rng.uniform(0.2, math.pi - 0.2)
        eps = rng.uniform(0.0, 1.0 / abs(math.cos(theta)) - 1.0)
        cs = gcnot_classical_pair(theta)
        params = GcnotParams(theta=theta, epsilon=eps)
        for c in cs.states:
            assert output_entanglement(params, c) < 1e-10


def test_large_epsilon_limit_reaches_one_ebit():
    params = GcnotParams(theta=math.pi / 2, epsilon=mu_to_epsilon(1e-6))
    ent = pipeline_ebits(params, basis_state(2, 0))
    assert ent > 1.0 - 1e-6
    assert abs(output_entanglement(params, basis_state(2, 0)) - ent) < 1e-9


def test_fine_grid_maximum_is_one_ebit():
    theta = 2 * math.pi / 3
    best = max(
        output_entanglement(GcnotParams(theta=theta, epsilon=mu_to_epsilon(mu)), basis_state(2, 0))
        for mu in np.linspace(abs(math.cos(theta)), 1.0, 2000)
    )
    assert abs(best - 1.0) < 1e-6


def test_routes_agree_on_grid():
    rng = np.random.default_rng(41)
    thetas = np.linspace(0.15, math.pi - 0.15, 64)
    states = [basis_state(2, 0), basis_state(2, 1),
              StateVector.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))]
    for i, theta in enumerate(thetas):
        for mu in np.linspace(max(abs(math.cos(theta)), 0.05), 1.0, 64):
            params = GcnotParams(theta=float(theta), epsilon=mu_to_epsilon(float(mu)))
            state = states[i % len(states)]
            via_pipeline = pipeline_ebits(params, state)
            via_closed = output_entanglement(params, state)
            assert abs(via_pipeline - via_closed) < 1e-9


def test_gram_preserved_under_conversion():
    # the factor overlaps multiply back to cos(theta) for all feasible params
    for theta in (0.5, math.pi / 2, 2.4):
        cos = abs(math.cos(theta))
        eps_boundary = 1.0 / cos - 1.0 if cos > 1e-12 else 5.0
        for eps in (0.0, 0.5 * eps_boundary, eps_boundary):
            cs = gcnot_classical_pair(theta)
            split = make_split(cs, eps, boundary_ok=True)
            product = split.gram_d.entries[0, 1] * split.gram_e.entries[0, 1]
            assert abs(product - math.cos(theta)) < 1e-12


# ------------------------------------------------------------ optimal_epsilon

def test_optimal_epsilon_reaches_one_ebit_for_input_zero():
    for theta in np.linspace(math.pi / 2, math.pi - 0.05, 7):
        _, ebits = optimal_epsilon(float(theta), basis_state(2, 0))
        assert abs(ebits - 1.0) < 1e-6


def test_optimal_epsilon_mirrored_for_input_one():
    for theta in np.linspace(0.05, math.pi / 2, 7):
        _, ebits = optimal_epsilon(float(theta), basis_state(2, 1))
        assert abs(ebits - 1.0) < 1e-6


def test_optimal_epsilon_known_location():
    # analytic optimum: mu = sqrt(-cos theta) for input |0> past pi/2
    theta = 2 * math.pi / 3
    eps_opt, ebits = optimal_epsilon(theta, basis_state(2, 0))
    assert abs(ebits - 1.0) < 1e-6
    assert abs(epsilon_to_mu(eps_opt) - math.sqrt(0.5)) < 1e-5


def test_other_input_not_maximal():
    theta = 2 * math.pi / 3
    eps_opt, _ = optimal_epsilon(theta, basis_state(2, 0))
    params = GcnotParams(theta=theta, epsilon=eps_opt)
    ent = pipeline_ebits(params, basis_state(2, 1))
    assert ent < 1.0 - 1e-3
    assert abs(output_entanglement(params, basis_state(2, 1)) - ent) < 1e-9


def test_mirror_profile_matches_reflection():
    for theta in np.linspace(math.pi / 2 + 0.05, math.pi - 0.05, 5):
        _, e0 = optimal_epsilon(float(theta), basis_state(2, 0))
        _, e1 = optimal_epsilon(math.pi - float(theta), basis_state(2, 1))
        assert abs(e0 - e1) < 1e-9


EDGE = 1e-2
NEAR_ZERO = st.one_of(
    st.floats(min_value=0.0, max_value=EDGE, exclude_min=True),
    st.floats(min_value=-12.0, max_value=math.log10(EDGE)).map(lambda e: 10.0 ** e),
)
THETAS = st.one_of(
    st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
    NEAR_ZERO,
    NEAR_ZERO.map(lambda d: math.pi - d),
    st.floats(min_value=-EDGE, max_value=EDGE).map(lambda d: math.pi / 2 + d),
)
COMPONENTS = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(theta=THETAS, parts=st.tuples(COMPONENTS, COMPONENTS, COMPONENTS, COMPONENTS))
def test_closed_form_optimum_properties(theta, parts):
    amps = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    assume(np.linalg.norm(amps) > 1e-12)
    state = StateVector.normalized(amps)
    if not (0.0 < theta < math.pi and 1.0 - abs(math.cos(theta)) > INDEPENDENCE_TOL):
        # outside (0, pi), or a pair below the independence floor
        with pytest.raises(ValueError):
            optimal_epsilon(theta, state)
        return
    eps_opt, ebits = optimal_epsilon(theta, state)
    mu_opt = epsilon_to_mu(eps_opt)
    floor = max(abs(math.cos(theta)), MU_FLOOR)
    assert floor <= mu_opt <= 1.0
    rows, _ = sweep_surface([theta], np.linspace(floor, 1.0, 2001), state)
    assert ebits >= max(r.ebits for r in rows) - 1e-12
    try:
        via_pipeline = pipeline_ebits(GcnotParams(theta=theta, epsilon=eps_opt), state)
    except ValueError:
        # the conversion exists only above the independence floor of the pair
        assert 1.0 - abs(math.cos(theta)) <= 2.0 * INDEPENDENCE_TOL
    else:
        assert abs(via_pipeline - ebits) < 1e-9


def test_optimum_is_the_best_float_near_the_independence_floor():
    # 1 - mu* is about 5e-11 at the floor, where one ulp of mu moves the
    # entropy by up to ~1e-12, and the grid point (1 + |cos theta|)/2 lies
    # within roundoff of the exact optimum; the best float must still win
    state = StateVector.normalized([0.6, 0.8j])
    near = np.geomspace(1.42e-5, 1e-4, 400)
    for theta in np.concatenate([near, math.pi - near]):
        _, ebits = optimal_epsilon(float(theta), state)
        floor = abs(math.cos(theta))
        rows, _ = sweep_surface([float(theta)], np.linspace(floor, 1.0, 257), state)
        assert ebits >= max(r.ebits for r in rows) - 1e-14


def test_optimum_at_right_angle_is_finite_and_one_ebit():
    eps_opt, ebits = optimal_epsilon(math.pi / 2, basis_state(2, 0))
    assert math.isfinite(eps_opt)
    assert abs(ebits - 1.0) < 1e-6


def test_classical_input_gives_zero_at_optimum():
    # each classical state expands to w0 w1 = 0, up to roundoff
    for theta in (1e-3, 0.3, math.pi / 2, 2.5, math.pi - 1e-3):
        for c in gcnot_classical_pair(theta).states:
            eps_opt, ebits = optimal_epsilon(theta, c)
            assert math.isfinite(eps_opt)
            assert 0.0 <= ebits < 1e-15


def test_theta_outside_open_interval_raises():
    for theta in (0.0, math.pi, -0.5, 4.0, float("nan"), 1e-9, math.pi - 1e-6):
        with pytest.raises(ValueError):
            optimal_epsilon(theta, basis_state(2, 0))
        with pytest.raises(ValueError):
            maximal_input_count(theta, 0.0)
        with pytest.raises(ValueError):
            sweep_surface([theta], [1.0], basis_state(2, 0))


def test_optimal_epsilon_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        optimal_epsilon(2.0, basis_state(3, 0))


# -------------------------------------------------------------- sweep_surface

def test_sweep_flags_infeasible_cells():
    rows, skipped = sweep_surface([2 * math.pi / 3], [0.2, 0.6, 1.0], basis_state(2, 0))
    assert [(r.theta, r.mu) for r in rows] == [(2 * math.pi / 3, 0.6), (2 * math.pi / 3, 1.0)]
    assert skipped == [(2 * math.pi / 3, 0.2)]


def test_sweep_skips_a_subnormal_mu_without_a_warning():
    # 1/mu overflows to eps = inf, an infeasible split; the suite turns any warning into an error
    rows, skipped = sweep_surface([2.0], [5e-324, 1.0], basis_state(2, 0))
    assert skipped == [(2.0, 5e-324)] and [row.mu for row in rows] == [1.0]


def test_sweep_row_maxima_reach_one_ebit():
    # a fixed mu grid resolves the optimum only while the feasible band
    # [|cos theta|, 1] holds several grid points; the adaptive search in
    # optimal_epsilon covers the narrow bands near theta = pi
    mus = np.linspace(0.01, 1.0, 400)
    for theta in np.linspace(math.pi / 2, 2.4, 5):
        rows, _ = sweep_surface([float(theta)], mus, basis_state(2, 0))
        assert max(r.ebits for r in rows) > 1.0 - 1e-3


def test_sweep_surface_is_continuous():
    # smoothness probe on the interior of the feasible region: the entropy
    # has boundary layers where either factor family degenerates (mu -> 1 is
    # the eps = 0 seam; |cos theta|/mu -> 1 is the feasibility seam), so the
    # fixed grid resolves gradients only at a margin from those seams
    thetas = np.linspace(0.15, math.pi - 0.15, 256)
    mus = np.linspace(0.01, 1.0, 256)
    rows, _ = sweep_surface(thetas, mus, basis_state(2, 0))
    grid = {(r.theta, r.mu): r.ebits for r in rows}
    theta_list = sorted({r.theta for r in rows})
    mu_list = sorted({r.mu for r in rows})

    def interior(theta, mu):
        return 0.2 <= mu <= 0.98 and abs(math.cos(theta)) / mu <= 0.8

    pairs = 0
    for theta in theta_list:
        for m1, m2 in zip(mu_list, mu_list[1:]):
            if interior(theta, m1) and interior(theta, m2):
                assert abs(grid[(theta, m2)] - grid[(theta, m1)]) < 0.1
                pairs += 1
    for mu in mu_list:
        for t1, t2 in zip(theta_list, theta_list[1:]):
            if interior(t1, mu) and interior(t2, mu) and (t1, mu) in grid and (t2, mu) in grid:
                assert abs(grid[(t2, mu)] - grid[(t1, mu)]) < 0.1
                pairs += 1
    assert pairs > 20000  # the probe actually covers the bulk of the surface


# ------------------------------------------------------ cnot_equivalence_probe

def test_probe_finds_unique_maximal_direction():
    report = cnot_equivalence_probe(2 * math.pi / 3)
    assert report.maximal_count == 1
    assert report.entropy_zero > 1.0 - 1e-6
    assert report.entropy_one < 1.0 - 1e-3


def test_probe_mirror_case():
    report = cnot_equivalence_probe(math.pi / 3)
    assert report.maximal_count == 1
    assert report.entropy_one > 1.0 - 1e-6
    assert report.entropy_zero < 1.0 - 1e-3


def test_probe_rejects_right_angle():
    with pytest.raises(ValueError):
        cnot_equivalence_probe(math.pi / 2)


def test_cnot_control_has_two_orthogonal_maxima():
    count, hits, _ = maximal_input_count(math.pi / 2, mu_to_epsilon(1e-6))
    assert count >= 2
    assert any(abs(t) < 1e-12 for t in hits)            # |0>
    assert any(abs(t - math.pi / 2) < 1e-12 for t in hits)  # |1>


# ------------------------------------------------------------ coherent overlap

def test_coherent_overlap_equal_amplitudes():
    assert abs(coherent_overlap(1.3 + 0.2j, 1.3 + 0.2j) - 1.0) < 1e-14


def test_coherent_overlap_frozen_value():
    # exp(-(0 + 2 - 0)/2) = exp(-1)
    assert abs(coherent_overlap(0.0, math.sqrt(2.0)) - math.exp(-1.0)) < 1e-14


def test_coherent_overlap_bounded_by_one():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        assert abs(coherent_overlap(a, b)) <= 1.0 + 1e-12


# --------------------------------------------------------- beamsplitter_params

def test_beamsplitter_epsilon_zero():
    x, y = beamsplitter_params(0.3, 0.0)
    assert (x, y) == (1.0, 0.0)


def test_beamsplitter_balanced_point():
    x, y = beamsplitter_params(math.exp(-1.0), math.exp(0.5) - 1.0)
    assert abs(x - 0.5) < 1e-12 and abs(y - 0.5) < 1e-12


def test_beamsplitter_splitting_identity():
    rng = np.random.default_rng(43)
    for _ in range(100):
        overlap = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 1.0 / overlap - 1.0)
        x, y = beamsplitter_params(overlap, eps)
        assert x + y == 1.0
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
        assert abs(overlap**x * overlap**y - overlap) < 1e-12
        # the induced factor overlaps match the conversion factors
        assert abs(overlap**y - 1.0 / (1.0 + eps)) < 1e-12
        assert abs(overlap**x - (1.0 + eps) * overlap) < 1e-12


def test_beamsplitter_rejects_violated_constraint():
    with pytest.raises(ValueError):
        beamsplitter_params(0.9, 1.0)  # 1/(1+eps) = 0.5 < 0.9
    with pytest.raises(ValueError):
        beamsplitter_params(1.0, 0.1)
