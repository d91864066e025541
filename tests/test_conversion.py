import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nc2ent import conversion, linalg, symmetric
from nc2ent.conversion import (
    ClassicalSet,
    build_conversion,
    classical_rank,
    default_epsilon,
    epsilon_max,
    make_split,
    random_classical_set,
    random_superposition,
    uniform_overlap_gram,
)
from nc2ent.gcnot import gcnot_classical_pair
from nc2ent.linalg import (
    StateVector,
    basis_state,
    entanglement_entropy,
    factor_gram,
    negativity,
    positive_frame,
    random_state,
    schmidt_decompose,
)
from nc2ent.verify import measure_conversions


def orthonormal_set(dim: int) -> ClassicalSet:
    return ClassicalSet(states=tuple(basis_state(dim, k) for k in range(dim)))


# --------------------------------------------------------------- ClassicalSet

def test_classical_set_rejects_dependent_states():
    s0 = basis_state(2, 0)
    with pytest.raises(ValueError):
        ClassicalSet(states=(s0, s0))


def test_classical_set_requires_square_family():
    with pytest.raises(ValueError):
        ClassicalSet(states=(basis_state(3, 0), basis_state(3, 1)))


# -------------------------------------------------------- uniform_overlap_gram

def test_uniform_gram_zero_is_identity():
    assert np.allclose(uniform_overlap_gram(0.0, 3).entries, np.eye(3))


def test_uniform_gram_one_is_all_ones_rank_one():
    g = uniform_overlap_gram(1.0, 3)
    assert np.allclose(g.entries, np.ones((3, 3)))
    assert np.linalg.matrix_rank(g.entries, tol=1e-10) == 1


def test_uniform_gram_eigenvalues():
    # oracle: eigenvalues are 1 - lam (D-1 times) and 1 + (D-1) lam
    w = np.linalg.eigvalsh(uniform_overlap_gram(0.5, 4).entries)
    assert np.allclose(np.sort(w), [0.5, 0.5, 0.5, 2.5])


def test_uniform_gram_rejects_out_of_range():
    for lam in (-0.1, 1.1):
        with pytest.raises(ValueError):
            uniform_overlap_gram(lam, 3)


# ---------------------------------------------------------------- epsilon_max

def test_epsilon_max_tilted_pair_formula():
    # oracle: 2x2 positive-definiteness gives eps_max = 1/|cos theta| - 1
    for theta in (0.4, math.pi / 3, 2.2):
        cs = gcnot_classical_pair(theta)
        expected = 1.0 / abs(math.cos(theta)) - 1.0
        assert abs(epsilon_max(cs) - expected) < 1e-8 * max(expected, 1.0)


def test_epsilon_max_pi_over_three_is_one():
    assert abs(epsilon_max(gcnot_classical_pair(math.pi / 3)) - 1.0) < 1e-9


def test_epsilon_max_orthogonal_is_infinite():
    assert math.isinf(epsilon_max(orthonormal_set(3)))


def test_epsilon_max_is_the_bound_check_split_names():
    # lambda_min = 1 - 2e-8 puts the bound near 5e7, past EPS_CAP: it is still finite
    cs = gcnot_classical_pair(math.pi / 2 - 2e-8)
    emax = epsilon_max(cs)
    assert 1e6 < emax < math.inf
    assert default_epsilon(cs) == 1.0
    conv = build_conversion(cs, make_split(cs, 0.999 * emax))
    assert schmidt_decompose(conv.convert(random_state(2, np.random.default_rng(3))), 2, 2).rank == 2
    with pytest.raises(ValueError, match=f"feasible range is eps < {emax:.12g}"):
        make_split(cs, 1.001 * emax)


def uniform_overlap_set(lam_min: float, dim: int) -> ClassicalSet:
    """Classical set whose Gram has minimum eigenvalue lam_min."""
    return ClassicalSet(states=tuple(factor_gram(uniform_overlap_gram(1.0 - lam_min, dim))))


@pytest.mark.parametrize("dim, lam_min", [(3, 1.1e-10), (3, 1.9e-10), (2, 1.5e-10), (4, 1.5e-10)])
def test_default_epsilon_feasible_near_independence_floor(dim, lam_min):
    cs = uniform_overlap_set(lam_min, dim)
    split = make_split(cs, default_epsilon(cs))
    product = split.gram_d.entries * split.gram_e.entries
    assert np.max(np.abs(product - cs.gram.entries)) < 1e-10


@pytest.mark.parametrize("lam_min", [1e-7, 5e-8])
def test_make_split_feasible_just_below_epsilon_max(lam_min):
    # 0.999 eps_max leaves about 1e-3 lam_min above the floor, so the floor
    # and epsilon_max must agree to better than that
    cs = uniform_overlap_set(lam_min, 3)
    make_split(cs, 0.999 * epsilon_max(cs))


# ------------------------------------------------------------------ make_split

def test_make_split_tilted_pair_values():
    # (1+eps) cos(theta) = 0.75 and 1/(1+eps) = 2/3 at theta=pi/3, eps=0.5
    cs = gcnot_classical_pair(math.pi / 3)
    split = make_split(cs, 0.5)
    assert abs(split.gram_e.entries[0, 1] - 0.75) < 1e-12
    assert abs(split.gram_d.entries[0, 1] - 2.0 / 3.0) < 1e-12
    assert abs(split.gram_d.entries[0, 1] * split.gram_e.entries[0, 1] - 0.5) < 1e-12


def test_make_split_orthogonal_states():
    cs = orthonormal_set(3)
    split = make_split(cs, 2.0)
    assert np.allclose(split.gram_e.entries, np.eye(3))
    assert np.allclose(split.gram_d.entries, uniform_overlap_gram(1.0 / 3.0, 3).entries)


def test_make_split_product_reproduces_classical_gram():
    rng = np.random.default_rng(21)
    for dim in (2, 4, 6):
        cs = random_classical_set(dim, rng)
        split = make_split(cs, default_epsilon(cs))
        product = split.gram_d.entries * split.gram_e.entries
        assert np.max(np.abs(product - cs.gram.entries)) < 1e-10


def test_make_split_near_boundary_still_valid():
    cs = gcnot_classical_pair(2 * math.pi / 3)
    emax = epsilon_max(cs)
    split = make_split(cs, emax - 1e-6)
    assert split.gram_e.min_eigenvalue() > 0.0
    product = split.gram_d.entries * split.gram_e.entries
    assert np.max(np.abs(product - cs.gram.entries)) < 1e-10


def test_make_split_feasibility_matches_epsilon_max():
    rng = np.random.default_rng(22)
    for _ in range(5):
        cs = random_classical_set(3, rng)
        emax = epsilon_max(cs)
        make_split(cs, 0.9 * emax)  # feasible
        with pytest.raises(ValueError):
            make_split(cs, 1.1 * emax)


def test_make_split_rejects_nonpositive_epsilon():
    cs = orthonormal_set(2)
    with pytest.raises(ValueError):
        make_split(cs, 0.0)
    make_split(cs, 0.0, boundary_ok=True)  # probing path stays available


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 16), near_floor=st.booleans(), log_lam=st.floats(math.log10(1.1e-10), -8.0),
       log_share=st.floats(-12.0, 0.0), at_zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_make_split_factors_reproduce_the_classical_gram(dim, near_floor, log_lam, log_share,
                                                         at_zero, seed):
    if near_floor:
        cs = uniform_overlap_set(10.0**log_lam, dim)
    else:
        cs = random_classical_set(dim, np.random.default_rng(seed))
    top = min(0.999 * epsilon_max(cs), 1e3)
    split = make_split(cs, 0.0, boundary_ok=True) if at_zero else make_split(cs, top * 10.0**log_share)
    error = np.abs(split.gram_d.entries * split.gram_e.entries - cs.gram.entries)
    off = ~np.eye(dim, dtype=bool)
    assert np.all(error[off] <= 4 * 2.0**-52 * np.abs(cs.gram.entries[off]))
    assert np.max(np.diag(error)) <= 3e-12


# ------------------------------------------------------------ build_conversion

def test_conversion_maps_classical_to_factor_products():
    rng = np.random.default_rng(23)
    cs = random_classical_set(3, rng)
    split = make_split(cs, default_epsilon(cs))
    conv = build_conversion(cs, split)
    for c, d, e in zip(cs.states, split.d_states, split.e_states):
        out = conv.convert(c)
        assert np.max(np.abs(out.amplitudes - d.tensor(e).amplitudes)) < 1e-8


def test_build_conversion_makes_no_product_state_one_at_a_time(monkeypatch):
    calls = []
    tensor = StateVector.tensor

    def counting(self, other):
        calls.append(self.dim)
        return tensor(self, other)

    cs = random_classical_set(8, np.random.default_rng(23))
    split = make_split(cs, default_epsilon(cs))
    monkeypatch.setattr(StateVector, "tensor", counting)
    conv = build_conversion(cs, split)
    assert calls == []
    # reference: the product family built one Kronecker product at a time, the same arithmetic
    a = np.column_stack([c.amplitudes for c in cs.states])
    b = np.column_stack([np.kron(d.amplitudes, e.amplitudes) for d, e in zip(split.d_states, split.e_states)])
    assert np.array_equal(conv.isometry, positive_frame(b) @ positive_frame(a).conj().T)


def test_conversion_unitarity():
    rng = np.random.default_rng(24)
    for dim in (2, 3, 5):
        cs = random_classical_set(dim, rng)
        conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
        u = conv.unitary
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim * dim))) < 1e-10


def test_completed_unitary_agrees_with_isometry():
    rng = np.random.default_rng(33)
    for dim in (2, 3, 5, 16):
        cs = random_classical_set(dim, rng)
        conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
        for _ in range(5):
            psi = random_state(dim, rng)
            via_unitary = conv.unitary @ np.kron(psi.amplitudes, conv.reference.amplitudes)
            assert np.max(np.abs(via_unitary - conv.convert(psi).amplitudes)) < 1e-10


@pytest.mark.parametrize("dim, lam_min", [(4, 1e-5), (8, 1e-5), (4, 1e-7), (8, 1e-7)])
def test_conversion_of_ill_conditioned_set(dim, lam_min):
    # an interpolating V = B A^-1 amplifies Gram roundoff by 1/lam_min and fails here
    cs = uniform_overlap_set(lam_min, dim)
    split = make_split(cs, default_epsilon(cs))
    conv = build_conversion(cs, split)
    u = conv.unitary
    assert np.max(np.abs(u @ u.conj().T - np.eye(dim * dim))) < 1e-10
    for c, d, e in zip(cs.states, split.d_states, split.e_states):
        assert np.max(np.abs(conv.convert(c).amplitudes - d.tensor(e).amplitudes)) < 1e-10
        via_unitary = u @ np.kron(c.amplitudes, conv.reference.amplitudes)
        assert np.max(np.abs(via_unitary - d.tensor(e).amplitudes)) < 1e-10
    psi = random_state(dim, np.random.default_rng(34))
    assert abs(np.linalg.norm(conv.convert(psi).amplitudes) - 1.0) < 1e-12


def test_conversion_large_epsilon_approaches_controlled_displacement():
    # with orthogonal classical states and large eps the second-factor family
    # becomes orthogonal, so |k> (x) |ref> maps onto |k>-correlated products
    cs = orthonormal_set(2)
    split = make_split(cs, 1e5)
    conv = build_conversion(cs, split)
    assert abs(split.e_states[0].overlap(split.e_states[1])) < 1e-12
    assert abs(split.d_states[0].overlap(split.d_states[1]) - 1.0 / (1.0 + 1e5)) < 1e-12
    plus = StateVector.normalized([1.0, 1.0])
    ent = entanglement_entropy(schmidt_decompose(conv.convert(plus), 2, 2))
    assert ent > 1.0 - 1e-4


def test_orthonormal_set_at_large_epsilon_gives_the_relative_entropy_of_coherence():
    # on an orthonormal set mu -> 0 is the coherence limit: the output entropy
    # tends to H(|<c_i|psi>|^2) (Streltsov et al., PRL 115, 020403 (2015))
    rng = np.random.default_rng(5)
    for dim in range(2, 9):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            cs = ClassicalSet(states=tuple(StateVector(col) for col in q.T))
            for eps in (1e5, 1e6):
                conv = build_conversion(cs, make_split(cs, eps))
            psi = random_state(dim, rng)
            p = np.abs(q.conj().T @ psi.amplitudes) ** 2
            out = entanglement_entropy(schmidt_decompose(conv.convert(psi), dim, dim))
            assert abs(out + float(np.sum(p * np.log2(p)))) <= 1e-10, (dim, out)


def test_conversion_default_reference_is_first_classical_state():
    rng = np.random.default_rng(25)
    cs = random_classical_set(2, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    assert np.allclose(conv.reference.amplitudes, cs.states[0].amplitudes)


def test_dense_working_sets_share_one_cap_and_are_refused_before_allocation(monkeypatch):
    # the cap sits just below five 64 x 8 arrays: D = 8 is refused, D = 7 is built;
    # the unitary completion (five D^2 x D^2 arrays) is refused from D = 5 on
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 5 * 8**3 - 1)
    sets = {dim: orthonormal_set(dim) for dim in (4, 5, 7, 8)}
    conversions = {dim: build_conversion(cs, make_split(cs, 1.0)) for dim, cs in sets.items() if dim != 8}
    assert conversions[4].unitary.shape == (16, 16)
    with pytest.raises(ValueError, match="unitary completion on C\\^25 .* of 25 x 125 would take"):
        conversions[5].unitary
    monkeypatch.setattr(conversion, "positive_frame", lambda *args: pytest.fail("positive_frame was called"))
    with pytest.raises(ValueError, match="conversion working set at D=8 .* of 64 x 40 would take"):
        build_conversion(sets[8], make_split(sets[8], 1.0))
    with pytest.raises(ValueError, match="unitary completion on C\\^25"):
        linalg.synthesize_unitary(list(sets[5].states), [basis_state(25, k) for k in range(5)])
    with pytest.raises(ValueError, match="splitting isometry"):
        symmetric.splitting_isometry(3, 6, 3, 3)


# -------------------------------------------------------------- classical_rank

def test_classical_rank_of_classical_state_is_one():
    rng = np.random.default_rng(27)
    cs = random_classical_set(4, rng)
    for c in cs.states:
        assert classical_rank(c, cs) == 1


def test_classical_rank_of_computational_states_in_tilted_pair():
    cs = gcnot_classical_pair(1.0)
    assert classical_rank(basis_state(2, 0), cs) == 2
    assert classical_rank(basis_state(2, 1), cs) == 2


def test_classical_rank_recovers_support_size():
    rng = np.random.default_rng(28)
    for dim in (3, 5, 8):
        cs = random_classical_set(dim, rng)
        for support in range(1, dim + 1):
            psi, rank = random_superposition(cs, support, rng)
            assert rank == support
            assert classical_rank(psi, cs) == support


# ------------------------------------------------------------ convert_density

def test_convert_density_classical_mixture_stays_separable():
    rng = np.random.default_rng(29)
    cs = random_classical_set(3, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    weights = np.array([0.5, 0.3, 0.2])
    rho = sum(w * c.projector() for w, c in zip(weights, cs.states))
    sigma = conv.convert_density(rho)
    assert negativity(sigma, 3, 3) < 1e-10


def test_convert_density_three_state_mixture_separable_at_d16():
    rng = np.random.default_rng(33)
    cs = random_classical_set(16, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    rho = sum(w * cs.states[k].projector() for w, k in zip((0.5, 0.3, 0.2), (0, 7, 15)))
    assert negativity(conv.convert_density(rho), 16, 16) <= 1e-10


def test_classical_mixture_is_certified_ppt_without_a_spectrum(monkeypatch):
    rng = np.random.default_rng(34)
    cs = random_classical_set(16, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    rho = sum(w * cs.states[k].projector() for w, k in zip((0.4, 0.3, 0.2, 0.1), (0, 5, 9, 15)))
    sigma = conv.convert_density(rho)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert negativity(sigma, 16, 16) == 0.0
    assert calls == []


def test_convert_density_matches_pure_conversion():
    rng = np.random.default_rng(30)
    cs = random_classical_set(2, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    psi = random_state(2, rng)
    direct = conv.convert(psi).projector()
    via_density = conv.convert_density(psi.projector())
    assert np.max(np.abs(direct - via_density)) < 1e-10


@pytest.mark.parametrize("rho, reason", [
    ([[1, 5, 0], [0, 0, 0], [0, 0, -2]], "is not Hermitian"),
    (np.eye(3), "does not have unit trace"),
    (np.diag([1.5, 0.0, -0.5]), "is not positive semidefinite"),
    (np.full((3, 3), np.nan), "has a non-finite entry"),
])
def test_convert_density_checks_its_input_where_it_enters(rho, reason):
    cs = random_classical_set(3, np.random.default_rng(35))
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    with pytest.raises(ValueError, match=reason) as err:
        conv.convert_density(rho)
    assert "\n" not in str(err.value)


def test_nonclassical_pure_inputs_convert_to_entangled_outputs():
    rng = np.random.default_rng(31)
    cs = random_classical_set(4, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    for support in (2, 3, 4):
        psi, _ = random_superposition(cs, support, rng)
        ent = entanglement_entropy(schmidt_decompose(conv.convert(psi), 4, 4))
        assert ent > 1e-8


# -------------------------------------------------------------- rank equality

def test_rank_equality_random_sets():
    rng = np.random.default_rng(32)
    for dim in (2, 4, 8):
        trials, matches, _, _ = measure_conversions(dim, 40 // dim, rng)
        assert matches == trials == 40
        cs = random_classical_set(dim, rng)
        conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
        v = conv.isometry
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
        converted = np.column_stack([conv.convert(c).amplitudes for c in cs.states])
        assert np.max(np.abs(converted.conj().T @ converted - cs.gram.entries)) < 1e-10


def test_rank_equality_support_one_gives_rank_one():
    rng = np.random.default_rng(33)
    cs = random_classical_set(5, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    for _ in range(10):
        psi, _ = random_superposition(cs, 1, rng)
        assert schmidt_decompose(conv.convert(psi), 5, 5).rank == 1
