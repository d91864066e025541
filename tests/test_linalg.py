import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nc2ent.conversion import ClassicalSet, build_conversion, default_epsilon, make_split
from nc2ent.linalg import (
    DENSITY_TOL,
    UNITARY_TOL,
    GramMatrix,
    GramMismatchError,
    StateVector,
    basis_state,
    entanglement_entropy,
    factor_gram,
    fidelity,
    gram_of,
    hadamard,
    is_unitary,
    negativity,
    partial_transpose,
    random_state,
    schmidt_decompose,
    synthesize_unitary,
)
from nc2ent.witness import swap_style_witness


def bell_state() -> StateVector:
    return StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))


# ---------------------------------------------------------------- StateVector

def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])


def test_state_vector_rejects_non_finite_amplitudes():
    for amps in ([float("nan"), 0.0], [float("inf"), 0.0], [1.0, complex(0.0, float("nan"))]):
        for build in (StateVector, StateVector.normalized):
            with pytest.raises(ValueError, match="non-finite amplitude"):
                build(amps)


def test_normalized_constructor():
    s = StateVector.normalized([3.0, 4.0])
    assert np.allclose(s.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        StateVector.normalized([0.0, 0.0])


@pytest.mark.parametrize("amps, expected", [
    ([1e-200, 0.0], [1.0, 0.0]),
    ([5e-324, 0.0], [1.0, 0.0]),
    ([1e200, 1e200], [1 / math.sqrt(2)] * 2),
])
def test_normalized_tiny_and_huge_finite_input(amps, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = StateVector.normalized(amps)
    assert np.max(np.abs(s.amplitudes - expected)) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_normalized_matches_direct_division(n, seed):
    # scaling by a power of two is exact, so ordinary input is normalized bit for bit as a / |a|
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-100, 100, n)
    assert np.array_equal(StateVector.normalized(a).amplitudes, a / np.linalg.norm(a))


def test_state_vector_is_immutable():
    s = basis_state(3, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


# -------------------------------------------------------------------- gram_of

def test_gram_of_orthonormal_basis_is_identity():
    g = gram_of([basis_state(2, 0), basis_state(2, 1)])
    assert np.allclose(g.entries, np.eye(2))


def test_gram_of_tilted_pair_off_diagonal_is_cos_theta():
    theta = 1.1
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    g = gram_of([StateVector([c, s]), StateVector([c, -s])])
    assert abs(g.entries[0, 1] - math.cos(theta)) < 1e-14


def test_gram_of_matches_direct_inner_products():
    # oracle: entrywise vdot, independent of the matrix-product implementation
    rng = np.random.default_rng(42)
    states = [random_state(5, rng) for _ in range(3)]
    g = gram_of(states)
    for i in range(3):
        for j in range(3):
            direct = np.vdot(states[i].amplitudes, states[j].amplitudes)
            assert abs(g.entries[i, j] - direct) < 1e-14


def test_gram_of_dimension_mismatch():
    with pytest.raises(ValueError):
        gram_of([basis_state(2, 0), basis_state(3, 0)])


# ------------------------------------------------------------------- hadamard

def test_hadamard_all_ones_is_identity_element():
    rng = np.random.default_rng(3)
    g = gram_of([random_state(4, rng) for _ in range(3)])
    ones = GramMatrix(np.ones((3, 3)))
    assert np.allclose(hadamard(g, ones).entries, g.entries)


def test_hadamard_with_identity_gram():
    rng = np.random.default_rng(4)
    g = gram_of([random_state(4, rng) for _ in range(3)])
    eye = GramMatrix(np.eye(3))
    assert np.allclose(hadamard(g, eye).entries, np.eye(3))


def test_hadamard_matches_product_state_gram():
    # oracle: build explicit product states and take their Gram directly
    rng = np.random.default_rng(5)
    xs = [random_state(3, rng) for _ in range(4)]
    ys = [random_state(2, rng) for _ in range(4)]
    products = [x.tensor(y) for x, y in zip(xs, ys)]
    expected = gram_of(products)
    combined = hadamard(gram_of(xs), gram_of(ys))
    assert np.max(np.abs(combined.entries - expected.entries)) < 1e-13


def test_grams_built_from_accepted_values_construct():
    # a unit vector may have norm 1 +/- 1e-12, so a built Gram's diagonal
    # |c|^2 may be off by 2e-12, more than the caller check's 1e-12
    states = (StateVector([1 + 0.9e-12, 0]), basis_state(2, 1))
    cs = ClassicalSet(states)
    assert cs.gram.min_eigenvalue() == np.linalg.eigvalsh(cs.gram.entries)[0]
    assert abs(gram_of(list(states)).entries[0, 0] - 1.0) > 1e-12
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    assert abs(np.linalg.norm(conv.convert(StateVector.normalized([1, 1])).amplitudes) - 1.0) < 1e-12
    g = GramMatrix([[1 + 0.9e-12, 0.5], [0.5, 1 + 0.9e-12]])
    product = hadamard(g, g)
    assert np.allclose(product.entries, [[1, 0.25], [0.25, 1]], atol=1e-11)
    assert product.min_eigenvalue() == np.linalg.eigvalsh(product.entries)[0]


def test_hadamard_size_mismatch():
    with pytest.raises(ValueError):
        hadamard(GramMatrix(np.eye(2)), GramMatrix(np.eye(3)))


# ---------------------------------------------------------------- factor_gram

def test_factor_gram_identity():
    vecs = factor_gram(GramMatrix(np.eye(3)))
    assert np.allclose(gram_of(vecs).entries, np.eye(3))


def test_factor_gram_two_by_two_overlap():
    for c in (0.2, 0.5, 0.9):
        g = GramMatrix(np.array([[1.0, c], [c, 1.0]]))
        vecs = factor_gram(g)
        assert abs(vecs[0].overlap(vecs[1]) - c) < 1e-12


def test_factor_gram_rank_one_gives_equal_states():
    g = GramMatrix(np.ones((4, 4)))
    vecs = factor_gram(g)
    for v in vecs[1:]:
        assert abs(abs(vecs[0].overlap(v)) - 1.0) < 1e-12


def test_factor_gram_round_trip_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        states = [random_state(n + 1, rng) for _ in range(n)]
        g = gram_of(states)
        again = gram_of(factor_gram(g))
        assert np.max(np.abs(again.entries - g.entries)) < 1e-10


def test_factor_gram_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        GramMatrix(bad)


# --------------------------------------------------------- synthesize_unitary

def shear(off: float) -> np.ndarray:
    # [[1, off], [0, 1]]: |M M^dag - I| is off exactly for off << 1e-8 (1 + off^2 rounds to 1)
    return np.array([[1.0, off], [0.0, 1.0]], dtype=complex)


@pytest.mark.parametrize("m, expected", [
    (shear(UNITARY_TOL), True),
    (shear(2 * UNITARY_TOL), False),
    (np.eye(3)[:2], False),
    (np.ones(3), False),
    (np.full((2, 2), np.nan), False),
], ids=["at-tol", "twice-tol", "non-square", "one-dimensional", "nan"])
def test_is_unitary(m, expected):
    assert is_unitary(m, UNITARY_TOL) is expected


def test_synthesize_identity_on_standard_basis():
    basis = [basis_state(3, k) for k in range(3)]
    u = synthesize_unitary(basis, basis)
    assert np.allclose(u, np.eye(3))


def test_synthesize_recovers_known_unitary():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    basis = [basis_state(4, k) for k in range(4)]
    targets = [StateVector(q[:, k]) for k in range(4)]
    u = synthesize_unitary(basis, targets)
    assert np.max(np.abs(u - q)) < 1e-10


def test_synthesize_rejects_unequal_grams():
    a = [basis_state(2, 0), StateVector([0.5, math.sqrt(0.75)])]
    b = [basis_state(2, 0), StateVector([0.6, 0.8])]
    with pytest.raises(GramMismatchError):
        synthesize_unitary(a, b)


def test_synthesize_embeds_into_larger_space():
    rng = np.random.default_rng(8)
    small = [random_state(2, rng) for _ in range(2)]
    iso = np.zeros((5, 2), dtype=complex)
    iso[:2, :] = np.eye(2)
    big = [StateVector(iso @ s.amplitudes) for s in small]
    u = synthesize_unitary(small, big)
    assert u.shape[0] == 5 and is_unitary(u, UNITARY_TOL)
    for s, b in zip(small, big):
        padded = np.zeros(5, dtype=complex)
        padded[:2] = s.amplitudes
        assert np.max(np.abs(u @ padded - b.amplitudes)) < 1e-8


def test_synthesize_property_equal_grams_map_exactly():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        states = [random_state(n + 2, rng) for _ in range(n)]
        z = rng.standard_normal((n + 2, n + 2)) + 1j * rng.standard_normal((n + 2, n + 2))
        q, _ = np.linalg.qr(z)
        targets = [StateVector(q @ s.amplitudes) for s in states]
        u = synthesize_unitary(states, targets)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n + 2))) < 1e-10
        for s, t in zip(states, targets):
            assert np.max(np.abs(u @ s.amplitudes - t.amplitudes)) < 1e-8


def test_synthesize_rejects_dependent_families():
    e0, e1 = basis_state(3, 0), basis_state(3, 1)
    with pytest.raises(ValueError, match="linearly dependent"):
        synthesize_unitary([e0, e0], [e1, e1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), pad=st.integers(0, 3),
       log_lam=st.floats(-6.0, -1.0), seed=st.integers(0, 2**32 - 1))
def test_synthesize_ill_conditioned_families(n, pad, log_lam, seed):
    rng = np.random.default_rng(seed)
    # shift a random Gram's spectrum by s, then rescale to unit diagonal:
    # the smallest eigenvalue (lam0 + s) / (1 + s) is then lam
    lam = 10.0 ** log_lam
    g0 = gram_of([random_state(n, rng) for _ in range(n)])
    shift = (lam - g0.min_eigenvalue()) / (1.0 - lam)
    gram = GramMatrix((g0.entries + shift * np.eye(n)) / (1.0 + shift))
    states = factor_gram(gram)
    dim = n + pad
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    padded = [np.concatenate([s.amplitudes, np.zeros(pad)]) for s in states]
    targets = [StateVector(q @ a) for a in padded]
    u = synthesize_unitary(states, targets)
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10
    for a, t in zip(padded, targets):
        assert np.max(np.abs(u @ a - t.amplitudes)) < 1e-10


# ---------------------------------------------------------- schmidt_decompose

def test_schmidt_product_state_rank_one():
    rng = np.random.default_rng(10)
    psi = random_state(3, rng).tensor(random_state(4, rng))
    sd = schmidt_decompose(psi, 3, 4)
    assert sd.rank == 1


def test_schmidt_bell_state():
    sd = schmidt_decompose(bell_state(), 2, 2)
    assert sd.rank == 2
    assert np.allclose(sd.coefficients, [1 / math.sqrt(2)] * 2)


def test_schmidt_rank_three_construction():
    # oracle: build sum_j c_j |a_j>|b_j> from locally independent families
    rng = np.random.default_rng(11)
    a = [random_state(4, rng) for _ in range(3)]
    b = [random_state(5, rng) for _ in range(3)]
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec = sum(c * np.kron(x.amplitudes, y.amplitudes) for c, x, y in zip(coeffs, a, b))
    psi = StateVector.normalized(vec)
    assert schmidt_decompose(psi, 4, 5).rank == 3


def test_schmidt_reconstruction():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = random_state(12, rng)
        sd = schmidt_decompose(psi, 3, 4)
        assert np.max(np.abs(sd.reconstruct() - psi.amplitudes)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(dim_a=st.integers(1, 16), dim_b=st.integers(1, 16),
       kind=st.sampled_from(["product", "maximal", "random-rank"]), seed=st.integers(0, 2**32 - 1))
def test_schmidt_coefficients_descend_and_sum_to_one(dim_a, dim_b, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "product":
        psi = random_state(dim_a, rng).tensor(random_state(dim_b, rng))
    elif kind == "maximal":
        psi = StateVector.normalized(np.eye(dim_a, dim_b).reshape(-1))
    else:
        rank = int(rng.integers(1, min(dim_a, dim_b) + 1))
        coeffs = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        psi = StateVector.normalized(sum(
            c * np.kron(random_state(dim_a, rng).amplitudes, random_state(dim_b, rng).amplitudes)
            for c in coeffs))
    lam = schmidt_decompose(psi, dim_a, dim_b).coefficients
    assert np.all(np.diff(lam) <= 0.0)
    assert abs(float(np.sum(lam**2)) - 1.0) <= 1e-12


def test_schmidt_dimension_mismatch():
    with pytest.raises(ValueError):
        schmidt_decompose(bell_state(), 3, 2)


# ------------------------------------------------------- entanglement_entropy

def test_entropy_rank_one_is_zero():
    psi = basis_state(2, 0).tensor(basis_state(2, 1))
    assert entanglement_entropy(schmidt_decompose(psi, 2, 2)) == 0.0


def test_entropy_bell_is_exactly_one():
    assert abs(entanglement_entropy(schmidt_decompose(bell_state(), 2, 2)) - 1.0) <= 1e-12


def test_entropy_frozen_value():
    # oracle: direct formula -0.9 log2 0.9 - 0.1 log2 0.1 = 0.46899559358928117
    vec = math.sqrt(0.9) * np.kron([1, 0], [1, 0]) + math.sqrt(0.1) * np.kron([0, 1], [0, 1])
    sd = schmidt_decompose(StateVector(vec), 2, 2)
    assert abs(entanglement_entropy(sd) - 0.46899559358928117) < 1e-12


# --------------------------------------------- partial_transpose / negativity

def test_negativity_product_state_zero():
    rng = np.random.default_rng(13)
    rho = random_state(2, rng).tensor(random_state(3, rng)).projector()
    assert negativity(rho, 2, 3) < 1e-12


def test_negativity_bell_is_half():
    assert abs(negativity(bell_state().projector(), 2, 2) - 0.5) < 1e-12


def test_negativity_mixture_of_products_zero():
    rng = np.random.default_rng(14)
    a, b = random_state(2, rng), random_state(2, rng)
    c, d = random_state(2, rng), random_state(2, rng)
    rho = 0.5 * a.tensor(b).projector() + 0.5 * c.tensor(d).projector()
    assert negativity(rho, 2, 2) < 1e-12


def test_negativity_separable_mixtures_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        weights = rng.random(k)
        weights /= weights.sum()
        rho = sum(w * random_state(da, rng).tensor(random_state(db, rng)).projector()
                  for w in weights)
        assert negativity(rho, da, db) < 1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(16)
    rho = random_state(6, rng).projector()
    # partial_transpose validates its input, so apply it twice manually
    pt = partial_transpose(rho, 2, 3)
    blocks = pt.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)
    assert np.allclose(blocks, rho)


def test_negativity_rejects_invalid_density():
    with pytest.raises(ValueError):
        negativity(np.eye(4), 2, 2)  # trace 4, not a density operator


def density_with_min_eig(dim: int, lam_min: float, zeros: int, rng) -> np.ndarray:
    """Unit-trace Hermitian U diag(w) U^dag with w = (lam_min, 0 x zeros, positive rest)."""
    rest = rng.random(dim - 1 - zeros) + 0.1
    w = np.concatenate([[lam_min], np.zeros(zeros), rest * (1.0 - lam_min) / rest.sum()])
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(z)[0]
    rho = (u * w) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("check", [negativity, partial_transpose])
@pytest.mark.parametrize("lam_min", [-2 * DENSITY_TOL, -DENSITY_TOL / 2])
def test_density_psd_decision_at_its_tolerance(check, lam_min):
    rho = density_with_min_eig(4, lam_min, 1, np.random.default_rng(41))
    if lam_min < -DENSITY_TOL:
        with pytest.raises(ValueError) as err:
            check(rho, 2, 2)
        assert str(err.value) == "density operator is not positive semidefinite"
    else:
        check(rho, 2, 2)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 64),
    zero_share=st.floats(0.0, 1.0),
    log_offset=st.floats(-12.0, -8.0),
    below=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_psd_decision_matches_eigenvalue_rule(dim, zero_share, log_offset, below, seed):
    offset = 10.0**log_offset
    rho = density_with_min_eig(dim, -DENSITY_TOL + (-offset if below else offset),
                               int(zero_share * (dim - 2)), np.random.default_rng(seed))
    lam = float(np.linalg.eigvalsh(rho)[0])
    assume(abs(lam + DENSITY_TOL) > 1e-12)
    try:
        partial_transpose(rho, 1, dim)
        accepted = True
    except ValueError as err:
        assert str(err) == "density operator is not positive semidefinite"
        accepted = False
    assert accepted == (lam >= -DENSITY_TOL), (lam, accepted)


@pytest.mark.parametrize("d", [2, 4, 16])
def test_negativity_maximally_entangled(d):
    phi = StateVector(np.eye(d).reshape(-1) / math.sqrt(d))
    assert abs(negativity(phi.projector(), d, d) - (d - 1) / 2) < 1e-10


def test_negativity_needs_one_spectrum(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho = density_with_min_eig(256, 0.0, 100, np.random.default_rng(42))
    partial_transpose(rho, 16, 16)
    assert calls == []
    negativity(rho, 16, 16)
    assert calls == [(256, 256)]


@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 8), above=st.booleans(), log_offset=st.floats(-13.0, -6.0))
def test_negativity_of_isotropic_states_near_the_ppt_edge(d, above, log_offset):
    # rho_p = p |Phi><Phi| + (1 - p) I / d^2 is PPT exactly when p <= 1 / (d + 1)
    p = 1.0 / (d + 1) + (10.0**log_offset if above else -(10.0**log_offset))
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    rho = p * np.outer(phi, phi) + (1.0 - p) * np.eye(d * d) / d**2
    exact = max(0.0, (d - 1) * (p * (d + 1) - 1) / (2 * d))
    value = negativity(rho, d, d)
    if exact > 1e-10:
        assert abs(value - exact) <= 1e-12, (value, exact)
    if value == 0.0:
        assert exact < 1e-10, exact


@pytest.mark.parametrize("build", [
    lambda: GramMatrix([[1.0, math.nan], [math.nan, 1.0]]),
    lambda: negativity([[math.nan, 0.0], [0.0, 1.0]], 1, 2),
    lambda: partial_transpose([[math.nan, 0.0], [0.0, 1.0]], 1, 2),
    lambda: GramMatrix([[1.0, math.inf], [math.inf, 1.0]]),
    lambda: negativity([[math.inf, 0.0], [0.0, 1.0]], 1, 2),
], ids=["GramMatrix", "negativity", "partial_transpose", "GramMatrix-inf", "negativity-inf"])
def test_non_finite_matrix_entries_rejected(build):
    with pytest.raises(ValueError, match="non-finite") as err:
        build()
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("dims", [(-2, -2), (2.0, 2), (0, 4), (1, 2)], ids=["negative", "float", "zero", "mismatch"])
@pytest.mark.parametrize("call", [
    lambda a, b: negativity(bell_state().projector(), a, b),
    lambda a, b: partial_transpose(bell_state().projector(), a, b),
    lambda a, b: schmidt_decompose(bell_state(), a, b),
    lambda a, b: swap_style_witness(a, b, bell_state()),
], ids=["negativity", "partial_transpose", "schmidt_decompose", "swap_style_witness"])
def test_bad_cut_gives_one_line_error_naming_it(call, dims):
    with pytest.raises(ValueError, match=f"^cut {dims[0]}x{dims[1]} ") as err:
        call(*dims)
    assert "\n" not in str(err.value)


def test_empty_matrices_rejected():
    for build in (lambda: GramMatrix(np.zeros((0, 0))), lambda: negativity(np.zeros((0, 0)), 0, 0)):
        with pytest.raises(ValueError, match="nonempty square"):
            build()


# ------------------------------------------------------------------- fidelity

def test_fidelity_identical_orthogonal_and_angle():
    theta = 0.7
    assert fidelity(basis_state(2, 0), basis_state(2, 0)) == 1.0
    assert fidelity(basis_state(2, 0), basis_state(2, 1)) == 0.0
    tilted = StateVector([math.cos(theta / 2), math.sin(theta / 2)])
    assert abs(fidelity(basis_state(2, 0), tilted) - math.cos(theta / 2) ** 2) < 1e-14
