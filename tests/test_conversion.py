import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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

from test_certificate import classical_set_near


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
    with pytest.raises(ValueError, match=re.escape(f"feasible range is eps < {emax})")):
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


@pytest.mark.parametrize("lam_min", [1.1e-10, 1.06e-10])
def test_default_epsilon_converts_a_large_set_near_independence_floor(lam_min):
    # at D = 128 the default eps is near 4.8e-12, a few of eigh's resolutions D^2 u = 1.8e-12;
    # at 1.06e-10 half of epsilon_max lies below twice that, so the default must move up inside the range
    # (the conversion's own Gram check passes; its map misses the products by up to 1/sqrt(lam_min) roundoffs)
    cs = uniform_overlap_set(lam_min, 128)
    split = make_split(cs, default_epsilon(cs))
    build_conversion(cs, split)
    mu = split.gram_d.entries[0, -1].real
    d = np.column_stack([s.amplitudes for s in split.d_states])
    resolved = np.linalg.eigvalsh(d.conj().T @ d)[:-1] / (1.0 - mu)  # G_d's D - 1 eigenvalues 1 - mu
    assert np.all(np.abs(resolved - 1.0) < 0.5)


@pytest.mark.parametrize("lam_min", [1e-7, 5e-8])
def test_make_split_feasible_just_below_epsilon_max(lam_min):
    # 0.999 eps_max leaves about 1e-3 lam_min above the floor, so the floor
    # and epsilon_max must agree to better than that
    cs = uniform_overlap_set(lam_min, 3)
    make_split(cs, 0.999 * epsilon_max(cs))


def test_every_epsilon_just_below_epsilon_max_converts():
    # near the floor, 1 + eps cannot tell eps_max (1 - 1e-9) from eps_max, so the
    # bound must be one whose own s = 1 + eps the decision accepts
    rng = np.random.default_rng(3)
    for _ in range(50):
        cs = classical_set_near(4, 1e-9, rng)
        build_conversion(cs, make_split(cs, epsilon_max(cs) * (1.0 - 1e-9)))


# nu near -1 puts the bound near the floor; nu near 0 puts it up to 1e17, where 1 + eps rounds in steps of 16
NUS = st.one_of(st.floats(-16.0, -0.01).map(lambda e: -(1.0 - 10.0**e)),
                st.floats(-17.0, -0.01).map(lambda e: -(10.0**e)))


@settings(max_examples=300, deadline=None)
@given(nu=NUS, boundary_ok=st.booleans(), scale=st.floats(1.0 - 1e-6, 1.0 + 1e-6))
def test_check_split_accepts_every_epsilon_below_the_bound_it_names(nu, boundary_ok, scale):
    bound = conversion._epsilon_bound(nu, boundary_ok)
    assume(0.0 < bound < math.inf)
    for eps in (bound, math.nextafter(bound, 0.0), bound * (1.0 - 1e-9), bound * (1.0 - 1e-15)):
        conversion.check_split(nu, eps, boundary_ok)
    try:
        conversion.check_split(nu, bound * scale, boundary_ok)
    except ValueError as err:
        assert bound * scale > bound and f"{bound})" in str(err)


def test_check_split_accepts_every_epsilon_below_the_number_its_refusal_prints():
    # bounds from about 2 to 1e8: a display rounded to nearest could name a number above the bound
    rng = np.random.default_rng(1)
    for nu in -(10.0 ** rng.uniform(-8.0, -0.5, 2000)):
        for boundary_ok in (False, True):
            with pytest.raises(ValueError, match="feasible range") as err:
                conversion.check_split(nu, 2.0 / -nu, boundary_ok)
            printed = float(re.search(r"eps <?=? (\S+)\)$", str(err.value)).group(1))
            for eps in (printed, math.nextafter(printed, 0.0)):
                conversion.check_split(nu, eps, boundary_ok)


def qr_orthonormal_set(dim: int, rng) -> ClassicalSet:
    """An orthonormal set from a QR factorisation: its Gram is I to roundoff."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return ClassicalSet(states=tuple(StateVector(q[:, i]) for i in range(dim)))


@pytest.mark.parametrize("epsilon", [1e15, 1e16, 1e17])
def test_orthonormal_sets_near_the_coherence_limit_convert_or_name_the_bound(epsilon):
    # the decision reads nu = lambda_min(G - diag G), the matrix make_split scales,
    # so its verdict is the factored G_e's own and no split fails later as "not normalized"
    rng = np.random.default_rng(0)
    for cs in (qr_orthonormal_set(dim, rng) for dim in range(2, 9) for _ in range(20)):
        scaled = cs.gram.entries * (1.0 + epsilon)
        np.fill_diagonal(scaled, 1.0)
        try:
            build_conversion(cs, make_split(cs, epsilon))
            converted = True
        except ValueError as err:
            message = str(err)
            bound = re.search(r"is infeasible: .* \(feasible range is eps < (\S+)\)$", message)
            assert bound and math.isfinite(float(bound[1])), message
            converted = False
        assert converted == (np.linalg.eigvalsh(scaled)[0] - 1e-10 > 0.0)


def test_nu_keeps_its_digits_however_small_the_overlaps_are():
    # a pair's G - diag G has eigenvalues +/- |G_01|, which lambda_min(G) - 1 resolves only to 1e-16
    for theta in (math.pi / 2 - 1e-12, math.pi / 3, 2.5):
        cs = gcnot_classical_pair(theta)
        assert cs.nu == pytest.approx(-abs(cs.gram.entries[0, 1]), rel=1e-15)
    assert orthonormal_set(3).nu == 0.0


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

def superpositions_of_random_sets(seed: int) -> list:
    """(set, (psi, classical rank)): 20 random sets for each D in 3, 4, 8 and one
    random superposition of each support 2..D, 240 inputs in all."""
    rng = np.random.default_rng(seed)
    sets = [random_classical_set(dim, rng) for dim in (3, 4, 8) for _ in range(20)]
    return [(cs, random_superposition(cs, support, rng)) for cs in sets for support in range(2, cs.dim + 1)]


def test_a_small_epsilon_keeps_the_classical_rank_or_is_refused_with_its_floor():
    # G_d's lambda_min eps/(1+eps) once fell below a fixed clamp of 1e-12, and every
    # output became a product; now each conversion is right or refused with the least eps it takes
    inputs = superpositions_of_random_sets(0)
    assert len(inputs) == 240
    for epsilon in (1e-12, 1e-13, 1e-15, 8e-16, 5e-16, 3e-16, 1e-16, 1e-20):
        conversions = {}
        for cs, (psi, rank) in inputs:
            if id(cs) not in conversions:
                try:
                    conversions[id(cs)] = build_conversion(cs, make_split(cs, epsilon))
                except ValueError as err:
                    floor = re.fullmatch(r"split is unresolved at D=\d+: .* \(feasible range is eps >= (\S+)\)",
                                         str(err))
                    assert floor and epsilon < float(floor[1]) and epsilon < 1e-13, str(err)
                    conversions[id(cs)] = None
            if conversions[id(cs)] is not None:
                assert schmidt_decompose(conversions[id(cs)].convert(psi), cs.dim, cs.dim).rank == rank


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_every_epsilon_from_the_printed_floor_converts(dim):
    cs = random_classical_set(dim, np.random.default_rng(dim))
    with pytest.raises(ValueError, match="split is unresolved") as err:
        build_conversion(cs, make_split(cs, 1e-17))
    floor = float(re.search(r"eps >= (\S+)\)$", str(err.value))[1])
    psi, rank = random_superposition(cs, dim, np.random.default_rng(0))
    for epsilon in (floor, floor * (1.0 + 1e-9), 2.0 * floor):
        conv = build_conversion(cs, make_split(cs, epsilon))
        assert schmidt_decompose(conv.convert(psi), dim, dim).rank == rank == dim
    # the boundary split eps = 0 is G_d = J exactly: every output is a product
    conv = build_conversion(cs, make_split(cs, 0.0, boundary_ok=True))
    assert schmidt_decompose(conv.convert(psi), dim, dim).rank == 1


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_every_epsilon_below_the_printed_floor_is_refused(dim):
    # the floats just below the floor round to the floor's own mu = 1/(1+eps), so the
    # decision must read the split's eps, not G_d
    cs = random_classical_set(dim, np.random.default_rng(dim))
    floor = conversion._epsilon_floor(dim)
    for epsilon in (math.nextafter(floor, 0.0), floor * (1.0 - 1e-15), floor * (1.0 - 1e-9)):
        with pytest.raises(ValueError, match=re.escape(
                f"split is unresolved at D={dim}: G_d has lambda_min {epsilon / (1.0 + epsilon):.3e}, within "
                f"eigh's error (feasible range is eps >= {floor})")):
            build_conversion(cs, make_split(cs, epsilon))
    psi, rank = random_superposition(cs, dim, np.random.default_rng(0))
    conv = build_conversion(cs, make_split(cs, floor))
    assert schmidt_decompose(conv.convert(psi), dim, dim).rank == rank == dim


def test_a_split_carries_its_epsilon_and_forms_mu_as_written():
    # 1 + 1e-17 rounds to 1, so G_d is J exactly; the split is still refused on its own eps
    cs = random_classical_set(3, np.random.default_rng(3))
    split = make_split(cs, 1e-17)
    assert split.epsilon == 1e-17
    assert np.array_equal(split.gram_d.entries, np.ones((3, 3)))
    with pytest.raises(ValueError, match=re.escape("split is unresolved at D=3: G_d has lambda_min 1.000e-17")):
        build_conversion(cs, split)
    assert make_split(cs, 0.0, boundary_ok=True).epsilon == 0.0


@settings(max_examples=300, deadline=None)
@given(log_nu=st.floats(-20.0, 0.0, exclude_max=True), boundary_ok=st.booleans())
def test_check_split_accepts_the_bound_it_names_for_nu_down_to_minus_1e_minus_20(log_nu, boundary_ok):
    # nu near 0 puts top = (1 - floor)/-nu past 2^53, where top - 1 is rounded
    nu = -(10.0**log_nu)
    bound = conversion._epsilon_bound(nu, boundary_ok)
    assume(bound > 0.0)  # 1 + nu at the floor leaves no positive eps
    conversion.check_split(nu, bound, boundary_ok)


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


def eigenbasis_factor(g) -> np.ndarray:
    """sqrt(L) V^dag of G = V L V^dag, eigenvalues at or below eigh's resolution clamped: factor_gram's formula."""
    w, v = np.linalg.eigh(g.entries)
    w = np.where(w > linalg._eigh_resolution(g.n, w[-1]), w, 0.0)
    return np.sqrt(w)[:, None] * v.conj().T


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 16), share=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_split_factors_isometry_and_certificate_keep_their_formulas_bits(dim, share, seed):
    rng = np.random.default_rng(seed)
    cs = random_classical_set(dim, rng)
    split = make_split(cs, share * min(epsilon_max(cs), 10.0))
    d, e = eigenbasis_factor(split.gram_d), eigenbasis_factor(split.gram_e)
    for columns, gram, factor in ((split.d_columns, split.gram_d, d), (split.e_columns, split.gram_e, e)):
        assert np.array_equal(columns, np.column_stack([s.amplitudes for s in factor_gram(gram)]))
        assert np.array_equal(columns, factor) and not columns.flags.writeable
    conv = build_conversion(cs, split)
    b = (d[:, None, :] * e[None, :, :]).reshape(-1, dim)
    v = positive_frame(b) @ positive_frame(cs.columns).conj().T
    assert np.array_equal(conv.isometry, v)
    assert np.array_equal(conv._residuals, np.linalg.norm(v @ cs.columns - b, axis=0))
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    sigma = conv.convert_density(rho)
    assert np.array_equal(sigma, v @ rho @ v.conj().T)
    beta = conversion._separability_bound(v, cs.columns, conv._residuals, rho)
    assert linalg._attached_bound(sigma, dim, dim) == beta


@pytest.mark.parametrize("dim", [1, 17, 24, 32])
def test_a_converted_density_keeps_its_bits_and_seal_beyond_the_property_range(dim):
    rng = np.random.default_rng(dim)
    cs = random_classical_set(dim, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    sigma = conv.convert_density(rho)
    v = conv.isometry
    assert np.array_equal(sigma, (v @ rho) @ v.conj().T)
    with pytest.raises(ValueError):
        sigma.setflags(write=True)
    base = sigma.base
    while isinstance(base, np.ndarray):  # the buffer is immutable all the way down
        with pytest.raises(ValueError):
            base.setflags(write=True)
        base = base.base
    assert isinstance(base, bytes)


def test_a_converted_density_is_written_once():
    rng = np.random.default_rng(41)
    cs = random_classical_set(16, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    rho = np.diag(rng.dirichlet(np.ones(16))).astype(complex)
    tracemalloc.start()
    try:
        sigma = conv.convert_density(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V rho V^dag is written straight into its sealed buffer: no second D^2 x D^2 array is held
    assert peak < 1.5 * sigma.nbytes


def test_a_split_and_its_conversion_build_no_state_per_column(monkeypatch):
    built, built_raw, post_init = [], linalg._built, StateVector.__post_init__

    def recording(cls, **fields):
        built.append(cls)
        return built_raw(cls, **fields)

    def checked(self):
        built.append(StateVector)
        post_init(self)

    cs = random_classical_set(8, np.random.default_rng(37))
    for module in (linalg, conversion):
        monkeypatch.setattr(module, "_built", recording)
    monkeypatch.setattr(StateVector, "__post_init__", checked)
    split = make_split(cs, default_epsilon(cs))
    build_conversion(cs, split)
    assert StateVector not in built
    d_states = split.d_states  # built when first read, D states each
    assert built.count(StateVector) == 8
    e_states = split.e_states
    assert built.count(StateVector) == 16
    for states, gram in ((d_states, split.gram_d), (e_states, split.gram_e)):
        factor = eigenbasis_factor(gram)
        assert len(states) == 8 and all(np.array_equal(s.amplitudes, factor[:, i]) for i, s in enumerate(states))
    assert split.d_states is d_states and split.e_states is e_states and built.count(StateVector) == 16


def test_outputs_and_caller_columns_take_one_svd_per_call(monkeypatch):
    calls, svd = [], np.linalg.svd

    def counting(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    rng = np.random.default_rng(38)
    cs = random_classical_set(4, rng)
    split = make_split(cs, default_epsilon(cs))
    conv = build_conversion(cs, split)
    monkeypatch.setattr(np.linalg, "svd", counting)
    out = conv.convert(random_superposition(cs, 4, rng)[0])
    assert schmidt_decompose(out, 4, 4) is not schmidt_decompose(out, 4, 4) and len(calls) == 2
    assert schmidt_decompose(split.d_states[0], 2, 2) is not schmidt_decompose(split.d_states[0], 2, 2)
    assert len(calls) == 4
    # a SplitSpec over a caller's writable columns: its states are read-only views of an array
    # the caller can still write, so they are decomposed at every call
    columns = np.array(split.d_columns)
    caller = conversion.SplitSpec(epsilon=split.epsilon, gram_d=split.gram_d, gram_e=split.gram_e,
                                  d_columns=columns, e_columns=np.array(split.e_columns))
    state = caller.d_states[0]
    assert not state.amplitudes.flags.writeable and schmidt_decompose(state, 2, 2).rank == 2
    columns[:, 0] = basis_state(4, 0).amplitudes
    assert schmidt_decompose(state, 2, 2).rank == 1 and len(calls) == 6


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
