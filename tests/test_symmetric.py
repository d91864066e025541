import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nc2ent.linalg import StateVector, schmidt_decompose
from nc2ent.symmetric import (
    SuUnitary,
    SymmetricState,
    _occupation_ranks,
    _pair_powers,
    apply_splitting,
    apply_unitary,
    coherent_state,
    dicke_dim,
    haar_random_su,
    occupation_basis,
    overlap,
    splitting_isometry,
    symmetric_power_matrix,
)
from nc2ent.verify import measure_isometry_action, measure_splitting_faithfulness


# ------------------------------------------------------- tensor-power oracle

def occupation_of(seq: tuple[int, ...], k: int) -> tuple[int, ...]:
    occ = [0] * k
    for i in seq:
        occ[i] += 1
    return tuple(occ)


def dicke_embedding(k: int, n: int) -> np.ndarray:
    """Matrix taking Dicke amplitudes to the full K^N tensor representation:
    each occupation spreads uniformly over its level sequences with weight
    sqrt(prod n_j! / N!)."""
    index = {occ: i for i, occ in enumerate(occupation_basis(k, n))}
    e = np.zeros((k**n, len(index)), dtype=complex)
    for flat in range(k**n):
        seq = []
        rest = flat
        for _ in range(n):
            seq.append(rest % k)
            rest //= k
        seq = tuple(reversed(seq))
        occ = occupation_of(seq, k)
        weight = math.sqrt(math.prod(math.factorial(x) for x in occ) / math.factorial(n))
        e[flat, index[occ]] = weight
    return e


def apply_tensor_power(u: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """Apply u to every tensor factor of a K^N vector, one factor at a time."""
    k = u.shape[0]
    out = vec.reshape((k,) * n)
    for axis in range(n):
        out = np.tensordot(u, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out.reshape(-1)


# ------------------------------------------------------------------ dicke_dim

def test_dicke_dim_values():
    assert dicke_dim(2, 2) == 3
    assert dicke_dim(2, 1) == 2
    assert dicke_dim(3, 4) == 15  # binom(6, 2)


def test_dicke_dim_caps():
    with pytest.raises(ValueError):
        dicke_dim(7, 2)
    with pytest.raises(ValueError):
        dicke_dim(2, 13)
    with pytest.raises(ValueError):
        dicke_dim(1, 2)


def test_occupation_basis_order():
    assert occupation_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert occupation_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert occupation_basis(2, 3)[0] == (3, 0)


# ------------------------------------------------------------- coherent_state

def test_coherent_state_identity_reference():
    st = coherent_state(SuUnitary(np.eye(3)), 4)
    assert abs(st.amplitudes[0] - 1.0) < 1e-15
    assert np.max(np.abs(st.amplitudes[1:])) == 0.0


def test_coherent_state_balanced_qubit():
    u = SuUnitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    st = coherent_state(u, 2)
    assert np.allclose(st.amplitudes, [0.5, 1 / math.sqrt(2), 0.5])


def test_coherent_state_norm_random():
    rng = np.random.default_rng(50)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        st = coherent_state(haar_random_su(k, rng), n)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


def test_coherent_state_matches_tensor_power_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        u = haar_random_su(2, rng)
        st = coherent_state(u, n)
        embedded = dicke_embedding(2, n) @ st.amplitudes
        direct = u.reference_column()
        for _ in range(n - 1):
            direct = np.kron(direct, u.reference_column())
        assert np.max(np.abs(embedded - direct)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(0, 6), kind=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_coherent_state_is_the_first_column_of_the_symmetric_power(k, n, kind, seed):
    u = structured_unitary(k, kind, np.random.default_rng(seed))
    reference = symmetric_power_matrix(u.matrix, n)[:, 0]
    assert np.max(np.abs(coherent_state(u, n).amplitudes - reference)) <= 1e-12


def test_coherent_state_at_the_caps_matches_the_amplitude_loop():
    # sqrt(N!/prod n_j!) * prod u_j^{n_j}, one occupation and one level at a time
    u = haar_random_su(6, np.random.default_rng(52))
    col = u.reference_column()
    looped = []
    for occ in occupation_basis(6, 12):
        amp = math.sqrt(math.factorial(12) / math.prod(math.factorial(x) for x in occ))
        for uj, nj in zip(col, occ):
            amp *= uj**nj
        looped.append(amp)
    assert np.max(np.abs(coherent_state(u, 12).amplitudes - np.array(looped))) <= 1e-12


# -------------------------------------------------------------------- overlap

def test_overlap_equal_unitaries():
    u = haar_random_su(3, 52)
    assert abs(overlap(u, u, 5) - 1.0) < 1e-12


def test_overlap_splitting_identity():
    rng = np.random.default_rng(53)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        u, v = haar_random_su(k, rng), haar_random_su(k, rng)
        full = overlap(u, v, n)
        for n_x in range(1, n):
            assert abs(full - overlap(u, v, n_x) * overlap(u, v, n - n_x)) < 1e-12


def test_overlap_matches_dicke_inner_product():
    rng = np.random.default_rng(54)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 8))
        u, v = haar_random_su(k, rng), haar_random_su(k, rng)
        dicke = coherent_state(u, n).overlap(coherent_state(v, n))
        assert abs(dicke - overlap(u, v, n)) < 1e-12


# ------------------------------------------------------------- haar_random_su

def test_haar_columns_are_orthonormal():
    u = haar_random_su(4, 55)
    assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(4))) < 1e-12


def test_haar_deterministic_per_seed():
    assert np.array_equal(haar_random_su(3, 77).matrix, haar_random_su(3, 77).matrix)


def test_haar_first_moment():
    # |U_00|^2 ~ Beta(1, K-1) under Haar: mean 1/K, var (K-1)/(K^2 (K+1))
    k, samples = 3, 10_000
    rng = np.random.default_rng(56)
    values = np.array([abs(haar_random_su(k, rng).matrix[0, 0]) ** 2 for _ in range(samples)])
    sigma = math.sqrt((k - 1) / (k**2 * (k + 1)) / samples)
    assert abs(values.mean() - 1.0 / k) < 3.0 * sigma


# ------------------------------------------------------ symmetric_power_matrix

def test_symmetric_power_is_unitary():
    rng = np.random.default_rng(57)
    for k, n in ((2, 4), (3, 3), (4, 2)):
        u = haar_random_su(k, rng)
        s = symmetric_power_matrix(u.matrix, n)
        assert np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))) < 1e-12


def test_symmetric_power_matches_tensor_power_oracle():
    rng = np.random.default_rng(58)
    for n in (1, 2, 4, 6):
        u = haar_random_su(2, rng)
        e = dicke_embedding(2, n)
        for _ in range(5):
            amps = rng.standard_normal(dicke_dim(2, n)) + 1j * rng.standard_normal(dicke_dim(2, n))
            amps /= np.linalg.norm(amps)
            via_dicke = e @ (symmetric_power_matrix(u.matrix, n) @ amps)
            via_tensor = apply_tensor_power(u.matrix, e @ amps, n)
            assert np.max(np.abs(via_dicke - via_tensor)) < 1e-12


def test_apply_unitary_moves_coherent_labels():
    rng = np.random.default_rng(59)
    u = haar_random_su(2, rng)
    v = haar_random_su(2, rng)
    moved = apply_unitary(v, coherent_state(u, 3))
    expected = coherent_state(SuUnitary(v.matrix @ u.matrix), 3)
    # same coherent label up to the phase of the reference column
    assert abs(abs(moved.overlap(expected)) - 1.0) < 1e-12


EDGE_OFFSETS = st.floats(min_value=-16.0, max_value=-11.0).map(lambda e: 10.0 ** e)
PHASES = st.floats(min_value=0.0, max_value=2 * math.pi)


@settings(max_examples=200, deadline=None)
@given(offset=EDGE_OFFSETS, near_one=st.booleans(), phase_a=PHASES, phase_b=PHASES, phase=PHASES)
def test_closed_form_pair_powers_match_monomial_expansion(offset, near_one, phase_a, phase_b, phase):
    # U(2) = [[a, -b* e^{i phase}], [b, a* e^{i phase}]] with |a| within 1e-11 of 1 or of 0;
    # phase = pi gives the tunneling map [[r, t*], [t, -r*]]
    if near_one:
        a_mag, b_mag = 1.0 - offset, math.sqrt(offset * (2.0 - offset))
    else:
        a_mag, b_mag = offset, math.sqrt(1.0 - offset**2)
    a, b, e = a_mag * np.exp(1j * phase_a), b_mag * np.exp(1j * phase_b), np.exp(1j * phase)
    u2 = np.array([[a, -np.conj(b) * e], [b, np.conj(a) * e]])
    powers = _pair_powers(8, u2)
    for m in range(9):
        assert np.max(np.abs(powers[m] - symmetric_power_matrix(u2, m))) <= 1e-12


def structured_unitary(k: int, kind: int, rng) -> SuUnitary:
    """Haar; a permutation with phases, whose Givens factors are mostly
    absent; or a rotation of levels 0 and K-1 alone by an angle down to
    1e-8, whose one Givens factor is close to the identity."""
    if kind == 0:
        return haar_random_su(k, rng)
    if kind == 1:
        return SuUnitary(np.eye(k)[rng.permutation(k)] * np.exp(2j * np.pi * rng.random(k)))
    angle, phase = 10.0 ** (-8.0 * rng.random()), np.exp(2j * np.pi * rng.random())
    u = np.eye(k, dtype=complex)
    u[np.ix_([0, k - 1], [0, k - 1])] = [[math.cos(angle), -math.sin(angle) * np.conj(phase)],
                                         [math.sin(angle) * phase, math.cos(angle)]]
    return SuUnitary(u)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), n=st.integers(0, 6), kind=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_apply_unitary_matches_dense_symmetric_power(k, n, kind, seed):
    rng = np.random.default_rng(seed)
    u = structured_unitary(k, kind, rng)
    dim = dicke_dim(k, n)
    state = SymmetricState.normalized(k, n, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    dense = symmetric_power_matrix(u.matrix, n) @ state.amplitudes
    assert np.max(np.abs(apply_unitary(u, state).amplitudes - dense)) <= 1e-12


def test_apply_unitary_at_the_caps_moves_coherent_labels():
    # Sym^12(C^6) has dimension 6188; its dense symmetric power would take 612 MB
    rng = np.random.default_rng(60)
    u, v = haar_random_su(6, rng), haar_random_su(6, rng)
    moved = apply_unitary(v, coherent_state(u, 12)).amplitudes
    expected = coherent_state(SuUnitary(v.matrix @ u.matrix), 12).amplitudes
    phase = np.vdot(expected, moved)
    assert np.max(np.abs(moved - expected * phase / abs(phase))) <= 1e-12


# ---------------------------------------------------------- splitting_isometry

def test_isometry_property():
    for k, n, n_x in ((2, 4, 2), (3, 5, 1), (4, 3, 2)):
        m = splitting_isometry(k, n, n_x, n - n_x).matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))) < 1e-10


def test_isometry_rejects_bad_split():
    for n_x, n_y in ((0, 4), (4, 0), (2, 3)):
        with pytest.raises(ValueError):
            splitting_isometry(2, 4, n_x, n_y)


def test_isometry_sends_coherent_to_product():
    assert measure_isometry_action(2, 5, 2, 50, np.random.default_rng(60)) <= 1e-10


def test_isometry_preserves_coherent_grams():
    rng = np.random.default_rng(61)
    iso = splitting_isometry(3, 4, 2, 2).matrix
    unitaries = [haar_random_su(3, rng) for _ in range(10)]
    states = [coherent_state(u, 4).amplitudes for u in unitaries]
    for a in states:
        for b in states:
            before = np.vdot(a, b)
            after = np.vdot(iso @ a, iso @ b)
            assert abs(before - after) < 1e-12


def test_isometry_preserves_arbitrary_grams():
    rng = np.random.default_rng(62)
    iso = splitting_isometry(2, 6, 3, 3).matrix
    dim = dicke_dim(2, 6)
    vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(5)]
    for a in vecs:
        for b in vecs:
            assert abs(np.vdot(a, b) - np.vdot(iso @ a, iso @ b)) < 1e-10


def test_superposition_gets_schmidt_rank_two():
    rng = np.random.default_rng(63)
    u = haar_random_su(2, rng)
    v = haar_random_su(2, rng)
    assert abs(overlap(u, v, 1)) < 1 - 1e-3
    amps = coherent_state(u, 4).amplitudes + coherent_state(v, 4).amplitudes
    psi = SymmetricState.normalized(2, 4, amps)
    out = StateVector(splitting_isometry(2, 4, 2, 2).matrix @ psi.amplitudes)
    assert schmidt_decompose(out, dicke_dim(2, 2), dicke_dim(2, 2)).rank == 2


def test_image_membership_separates_coherent_products():
    # only matching coherent products lie in the image of the splitting map
    rng = np.random.default_rng(64)
    iso = splitting_isometry(2, 4, 2, 2).matrix
    proj = iso @ iso.conj().T
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prod = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert np.linalg.norm(proj @ prod) < 1.0 - 1e-6
    for _ in range(10):
        u = haar_random_su(2, rng)
        prod = np.kron(coherent_state(u, 2).amplitudes, coherent_state(u, 2).amplitudes)
        assert abs(np.linalg.norm(proj @ prod) - 1.0) < 1e-12
        back = iso.conj().T @ prod
        assert abs(abs(np.vdot(back, coherent_state(u, 4).amplitudes)) - 1.0) < 1e-12


def test_occupation_ranks_follow_basis_order():
    for k, n in ((2, 0), (2, 5), (3, 4), (5, 3), (12, 2)):
        occs = np.array(occupation_basis(k, n)).reshape(-1, k)
        assert np.array_equal(_occupation_ranks(occs), np.arange(len(occs)))


def test_gathered_splitting_matches_dense_isometry():
    rng = np.random.default_rng(67)
    for k, n in ((2, 2), (2, 5), (3, 4), (4, 3), (3, 6)):
        for n_x in range(1, n):
            dim = dicke_dim(k, n)
            psi = SymmetricState.normalized(k, n, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            dense = splitting_isometry(k, n, n_x, n - n_x).matrix @ psi.amplitudes
            assert np.max(np.abs(apply_splitting(psi, n_x, n - n_x) - dense)) < 1e-12
    psi = coherent_state(haar_random_su(2, 68), 4)
    for n_x, n_y in ((0, 4), (4, 0), (2, 3)):
        with pytest.raises(ValueError):
            apply_splitting(psi, n_x, n_y)


def test_gathered_splitting_at_the_caps_sends_coherent_to_product():
    u = haar_random_su(6, 69)
    out = apply_splitting(coherent_state(u, 12), 6, 6)
    prod = np.kron(coherent_state(u, 6).amplitudes, coherent_state(u, 6).amplitudes)
    assert np.max(np.abs(out - prod)) < 1e-12


def test_dense_isometry_beyond_memory_guard_raises():
    # 213444 x 6188 complex entries, 19.7 GiB
    with pytest.raises(ValueError, match="19.7 GiB"):
        splitting_isometry(6, 12, 6, 6)


def test_symmetric_power_beyond_memory_guard_raises():
    # Sym^12(C^12) has dimension 1352078
    with pytest.raises(ValueError, match="1352078 x 1352078"):
        symmetric_power_matrix(np.eye(12), 12)


# ------------------------------------------------------ splitting faithfulness

def test_faithfulness_report_passes():
    neg, product, entropy = measure_splitting_faithfulness(2, 3, 1, 8, np.random.default_rng(65))
    assert neg <= 1e-10
    assert product <= 1e-10
    assert entropy > 1e-8


def test_faithfulness_classical_pure_state_is_product():
    u = haar_random_su(2, 66)
    iso = splitting_isometry(2, 3, 1, 2).matrix
    out = StateVector(iso @ coherent_state(u, 3).amplitudes)
    sd = schmidt_decompose(out, dicke_dim(2, 1), dicke_dim(2, 2))
    assert sd.rank == 1


# --------------------------------------------------------------- SymmetricState

def test_symmetric_state_validation():
    with pytest.raises(ValueError):
        SymmetricState(2, 2, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        SymmetricState(2, 2, np.array([1.0, 0.0]))  # wrong length


@pytest.mark.parametrize("build", [
    lambda: SymmetricState(2, 2, [math.nan, 0.0, 0.0]),
    lambda: SymmetricState.normalized(2, 1, [math.inf, 1.0]),
    lambda: SuUnitary([[math.nan, 0.0], [0.0, 1.0]]),
], ids=["SymmetricState", "SymmetricState.normalized", "SuUnitary"])
def test_non_finite_entries_rejected(build):
    with pytest.raises(ValueError) as err:
        build()
    assert "\n" not in str(err.value)


def test_symmetric_state_caps():
    with pytest.raises(ValueError):
        SymmetricState(7, 1, np.zeros(7))
