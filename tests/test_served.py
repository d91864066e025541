"""Whatever a public constructor accepts, the pipeline serves: each entry
decision reads the same floor as the check its output meets later, so an
accepted value either runs through, or is refused where it enters with a
message that names its own reason, never a later "not normalized"."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nc2ent.conversion import ClassicalSet, build_conversion, epsilon_max, make_split, random_classical_set
from nc2ent.linalg import NORM_TOL, PSD_TOL, GramMatrix, factor_gram
from nc2ent.modesplit import ProtocolConfig, run_protocol
from nc2ent.symmetric import (
    MAX_LEVELS,
    PARTICLE_UNITARY_TOL,
    SuUnitary,
    SymmetricState,
    apply_unitary,
    coherent_state,
    dicke_dim,
    haar_random_su,
)

from test_conversion import uniform_overlap_set


def classical_set(dim: int, uniform: bool, overlap: float, seed: int) -> ClassicalSet:
    """A uniform-overlap set, or a random set with lambda_min(G) > 1e-3. Both
    stay clear of the independence floor, whose GramMismatchError is a
    separate decision."""
    if uniform:
        return uniform_overlap_set(1.0 - overlap, dim)
    return random_classical_set(dim, np.random.default_rng(seed))


def epsilon_for(lam: float, target: float) -> float:
    """The eps at which the scaled factor's closed-form lambda_min,
    1 - (1+eps)(1 - lam), is target."""
    return (lam - target) / (1.0 - lam)


split_cases = dict(dim=st.integers(2, 16), uniform=st.booleans(), overlap=st.floats(0.5, 0.999),
                   target=st.floats(-1e-10, 1e-10), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(**split_cases)
@example(dim=3, uniform=False, overlap=0.5, target=-5e-12, seed=0)
@example(dim=8, uniform=True, overlap=0.9, target=-2e-12, seed=0)
def test_boundary_split_converts_or_is_refused_as_infeasible(dim, uniform, overlap, target, seed):
    cs = classical_set(dim, uniform, overlap, seed)
    assume(epsilon_max(cs) <= 1.0)
    lam = cs.gram.min_eigenvalue()
    try:
        split = make_split(cs, epsilon_for(lam, target), boundary_ok=True)
    except ValueError as err:
        assert "is infeasible" in str(err) and "feasible range is eps <=" in str(err), str(err)
        assert target < -PSD_TOL / 2
        return
    assert split.gram_e.min_eigenvalue() >= -PSD_TOL
    conv = build_conversion(cs, split)
    for c in cs.states:
        assert abs(np.linalg.norm(conv.convert(c).amplitudes) - 1.0) <= NORM_TOL


@settings(max_examples=150, deadline=None)
@given(**split_cases)
@example(dim=16, uniform=False, overlap=0.5, target=-5e-11, seed=1)
def test_caller_gram_at_the_psd_floor_factors_or_is_refused(dim, uniform, overlap, target, seed):
    # a caller Gram with an exact unit diagonal and lambda_min about target
    cs = classical_set(dim, uniform, overlap, seed)
    entries = cs.gram.entries * (1.0 + epsilon_for(cs.gram.min_eigenvalue(), target))
    np.fill_diagonal(entries, 1.0)
    try:
        gram = GramMatrix(entries)
    except ValueError as err:
        assert str(err) == "Gram matrix is not positive semidefinite"
        assert target < 0.0
        return
    columns = factor_gram(gram)
    assert all(abs(np.linalg.norm(c.amplitudes) - 1.0) <= NORM_TOL for c in columns)


def test_gram_below_the_psd_floor_is_refused_where_it_enters():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        GramMatrix([[1.0, 1.0 + 5e-11], [1.0 + 5e-11, 1.0]])


# ------------------------------------------------------- per-particle maps

def dft(k: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k) / math.sqrt(k)


def edge_matrix(k: int, worst: bool, share: float, seed: int) -> np.ndarray:
    """V1 diag(sqrt(1 + tau s)) V2, whose UU^dag - I = tau V1 diag(s) V1^dag
    has its largest entry at share * PARTICLE_UNITARY_TOL. In the worst case
    V1 is the DFT, s = (k, 0, ..., 0) and V2 = I: every entry of UU^dag - I
    is equal, and the reference column's squared norm is off by k times one."""
    rng = np.random.default_rng(seed)
    if worst:
        v1, s, v2 = dft(k), np.eye(k)[0] * k, np.eye(k)
    else:
        v1, s, v2 = haar_random_su(k, rng).matrix, rng.uniform(-1.0, 1.0, k), haar_random_su(k, rng).matrix
    tau = share * PARTICLE_UNITARY_TOL / np.max(np.abs((v1 * s) @ v1.conj().T))
    return (v1 * np.sqrt(1.0 + tau * s)) @ v2


@settings(max_examples=120, deadline=None)
@given(k=st.integers(2, MAX_LEVELS), n=st.integers(0, 12), worst=st.booleans(),
       share=st.floats(0.5, 0.98), seed=st.integers(0, 2**32 - 1))
@example(k=6, n=12, worst=True, share=0.98, seed=0)
def test_su_label_at_the_accepted_edge_keeps_unit_norm(k, n, worst, share, seed):
    try:
        u = SuUnitary(edge_matrix(k, worst, share, seed))
    except ValueError:
        assume(False)  # roundoff carried the matrix past the edge: refused where it enters
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dicke_dim(k, n)) + 1j * rng.standard_normal(dicke_dim(k, n))
    outputs = [coherent_state(u, n), apply_unitary(u, SymmetricState.normalized(k, n, raw)),
               apply_unitary(u, coherent_state(u, n))]
    for state in outputs:
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= NORM_TOL


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, MAX_LEVELS), seed=st.integers(0, 2**32 - 1))
def test_unitaries_the_library_and_its_users_build_are_accepted(k, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    a, b = haar_random_su(k, rng), haar_random_su(k, rng)
    SuUnitary(a.matrix @ b.matrix)
    SuUnitary(np.eye(k)[rng.permutation(k)] * np.exp(2j * np.pi * rng.random(k)))
    SuUnitary(np.linalg.qr(z)[0])


def test_su_label_off_by_more_than_the_edge_is_refused():
    with pytest.raises(ValueError, match="not unitary"):
        SuUnitary(haar_random_su(3, 1).matrix * (1.0 + 4.9e-13))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 3), n=st.integers(2, 12), angle=st.floats(0.1, 1.47),
       phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
       share=st.floats(-0.98, 0.98), seed=st.integers(0, 2**32 - 1))
@example(k=2, n=12, angle=math.pi / 4, phases=(0.0, 0.0), share=0.98, seed=0)
def test_mode_pair_at_the_accepted_edge_runs_the_protocol(k, n, angle, phases, share, seed):
    scale = math.sqrt(1.0 + share * PARTICLE_UNITARY_TOL)  # |r|^2 + |t|^2 = 1 + share * tolerance
    r, t = cmath.rect(scale * math.cos(angle), phases[0]), cmath.rect(scale * math.sin(angle), phases[1])
    try:
        cfg = ProtocolConfig(r=r, t=t, target=(1, n - 1), max_rounds=4, seed=seed)
    except ValueError:
        assume(False)
    result = run_protocol(coherent_state(haar_random_su(k, seed), n), cfg)
    assert result.rounds == len(result.outcomes)


def test_mode_pair_off_by_more_than_the_edge_is_refused():
    with pytest.raises(ValueError, match=r"\|r\|\^2 \+ \|t\|\^2 must be 1"):
        ProtocolConfig(r=0.6, t=0.8 * (1.0 + 9e-13 / 1.28), target=(1, 1))
