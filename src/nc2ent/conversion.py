"""Discrete non-classicality conversion: split the Gram matrix of a linearly
independent classical set into two positive factors, build the isometry
V = B A^-1 that sends each classical state |c_i> (columns of A) to the
product state |d_i> (x) |e_i> (columns of B), and check that the Schmidt rank
of converted states equals the number of classical terms the input needs (its
classical rank). A unitary on the bipartite space that acts as V on
C^D (x) |ref> is completed only when asked for."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    GramMatrix,
    GramMismatchError,
    PSD_TOL,
    RANK_RTOL,
    UNITARY_TOL,
    StateVector,
    _built,
    _check_density,
    _frame_unitary,
    factor_gram,
    gram_of,
    positive_frame,
    random_state,
)

INDEPENDENCE_TOL = 1e-10   # min Gram eigenvalue required for linear independence
EPS_CAP = 1e6              # beyond this default_epsilon takes 1.0, not half the range


@dataclass(frozen=True)
class ClassicalSet:
    """Ordered family of D linearly independent unit vectors spanning C^D."""

    states: tuple[StateVector, ...]
    gram: GramMatrix = field(init=False)

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("classical set must be nonempty")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise ValueError("classical states must share one dimension")
        if len(states) != dim:
            raise ValueError(
                f"need exactly {dim} states in dimension {dim}, got {len(states)}"
            )
        gram = gram_of(list(states))
        lam = gram.min_eigenvalue()
        if lam <= INDEPENDENCE_TOL:
            raise ValueError(
                f"classical states are not linearly independent (min Gram eigenvalue {lam:.3e})"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "gram", gram)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True)
class SplitSpec:
    """One way of splitting the classical overlaps between two subsystems:
    gram_d has constant off-diagonal 1/(1+eps), gram_e carries the classical
    overlaps scaled by (1+eps), and their entrywise product reproduces the
    classical Gram."""

    gram_d: GramMatrix
    gram_e: GramMatrix
    d_states: tuple[StateVector, ...]
    e_states: tuple[StateVector, ...]


@dataclass(frozen=True)
class Conversion:
    """Conversion isometry V: C^D -> C^D (x) C^D, together with the reference
    state of the ancilla. V is the action on C^D (x) |ref> of any conversion
    unitary; one such unitary, like V a read-only array, is completed on demand.
    Nothing is checked here: convert relies on V being an isometry, as
    build_conversion makes it."""

    isometry: np.ndarray
    reference: StateVector

    @property
    def dim(self) -> int:
        return self.isometry.shape[1]

    @cached_property
    def unitary(self) -> np.ndarray:
        """A unitary on C^D (x) C^D that maps |k> (x) |ref> onto V|k>: _frame_unitary
        completes the two frames, orthonormal by construction, and checks nothing again."""
        source = np.kron(np.eye(self.dim), self.reference.amplitudes[:, None])  # column k is |k> (x) |ref>
        return _frame_unitary(source, self.isometry)

    def convert(self, psi: StateVector) -> StateVector:
        """Apply the conversion to a pure input; output lives on C^D (x) C^D."""
        if psi.dim != self.dim:
            raise ValueError(f"input has dimension {psi.dim}, expected {self.dim}")
        return _built(StateVector, amplitudes=self.isometry @ psi.amplitudes)

    def convert_density(self, rho: np.ndarray) -> np.ndarray:
        """Apply the conversion to a density operator on the input space, which
        is checked where it enters (a D x D operator that _check_density passes)."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"density operator has shape {rho.shape}, expected square dim {self.dim}")
        rho = _check_density(rho)
        return self.isometry @ rho @ self.isometry.conj().T


def uniform_overlap_gram(lam: float, dim: int) -> GramMatrix:
    """Gram matrix with unit diagonal and every off-diagonal entry lam;
    positive definite iff lam < 1 (eigenvalues 1-lam and 1+(dim-1)lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"off-diagonal overlap must lie in [0, 1], got {lam}")
    g = np.full((dim, dim), complex(lam))
    np.fill_diagonal(g, 1.0)
    return GramMatrix(g)


def feasible_split(lam, epsilon, boundary_ok: bool = False):
    """The one split-feasibility decision, elementwise: for lam = lambda_min(G),
    lambda_min((1+eps)G - eps I) = 1 - (1+eps)(1 - lam) must exceed 1e-10, or
    with boundary_ok reach -PSD_TOL. Returns (that eigenvalue, the verdict)."""
    min_eig = 1.0 - (1.0 + epsilon) * (1.0 - lam)
    return min_eig, (min_eig >= -PSD_TOL if boundary_ok else min_eig > INDEPENDENCE_TOL)


def _epsilon_bound(lam: float, floor: float) -> float:
    """The eps at which 1 - (1+eps)(1 - lam) meets floor; inf for lam >= 1."""
    return (lam - floor) / (1.0 - lam) if lam < 1.0 else math.inf


def check_split(lam: float, epsilon: float, boundary_ok: bool = False) -> float:
    """feasible_split's eigenvalue, or a one-line ValueError for an eps that is
    not finite, negative, zero without boundary_ok, or infeasible (naming the bound)."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0.0 or (epsilon == 0.0 and not boundary_ok):
        raise ValueError(f"epsilon must be {'nonnegative' if boundary_ok else 'positive'}, got {epsilon}")
    min_eig, feasible = feasible_split(lam, epsilon, boundary_ok)
    if not feasible:  # then lam < 1: the bound is finite
        floor, relation = (-PSD_TOL, "<=") if boundary_ok else (INDEPENDENCE_TOL, "<")
        raise ValueError(
            f"epsilon={epsilon} is infeasible: scaled Gram has min eigenvalue "
            f"{min_eig:.3e} (feasible range is eps {relation} {_epsilon_bound(lam, floor):.12g})"
        )
    return min_eig


def epsilon_max(cs: ClassicalSet) -> float:
    """Supremum of the feasible eps, (lambda_min(G) - 1e-10) / (1 - lambda_min(G)),
    the bound check_split names; finite unless lambda_min(G) >= 1 (an orthonormal set)."""
    return _epsilon_bound(cs.gram.min_eigenvalue(), INDEPENDENCE_TOL)


def default_epsilon(cs: ClassicalSet) -> float:
    """Interior default: half the feasible range, or 1.0 when the range exceeds EPS_CAP."""
    emax = epsilon_max(cs)
    return 1.0 if emax > EPS_CAP else emax / 2.0


def make_split(cs: ClassicalSet, epsilon: float, boundary_ok: bool = False) -> SplitSpec:
    """Split the classical Gram into the constant-overlap factor (overlap
    1/(1+eps)) and the scaled-overlap factor, and factor both into explicit
    state families.

    check_split is the only feasibility decision (with boundary_ok it admits
    eps = 0 and lambda_min down to -PSD_TOL). The scaled factor is built with
    that eigenvalue and not re-checked. The entrywise product of the factors
    is the classical Gram by construction, to a few ulps off the diagonal and
    exactly 1 on it.
    """
    min_eig = check_split(cs.gram.min_eigenvalue(), epsilon, boundary_ok)
    scaled = cs.gram.entries * (1.0 + epsilon)
    np.fill_diagonal(scaled, 1.0)
    gram_d = uniform_overlap_gram(1.0 / (1.0 + epsilon), cs.dim)
    gram_e = _built(GramMatrix, entries=scaled, _min_eig=min_eig)
    return SplitSpec(gram_d=gram_d, gram_e=gram_e,
                     d_states=tuple(factor_gram(gram_d)), e_states=tuple(factor_gram(gram_e)))


def build_conversion(cs: ClassicalSet, split: SplitSpec) -> Conversion:
    """Build the conversion isometry V = B A^-1, where the columns of A are the
    classical states |c_i> and the columns of B the products |d_i> (x) |e_i>.

    Both families share the classical Gram (the product-family Gram is the
    entrywise product of the factor Grams), so A = Q_A R and B = Q_B R with
    one triangular R, and V = Q_B Q_A^dag. Built from the orthonormal frames,
    V is an isometry to roundoff however small lambda_min(G) is; a V that
    misses some |d_i> (x) |e_i> by more than 1e-10 raises GramMismatchError.
    The ancilla's reference state is the first classical state.
    """
    if len(split.d_states) != cs.dim:
        raise ValueError("split size does not match the classical set")
    a = np.column_stack([c.amplitudes for c in cs.states])
    d = np.column_stack([s.amplitudes for s in split.d_states])
    e = np.column_stack([s.amplitudes for s in split.e_states])
    b = (d[:, None, :] * e[None, :, :]).reshape(-1, cs.dim)  # column i is d_i (x) e_i
    v = positive_frame(b) @ positive_frame(a).conj().T
    residual = float(np.max(np.abs(v @ a - b)))
    if residual > UNITARY_TOL:
        raise GramMismatchError(
            f"conversion misses the product states by {residual:.3e}; the Grams differ")
    return _built(Conversion, isometry=v, reference=cs.states[0])


def classical_rank(psi: StateVector, cs: ClassicalSet) -> int:
    """Number of classical states needed to expand psi: the expansion is
    unique by linear independence, and coefficients below 1e-10 times the
    largest count as zero."""
    if psi.dim != cs.dim:
        raise ValueError(f"state has dimension {psi.dim}, expected {cs.dim}")
    basis = np.column_stack([c.amplitudes for c in cs.states])
    coeffs = np.linalg.solve(basis, psi.amplitudes)
    mags = np.abs(coeffs)
    return int(np.sum(mags > RANK_RTOL * mags.max()))


def random_classical_set(dim: int, rng: np.random.Generator) -> ClassicalSet:
    """Random classical set, resampled until its Gram's min eigenvalue exceeds
    1e-3, far above the independence floor; that Gram becomes the set's own."""
    for _ in range(200):
        states = tuple(random_state(dim, rng) for _ in range(dim))
        gram = gram_of(list(states))
        if gram.min_eigenvalue() > 1e-3:
            return _built(ClassicalSet, states=states, gram=gram)
    raise RuntimeError("failed to sample a well-conditioned classical set")


def random_superposition(cs: ClassicalSet, support: int,
                         rng: np.random.Generator) -> tuple[StateVector, int]:
    """Random superposition of `support` distinct classical states; returns the
    state and its classical rank (equal to `support` for generic coefficients)."""
    if not 1 <= support <= cs.dim:
        raise ValueError(f"support must lie in 1..{cs.dim}")
    idx = rng.choice(cs.dim, size=support, replace=False)
    coeffs = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    vec = sum(c * cs.states[i].amplitudes for c, i in zip(coeffs, idx))
    psi = StateVector.normalized(vec)
    return psi, classical_rank(psi, cs)
