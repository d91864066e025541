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
    Operator,
    PSD_TOL,
    RANK_RTOL,
    UNITARY_TOL,
    StateVector,
    basis_state,
    factor_gram,
    gram_of,
    positive_frame,
    random_state,
    synthesize_unitary,
)

INDEPENDENCE_TOL = 1e-10   # min Gram eigenvalue required for linear independence
EPS_CAP = 1e6              # beyond this the feasible range is reported as infinite


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

    epsilon: float
    gram_d: GramMatrix
    gram_e: GramMatrix
    d_states: tuple[StateVector, ...]
    e_states: tuple[StateVector, ...]


@dataclass(frozen=True)
class Conversion:
    """Conversion isometry V: C^D -> C^D (x) C^D, together with the reference
    state of the ancilla. V is the action on C^D (x) |ref> of any conversion
    unitary; one such unitary is completed on demand."""

    isometry: Operator
    reference: StateVector

    @property
    def dim(self) -> int:
        return self.isometry.cols

    @cached_property
    def unitary(self) -> Operator:
        """A unitary on C^D (x) C^D that maps |k> (x) |ref> onto V|k>."""
        d = self.dim
        from_states = [basis_state(d, k).tensor(self.reference) for k in range(d)]
        to_states = [StateVector(col) for col in self.isometry.matrix.T]
        return synthesize_unitary(from_states, to_states)

    def convert(self, psi: StateVector) -> StateVector:
        """Apply the conversion to a pure input; output lives on C^D (x) C^D."""
        if psi.dim != self.dim:
            raise ValueError(f"input has dimension {psi.dim}, expected {self.dim}")
        return StateVector(self.isometry.matrix @ psi.amplitudes)

    def convert_density(self, rho: np.ndarray) -> np.ndarray:
        """Apply the conversion to a density operator on the input space."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"density operator has shape {rho.shape}, expected square dim {self.dim}")
        v = self.isometry.matrix
        return v @ rho @ v.conj().T


def uniform_overlap_gram(lam: float, dim: int) -> GramMatrix:
    """Gram matrix with unit diagonal and every off-diagonal entry lam;
    positive definite iff lam < 1 (eigenvalues 1-lam and 1+(dim-1)lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"off-diagonal overlap must lie in [0, 1], got {lam}")
    g = np.full((dim, dim), complex(lam))
    np.fill_diagonal(g, 1.0)
    return GramMatrix(g)


def epsilon_max(cs: ClassicalSet) -> float:
    """Supremum of eps for which scaling the classical overlaps by (1+eps)
    keeps the minimum eigenvalue of the scaled Gram (1+eps)G - eps I, which
    is 1 - (1+eps)(1 - lambda_min(G)), above the independence floor 1e-10:
    (lambda_min(G) - 1e-10) / (1 - lambda_min(G)). Returns inf when that
    exceeds 1e6 (e.g. orthogonal classical states)."""
    lam = cs.gram.min_eigenvalue()
    room = lam - INDEPENDENCE_TOL
    if room > EPS_CAP * (1.0 - lam):
        return math.inf
    return room / (1.0 - lam)


def default_epsilon(cs: ClassicalSet) -> float:
    """Interior default: half the feasible range, or 1.0 when it is infinite."""
    emax = epsilon_max(cs)
    return 1.0 if math.isinf(emax) else emax / 2.0


def make_split(cs: ClassicalSet, epsilon: float, boundary_ok: bool = False) -> SplitSpec:
    """Split the classical Gram into the constant-overlap factor (overlap
    1/(1+eps)) and the scaled-overlap factor, and factor both into explicit
    state families.

    Requires both factors positive definite; with boundary_ok the degenerate
    endpoints (eps = 0 or a singular scaled factor) are admitted for probing.
    The entrywise product of the factors is the classical Gram by
    construction, to a few ulps off the diagonal and exactly 1 on it.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0.0 or (epsilon == 0.0 and not boundary_ok):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    mu = 1.0 / (1.0 + epsilon)
    min_eig = 1.0 - (1.0 + epsilon) * (1.0 - cs.gram.min_eigenvalue())  # as in epsilon_max
    feasible = min_eig >= -PSD_TOL if boundary_ok else min_eig > INDEPENDENCE_TOL
    if not feasible:
        raise ValueError(
            f"epsilon={epsilon} is infeasible: scaled Gram has min eigenvalue "
            f"{min_eig:.3e} (feasible range is eps < {epsilon_max(cs):.6g})"
        )
    scaled = cs.gram.entries * (1.0 + epsilon)
    np.fill_diagonal(scaled, 1.0)
    gram_d = uniform_overlap_gram(mu, cs.dim)
    gram_e = GramMatrix(scaled)
    return SplitSpec(epsilon=float(epsilon), gram_d=gram_d, gram_e=gram_e,
                     d_states=tuple(factor_gram(gram_d)), e_states=tuple(factor_gram(gram_e)))


def build_conversion(cs: ClassicalSet, split: SplitSpec,
                     reference: StateVector | None = None) -> Conversion:
    """Build the conversion isometry V = B A^-1, where the columns of A are the
    classical states |c_i> and the columns of B the products |d_i> (x) |e_i>.

    Both families share the classical Gram (the product-family Gram is the
    entrywise product of the factor Grams), so A = Q_A R and B = Q_B R with
    one triangular R, and V = Q_B Q_A^dag. Built from the orthonormal frames,
    V is an isometry to roundoff however small lambda_min(G) is; a V that
    misses some |d_i> (x) |e_i> by more than 1e-10 raises GramMismatchError.
    The default reference is the first classical state.
    """
    if reference is None:
        reference = cs.states[0]
    if reference.dim != cs.dim:
        raise ValueError(f"reference has dimension {reference.dim}, expected {cs.dim}")
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
    return Conversion(isometry=Operator(v), reference=reference)


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


def random_classical_set(dim: int, rng: np.random.Generator,
                         min_gram_eig: float = 1e-3) -> ClassicalSet:
    """Random linearly independent classical set, resampled until the Gram is
    well conditioned (min eigenvalue above min_gram_eig)."""
    for _ in range(200):
        states = tuple(random_state(dim, rng) for _ in range(dim))
        gram = gram_of(list(states))
        if gram.min_eigenvalue() > min_gram_eig:
            return ClassicalSet(states=states)
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
