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
    _built_density,
    _check_dense,
    _check_density,
    _frame_unitary,
    _sealed,
    factor_gram,
    gram_of,
    positive_frame,
    random_state,
)

INDEPENDENCE_TOL = 1e-10   # min Gram eigenvalue required for linear independence
EPS_CAP = 1e6              # beyond this default_epsilon takes 1.0, not half the range
UNIT_ROUNDOFF = np.finfo(float).eps / 2


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
    build_conversion, the one constructor, makes it. It also keeps the
    classical states A (columns) and the residuals |V c_i - d_i (x) e_i|, from
    which convert_density certifies how far V rho V^dag is from separable."""

    isometry: np.ndarray
    reference: StateVector
    _classical: np.ndarray = field(repr=False, compare=False)
    _residuals: np.ndarray = field(repr=False, compare=False)

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
        is checked where it enters (a D x D operator that _check_density passes).
        The output V rho V^dag is a read-only built density (_built_density)
        that carries one fact, _separability_bound's beta at the cut D x D.
        That certificate is the trust: partial_transpose and negativity do not
        check the density again, and negativity at the cut D x D returns 0.0
        without forming rho^T_B where beta <= DENSITY_TOL / D^2."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"density operator has shape {rho.shape}, expected square dim {self.dim}")
        rho = _check_density(rho)
        sigma = self.isometry @ rho @ self.isometry.conj().T
        beta = _separability_bound(self.isometry, self._classical, self._residuals, rho)
        return _built_density(sigma, self.dim, beta)


def _separability_bound(v: np.ndarray, a: np.ndarray, residuals: np.ndarray, rho: np.ndarray) -> float:
    """beta with lambda_min(H) >= -beta, for H the Hermitian matrix that
    eigvalsh and Cholesky read (one triangle) of fl(V rho V^dag)^T_B at the
    cut D x D, from D x D data and one D x D product of V.

    For w >= 0, T = sum_i w_i |d_i e_i><d_i e_i| is separable with T^T_B PSD,
    and H - T^T_B is the one-triangle Hermitian part of Y^T_B with
    Y = V(rho - A diag(w) A^dag)V^dag + sum_i w_i (x_i x_i^dag - b_i b_i^dag) + E,
    x_i = V c_i, b_i = d_i (x) e_i, E = fl(V rho V^dag) - V rho V^dag. Partial
    transposition keeps the Frobenius norm, and one triangle's Hermitian part
    at most multiplies it by sqrt(2) (not at all for the Hermitian middle
    term, whose norm is at most |x_i - b_i| (|V| + 1)). So
    beta = sqrt(2) (|V|^2 |rho - A diag(w) A^dag|_F + |E|_F)
           + (|V| + 1) sum_i w_i |V c_i - b_i|
    holds for any w >= 0 and however inexact V is; w is the clamped diagonal
    of A^-1 rho A^-dag, from two solves. |V|^2 <= 1 + |V^dag V - I|_F, and
    every computed term carries its first-order roundoff allowance (complex
    inner products of length m within sqrt(2) (m + 2) u, u the unit roundoff)."""
    dim = a.shape[0]
    gamma = math.sqrt(2.0) * (dim + 2) * UNIT_ROUNDOFF
    v_frob = float(np.linalg.norm(v))
    gram = v.conj().T @ v
    gram.flat[::dim + 1] -= 1.0
    v_sq = 1.0 + float(np.linalg.norm(gram)) + math.sqrt(2.0) * (dim * dim + 2) * UNIT_ROUNDOFF * v_frob**2
    v_norm = math.sqrt(v_sq)
    x = np.linalg.solve(a, np.linalg.solve(a, rho).conj().T)
    w = np.maximum(x.diagonal().real, 0.0)
    mixture_miss = float(np.linalg.norm(rho - (a * w) @ a.conj().T)) + 2.0 * gamma * float(w.sum())
    product_miss = float(w @ (residuals + gamma * v_frob + 4.0 * UNIT_ROUNDOFF))
    rounding = 2.0 * gamma * v_norm * v_frob * float(np.linalg.norm(rho))
    return math.sqrt(2.0) * (v_sq * mixture_miss + rounding) + (v_norm + 1.0) * product_miss


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
    The ancilla's reference state is the first classical state. The peak, about
    five D^2 x D arrays, is refused past MAX_DENSE_BYTES (D >= 343) before B is formed.
    """
    if len(split.d_states) != cs.dim:
        raise ValueError("split size does not match the classical set")
    _check_dense(cs.dim**2, 5 * cs.dim, f"conversion working set at D={cs.dim} (five D^2 x D arrays)")
    a = np.column_stack([c.amplitudes for c in cs.states])
    d = np.column_stack([s.amplitudes for s in split.d_states])
    e = np.column_stack([s.amplitudes for s in split.e_states])
    b = (d[:, None, :] * e[None, :, :]).reshape(-1, cs.dim)  # column i is d_i (x) e_i
    v = positive_frame(b) @ positive_frame(a).conj().T
    miss = v @ a - b
    residual = float(np.max(np.abs(miss)))
    if residual > UNITARY_TOL:
        raise GramMismatchError(
            f"conversion misses the product states by {residual:.3e}; the Grams differ")
    return _built(Conversion, isometry=_sealed(v), reference=cs.states[0],
                  _classical=_sealed(a), _residuals=_sealed(np.linalg.norm(miss, axis=0)))


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
