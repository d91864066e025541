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
    UNIT_ROUNDOFF,
    UNITARY_TOL,
    StateVector,
    _built,
    _built_density,
    _check_dense,
    _check_density,
    _eigh_resolution,
    _factor_columns,
    _frame_unitary,
    _is_integer,
    _numerical_rank,
    _sealed,
    _sealed_matmul,
    positive_frame,
    random_state,
)

INDEPENDENCE_TOL = 1e-10   # min Gram eigenvalue required for linear independence
EPS_CAP = 1e6              # beyond this default_epsilon takes 1.0, not half the range
RESOLUTION_MARGIN = 2.0    # G_d's lambda_min must reach this many eigh resolutions; 1.33 was the most still clamped


@dataclass(frozen=True, eq=False)
class ClassicalSet:
    """Ordered family of D linearly independent unit vectors spanning C^D, refused unless some eps > 0 is
    feasible (_admits_epsilon, which asks 1 + nu > 1e-10), for nu = lambda_min(G - diag G), the one
    number every split decision reads. It is G's lambda_min - 1 with G read with an exact unit
    diagonal, and it keeps its digits however small the overlaps are. Its columns A are formed
    once and sealed (columns); G and nu come with them from one eigendecomposition (_set_facts)."""

    states: tuple[StateVector, ...]
    gram: GramMatrix = field(init=False)
    nu: float = field(init=False)
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("classical set must be nonempty")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise ValueError("classical states must share one dimension")
        if len(states) != dim:
            raise ValueError(f"need exactly {dim} states in dimension {dim}, got {len(states)}")
        facts = _set_facts(states)
        if not _admits_epsilon(facts["nu"]):
            raise ValueError(f"classical states are not linearly independent: min Gram eigenvalue "
                             f"{1.0 + facts['nu']!r} leaves no eps > 0 above the {INDEPENDENCE_TOL:g} floor")
        for name, value in dict(facts, states=states).items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def _set_facts(states: tuple[StateVector, ...]) -> dict:
    """A set's derived fields: its columns A, _sealed; G = A^dag A; and nu from one eigvalsh
    of G - diag G, which also gives lambda_min(G) = 1 + nu, so G stores no eigenvalue."""
    a = _sealed(np.column_stack([s.amplitudes for s in states]))
    g = a.conj().T @ a
    nu = float(np.linalg.eigvalsh(g - np.diag(g.diagonal()))[0])
    return dict(columns=a, gram=_built(GramMatrix, entries=g), nu=nu)


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """One way of splitting the classical overlaps between two subsystems at the
    eps make_split was called with: gram_d has constant off-diagonal 1/(1+eps),
    gram_e carries the classical overlaps scaled by (1+eps), and their entrywise
    product reproduces the classical Gram. d_columns and e_columns are their read-only factors, whose columns
    are the unit vectors d_i and e_i; d_states and e_states are those columns as states, built when read."""

    epsilon: float
    gram_d: GramMatrix
    gram_e: GramMatrix
    d_columns: np.ndarray = field(repr=False)
    e_columns: np.ndarray = field(repr=False)
    d_states = cached_property(lambda self: tuple(_built(StateVector, amplitudes=c) for c in self.d_columns.T))
    e_states = cached_property(lambda self: tuple(_built(StateVector, amplitudes=c) for c in self.e_columns.T))


@dataclass(frozen=True, eq=False)
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
    _classical: np.ndarray = field(repr=False)
    _residuals: np.ndarray = field(repr=False)

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
        """Apply the conversion to a pure input; the output V psi, on C^D (x) C^D, is frozen in place."""
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
        without forming rho^T_B where beta <= DENSITY_TOL / D^2. The output is
        (V rho) V^dag written once, straight into its sealed buffer (_sealed_matmul),
        so the one D^2 x D^2 array it holds is refused past MAX_DENSE_BYTES (from
        D = 120 on) with a one-line error before it is formed."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"density operator has shape {rho.shape}, expected square dim {self.dim}")
        n = self.dim**2
        _check_dense(n, n, f"converted density at D={self.dim} (V rho V^dag)")
        rho = _check_density(rho)
        sigma = _sealed_matmul(self.isometry @ rho, self.isometry.conj().T)
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
    if not (_is_integer(dim) and dim >= 1):
        raise ValueError(f"dimension dim must be a positive integer, got {dim!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"off-diagonal overlap must lie in [0, 1], got {lam}")
    return GramMatrix(_uniform_overlap(lam, dim))


def _uniform_overlap(lam: float, dim: int) -> np.ndarray:
    """The entries of uniform_overlap_gram(lam, dim), a fresh complex array, unchecked."""
    g = np.full((dim, dim), complex(lam))
    np.fill_diagonal(g, 1.0)
    return g


def feasible_split(nu, mu, boundary_ok: bool = False):
    """The one split-feasibility decision, elementwise, for nu = lambda_min(G - diag G)
    and mu = 1/(1+eps) in (0, 1]: lambda_min of the scaled factor, 1 + nu/mu, must
    exceed 1e-10, or with boundary_ok reach -PSD_TOL. It is decided times mu, as
    mu (1 - floor) + nu against 0, which forms no eps and neither divides nor overflows."""
    margin = mu * (1.0 - (-PSD_TOL if boundary_ok else INDEPENDENCE_TOL)) + nu
    return margin >= 0.0 if boundary_ok else margin > 0.0


def _epsilon_bound(nu: float, boundary_ok: bool = False) -> float:
    """The eps at which 1 + (1+eps) nu meets the floor, (1 - floor)/-nu - 1, moved down
    to where check_split's own decision agrees. That decision reads eps only through
    s = fl(1 + eps), so the closed form's s steps down to the largest s that feasible_split
    accepts, top, and the bound is top - 1, which 1 + bound reproduces (below 2^53 exactly;
    above it round-to-nearest gives back at most top). Every eps from 0 to the bound is
    then accepted, and every refused eps lies above it. inf only for nu >= 0 (G = I exactly)."""
    if nu >= 0.0:
        return math.inf
    top = (1.0 - (-PSD_TOL if boundary_ok else INDEPENDENCE_TOL)) / -nu
    while top > 1.0 and not feasible_split(nu, 1.0 / top, boundary_ok):
        top = math.nextafter(top, 0.0)
    return top - 1.0


def _admits_epsilon(nu):
    """The one independence decision, elementwise: some eps > 0 is feasible for nu, _epsilon_bound(nu) > 0.
    feasible_split only gains as s = fl(1 + eps) falls, so it is decided at the least s above 1."""
    return feasible_split(nu, 1.0 / math.nextafter(1.0, 2.0))


def check_split(nu: float, epsilon: float, boundary_ok: bool = False) -> None:
    """Return for an eps that feasible_split accepts; raise a one-line ValueError for one that is not
    finite, negative, zero without boundary_ok, or infeasible, naming the scaled factor's lambda_min
    1 + (1+eps) nu (formed for it alone) and _epsilon_bound in full: every eps below the printed number
    is accepted, every refused one exceeds it. The lower bound depends on D; build_conversion decides it."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon < 0.0 or (epsilon == 0.0 and not boundary_ok):
        raise ValueError(f"epsilon must be {'nonnegative' if boundary_ok else 'positive'}, got {epsilon}")
    if not feasible_split(nu, 1.0 / (1.0 + epsilon), boundary_ok):  # then nu < 0: the bound is finite
        raise ValueError(f"epsilon={epsilon} is infeasible: scaled Gram has min eigenvalue "
                         f"{1.0 + (1.0 + epsilon) * nu:.3e} (feasible range is eps {'<=' if boundary_ok else '<'} "
                         f"{_epsilon_bound(nu, boundary_ok)})")


def epsilon_max(cs: ClassicalSet) -> float:
    """The bound check_split names, (1 - 1e-10) / -nu - 1 with nu = cs.nu, to the
    last s = 1 + eps that check_split accepts: every eps below it is feasible.
    Infinite only when G = I exactly."""
    return _epsilon_bound(cs.nu)


def _epsilon_floor(dim: int) -> float:
    """The least eps whose G_d build_conversion resolves: 1 - mu = eps/(1+eps) reaches RESOLUTION_MARGIN times
    _eigh_resolution(D, 1 + (D-1) mu) = r (D+eps)/(1+eps), r = m D u, from eps = r D/(1 - r) on."""
    r = RESOLUTION_MARGIN * _eigh_resolution(dim, 1.0)
    return r * dim / (1.0 - r)


def default_epsilon(cs: ClassicalSet) -> float:
    """Interior default: half the feasible range, or 1.0 when the range exceeds EPS_CAP. Where half lies
    below _epsilon_floor and epsilon_max above it, the midpoint of the two, so the default converts."""
    emax, floor = epsilon_max(cs), _epsilon_floor(cs.dim)
    return 1.0 if emax > EPS_CAP else (floor + emax) / 2.0 if emax / 2.0 < floor < emax else emax / 2.0


def make_split(cs: ClassicalSet, epsilon: float, boundary_ok: bool = False) -> SplitSpec:
    """Split the classical Gram into the constant-overlap factor (overlap 1/(1+eps), J where 1 + eps
    rounds to 1) and the scaled factor I + (1+eps)(G - diag G), and factor each once into the column matrix
    of factor_gram's columns (_factor_columns) of a split that carries eps. check_split is the only feasibility
    decision (with boundary_ok it admits eps = 0 and lambda_min down to -PSD_TOL). It reads the scaled factor,
    whose lambda_min is 1 + (1+eps) nu exactly. Both factors are built unchecked: the constant-overlap one is
    PSD by its closed form (uniform_overlap_gram's). The factors' product is G to a few ulps off the diagonal,
    1 on it."""
    check_split(cs.nu, epsilon, boundary_ok)
    scaled = cs.gram.entries * (1.0 + epsilon)
    np.fill_diagonal(scaled, 1.0)
    gram_d = _built(GramMatrix, entries=_uniform_overlap(1.0 / (1.0 + epsilon), cs.dim))
    gram_e = _built(GramMatrix, entries=scaled)
    return SplitSpec(epsilon=epsilon, gram_d=gram_d, gram_e=gram_e,
                     d_columns=_factor_columns(gram_d), e_columns=_factor_columns(gram_e))


def build_conversion(cs: ClassicalSet, split: SplitSpec) -> Conversion:
    """Build the conversion isometry V = B A^-1, where the columns of A are the
    classical states |c_i> and the columns of B the products |d_i> (x) |e_i>.

    Where both families share the classical Gram, A = Q_A R and B = Q_B R with one
    triangular R, and V = Q_B Q_A^dag sends each |c_i> to |d_i> (x) |e_i>. That is
    decided on the Grams: a product-family Gram (D^dag D) o (E^dag E) more than 1e-10
    from G raises GramMismatchError, naming how far V misses the products. V is an
    isometry to roundoff however small lambda_min(G) is; its misses |V c_i - d_i (x) e_i|
    are kept as the certificate's residuals. The ancilla's reference state is the first
    classical state. It reads the split's column matrices and builds no state. The peak, about
    five D^2 x D arrays, is refused past MAX_DENSE_BYTES (D >= 343) before B is formed. A split whose
    split.epsilon lies in (0, _epsilon_floor) is refused, naming that bound: G_d's lambda_min eps/(1+eps)
    is then within RESOLUTION_MARGIN of factor_gram's clamp, the d_i may collapse and ranks come out wrong."""
    if len(split.d_columns) != cs.dim:
        raise ValueError("split size does not match the classical set")
    if 0.0 < (eps := split.epsilon) < (floor := _epsilon_floor(cs.dim)):
        raise ValueError(f"split is unresolved at D={cs.dim}: G_d has lambda_min {eps / (1.0 + eps):.3e}, within "
                         f"eigh's error (feasible range is eps >= {floor})")
    _check_dense(cs.dim**2, 5 * cs.dim, f"conversion working set at D={cs.dim} (five D^2 x D arrays)")
    d, e = split.d_columns, split.e_columns
    b = (d[:, None, :] * e[None, :, :]).reshape(-1, cs.dim)  # column i is d_i (x) e_i
    v = positive_frame(b) @ positive_frame(cs.columns).conj().T
    miss = v @ cs.columns - b
    if np.max(np.abs((d.conj().T @ d) * (e.conj().T @ e) - cs.gram.entries)) > UNITARY_TOL:
        raise GramMismatchError(f"conversion misses the product states by {np.max(np.abs(miss)):.3e}; the Grams differ")
    return _built(Conversion, isometry=_sealed(v), reference=cs.states[0],
                  _classical=cs.columns, _residuals=_sealed(np.linalg.norm(miss, axis=0)))


def classical_rank(psi: StateVector, cs: ClassicalSet) -> int:
    """Number of classical states needed to expand psi: the expansion is
    unique by linear independence, and coefficients at or below the one rank
    cut (_numerical_rank, 1e-10 times the largest) count as zero."""
    if psi.dim != cs.dim:
        raise ValueError(f"state has dimension {psi.dim}, expected {cs.dim}")
    return _numerical_rank(np.abs(np.linalg.solve(cs.columns, psi.amplitudes)))


def random_classical_set(dim: int, rng: np.random.Generator) -> ClassicalSet:
    """Random classical set, resampled until 1 + nu, its Gram's min eigenvalue, exceeds
    1e-3, far above the independence floor; each draw makes one eigendecomposition."""
    if not (_is_integer(dim) and dim >= 1):
        raise ValueError(f"dimension dim must be a positive integer, got {dim!r}")
    for _ in range(200):
        states = tuple(random_state(dim, rng) for _ in range(dim))
        facts = _set_facts(states)
        if 1.0 + facts["nu"] > 1e-3:
            return _built(ClassicalSet, states=states, **facts)
    raise RuntimeError("failed to sample a well-conditioned classical set")


def random_superposition(cs: ClassicalSet, support: int,
                         rng: np.random.Generator) -> tuple[StateVector, int]:
    """Random superposition of `support` distinct classical states; returns the
    state and its classical rank (equal to `support` for generic coefficients)."""
    if not (_is_integer(support) and 1 <= support <= cs.dim):
        raise ValueError(f"support must lie in 1..{cs.dim} and be an integer, got {support!r}")
    idx = rng.choice(cs.dim, size=support, replace=False)
    coeffs = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    vec = sum(c * cs.states[i].amplitudes for c, i in zip(coeffs, idx))
    psi = StateVector.normalized(vec)
    return psi, classical_rank(psi, cs)
