"""Dense complex linear algebra core: state vectors, Gram matrices, positive
QR frames and the unitary synthesis built on them, and bipartite
entanglement diagnostics (Schmidt decomposition, entropy, negativity)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Construction tolerances for value types.
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
UNIT_DIAG_TOL = 1e-12
PSD_TOL = 1e-10          # min eigenvalue >= -PSD_TOL counts as PSD
EIG_ZERO_TOL = 1e-12     # eigenvalues below this are clamped to zero in factorizations

# Operation tolerances.
RANK_RTOL = 1e-10        # singular/eigen values below RANK_RTOL * largest are zero
GRAM_MATCH_TOL = 1e-8    # Gram equality required for unitary synthesis
UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-10
ENTROPY_CUT = 1e-12      # Schmidt coefficients below this are dropped from entropy sums


class GramMismatchError(ValueError):
    """Raised when two state families have unequal Gram matrices, so no unitary
    can map one family onto the other."""


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def check_unit_vector(amps: np.ndarray, noun: str) -> None:
    """Raise a one-line ValueError unless amps is nonempty with norm 1 within
    NORM_TOL. Makes no copy; the amplitudes are scanned for a non-finite
    entry only once the norm test has failed, which a NaN norm does."""
    if amps.size == 0:
        raise ValueError(f"{noun} must have positive dimension")
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= NORM_TOL:
        bad = amps[~np.isfinite(amps)]
        if bad.size:
            raise ValueError(f"{noun} has a non-finite amplitude {complex(bad[0])}")
        raise ValueError(f"{noun} is not normalized (norm={norm!r})")


def check_hermitian(m: np.ndarray, noun: str, tol: float) -> None:
    """Raise a one-line ValueError unless m is nonempty and square with
    |m - m^dag| <= tol entrywise; a NaN entry fails the comparison and is named."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{noun} must be a nonempty square matrix, got shape {m.shape}")
    if not np.max(np.abs(m - m.conj().T)) <= tol:
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{noun} has a non-finite entry")
        raise ValueError(f"{noun} is not Hermitian within tolerance")


@dataclass(frozen=True)
class StateVector:
    """Unit vector in a finite-dimensional complex space.

    Construction rejects non-finite amplitudes and unnormalized input (norm
    must be 1 within 1e-12); use :meth:`normalized` to build from raw
    amplitudes.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        check_unit_vector(amps, "state vector")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a state from raw amplitudes, normalizing them first."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm if math.isfinite(norm) else amps)  # the constructor names a NaN or inf

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        """Rank-1 density operator |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def tensor(self, other: "StateVector") -> "StateVector":
        """Product state self (x) other."""
        return StateVector(np.kron(self.amplitudes, other.amplitudes))


def basis_state(dim: int, k: int) -> StateVector:
    """Standard basis vector |k> in the given dimension."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[k] = 1.0
    return StateVector(amps)


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(z)


@dataclass(frozen=True)
class GramMatrix:
    """Overlap table of a normalized state family: Hermitian, PSD, unit diagonal."""

    entries: np.ndarray
    _min_eig: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.entries, dtype=complex)
        check_hermitian(g, "Gram matrix", HERMITIAN_TOL)
        if not np.max(np.abs(np.diag(g) - 1.0)) <= UNIT_DIAG_TOL:
            raise ValueError("Gram matrix does not have unit diagonal")
        min_eig = float(np.linalg.eigvalsh(g)[0])
        if not min_eig >= -PSD_TOL:
            raise ValueError("Gram matrix is not positive semidefinite")
        object.__setattr__(self, "entries", _frozen(g))
        object.__setattr__(self, "_min_eig", min_eig)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, computed once by the PSD check."""
        return self._min_eig


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix; unitarity or Hermiticity is asserted by the
    operations that require it, not here."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"operator must be a matrix, got ndim={m.ndim}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        if self.rows != self.cols:
            return False
        delta = self.matrix @ self.matrix.conj().T - np.eye(self.rows)
        return float(np.max(np.abs(delta))) <= tol


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition of a bipartite pure state across a declared cut.

    coefficients are the descending singular values; left/right vectors are
    the columns of U and rows of Vh from the SVD of the coefficient matrix.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray   # shape (dimA, m), columns orthonormal
    right_vectors: np.ndarray  # shape (m, dimB), rows orthonormal
    cut: tuple[int, int]
    rank: int = field(init=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if np.any(np.diff(coeffs) > 0):
            raise ValueError("Schmidt coefficients must be descending")
        total = float(np.sum(coeffs**2))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"Schmidt coefficients are not normalized (sum sq = {total!r})")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "left_vectors", _frozen(self.left_vectors))
        object.__setattr__(self, "right_vectors", _frozen(self.right_vectors))
        cutoff = RANK_RTOL * coeffs[0] if coeffs.size else 0.0
        object.__setattr__(self, "rank", int(np.sum(coeffs > cutoff)))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the bipartite amplitude vector sum_k c_k (left_k x right_k)."""
        m = (self.left_vectors * self.coefficients) @ self.right_vectors
        return m.reshape(-1)


def gram_of(states: list[StateVector]) -> GramMatrix:
    """Gram matrix of a state family: G_ij = <state_i|state_j>."""
    if not states:
        raise ValueError("need at least one state")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("all states must share one dimension")
    mat = np.column_stack([s.amplitudes for s in states])
    return GramMatrix(mat.conj().T @ mat)


def hadamard(g1: GramMatrix, g2: GramMatrix) -> GramMatrix:
    """Entrywise product of two Gram matrices; PSD by the Schur product
    theorem, and the Gram of the corresponding product-state family."""
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    return GramMatrix(g1.entries * g2.entries)


def factor_gram(g: GramMatrix) -> list[StateVector]:
    """Factor G = C^dag C and return the columns of C as unit vectors.

    Uses the principal square root C = sqrt(L) V^dag from the eigendecomposition
    G = V L V^dag, which is deterministic and order-independent; eigenvalues
    below 1e-12 are clamped to zero (inputs below -1e-10 are rejected).
    """
    w, v = np.linalg.eigh(g.entries)
    if w[0] < -PSD_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]!r})")
    w = np.where(w < EIG_ZERO_TOL, 0.0, w)
    c = np.sqrt(w)[:, None] * v.conj().T
    return [StateVector(c[:, i]) for i in range(g.n)]


def positive_frame(columns: np.ndarray) -> np.ndarray:
    """Q of the thin QR factorization, with phases moved so that R has a
    positive diagonal; two families with one Gram R^dag R then share R.
    Dependent columns (some |R_ii| <= RANK_RTOL max |R_jj|) raise ValueError."""
    q, r = np.linalg.qr(columns)
    diag = np.diag(r)
    mags = np.abs(diag)
    if columns.shape[1] > columns.shape[0] or mags.min() <= RANK_RTOL * mags.max():
        raise ValueError("the family is linearly dependent; need independent states")
    return q * (diag / mags)


def synthesize_unitary(from_states: list[StateVector], to_states: list[StateVector]) -> Operator:
    """Build a unitary mapping each from_state onto the matching to_state.

    Both families must be linearly independent (else ValueError) and share
    one Gram matrix (a mismatch beyond 1e-8 raises GramMismatchError). Source
    vectors are zero-padded to the target dimension. With A = Q_from R and
    B = Q_to R from the positive QR frames, the unitary is
    [Q_to | C_to][Q_from | C_from]^dag, each complement C being the trailing
    columns of a complete QR factorization of its frame.
    """
    if len(from_states) != len(to_states) or not from_states:
        raise ValueError("need two equal-length nonempty state families")
    g_from = gram_of(from_states).entries
    g_to = gram_of(to_states).entries
    mismatch = float(np.max(np.abs(g_from - g_to)))
    if mismatch > GRAM_MATCH_TOL:
        raise GramMismatchError(
            f"Gram matrices differ by {mismatch:.3e}; no unitary maps one family onto the other"
        )

    dim_from = from_states[0].dim
    dim_to = to_states[0].dim
    if dim_from > dim_to:
        raise ValueError("target dimension must be at least the source dimension")
    a = np.zeros((dim_to, len(from_states)), dtype=complex)
    a[:dim_from, :] = np.column_stack([s.amplitudes for s in from_states])
    b = np.column_stack([s.amplitudes for s in to_states])

    frames = []
    for q in (positive_frame(a), positive_frame(b)):
        complement = np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:]
        frames.append(np.hstack([q, complement]))
    u = Operator(frames[1] @ frames[0].conj().T)
    if not u.is_unitary():
        raise GramMismatchError("synthesized map failed the unitarity check")
    return u


def schmidt_decompose(psi: StateVector, dim_a: int, dim_b: int) -> SchmidtData:
    """Schmidt decomposition of psi across the dim_a x dim_b cut (SVD of the
    reshaped coefficient matrix)."""
    if dim_a * dim_b != psi.dim:
        raise ValueError(f"cut {dim_a}x{dim_b} does not factor dimension {psi.dim}")
    mat = psi.amplitudes.reshape(dim_a, dim_b)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtData(coefficients=s, left_vectors=u, right_vectors=vh, cut=(dim_a, dim_b))


def entanglement_entropy(sd: SchmidtData) -> float:
    """Entropy of entanglement in ebits: -sum lambda^2 log2 lambda^2."""
    lam2 = sd.coefficients[sd.coefficients > ENTROPY_CUT] ** 2
    if lam2.size == 0:
        return 0.0
    return float(-np.sum(lam2 * np.log2(lam2)))


def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density operator has shape {rho.shape}, expected {(dim, dim)}")
    check_hermitian(rho, "density operator", DENSITY_TOL)
    if not abs(np.trace(rho) - 1.0) <= DENSITY_TOL:
        raise ValueError("density operator does not have unit trace")
    if not np.linalg.eigvalsh(rho)[0] >= -DENSITY_TOL:
        raise ValueError("density operator is not positive semidefinite")
    return rho


def partial_transpose(rho, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a density operator on A (x) B."""
    rho = _check_density(np.asarray(rho, dtype=complex), dim_a * dim_b)
    blocks = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return blocks.transpose(0, 3, 2, 1).reshape(dim_a * dim_b, dim_a * dim_b)


def negativity(rho, dim_a: int, dim_b: int) -> float:
    """Entanglement negativity (||rho^T_B||_1 - 1) / 2; a value above 1e-10
    certifies entanglement (PPT is necessary for separability)."""
    pt = partial_transpose(rho, dim_a, dim_b)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    return max((trace_norm - 1.0) / 2.0, 0.0)


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2."""
    return min(abs(psi.overlap(phi)) ** 2, 1.0)
