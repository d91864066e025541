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
EIG_ZERO_TOL = 1e-12     # eigenvalues below this are clamped to zero in factorizations
PSD_TOL = NORM_TOL       # the one PSD floor; factor_gram's clamp above it moves a column norm < NORM_TOL/2

# Operation tolerances.
RANK_RTOL = 1e-10        # singular/eigen values below RANK_RTOL * largest are zero
GRAM_MATCH_TOL = 1e-8    # Gram equality required for unitary synthesis
UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-10
ENTROPY_CUT = 1e-12      # Schmidt coefficients below this are dropped from entropy sums
MAX_DENSE_BYTES = 3 * 2**30  # per dense complex working set; Sym^6(C^12) (benchmarks/reference.py) takes 2.3 GiB


class GramMismatchError(ValueError):
    """Raised when two state families have unequal Gram matrices, so no unitary
    can map one family onto the other."""


def _check_dense(rows: int, cols: int, what: str) -> None:
    """Refuse a dense complex rows x cols working set whose estimated size
    exceeds MAX_DENSE_BYTES, before anything is allocated."""
    size = 16 * rows * cols
    if size > MAX_DENSE_BYTES:
        raise ValueError(f"dense {what} of {rows} x {cols} would take {size / 2**30:.1f} GiB, "
                         f"over the {MAX_DENSE_BYTES / 2**30:.0f} GiB cap")


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _built(cls, **fields):
    """A value of the frozen dataclass cls, made without its checks, for a
    value the library built whose invariant holds by construction. Array
    fields must be fresh complex arrays (or read-only); they are frozen in place."""
    value = object.__new__(cls)
    for name, item in fields.items():
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
        object.__setattr__(value, name, item)
    return value


def check_unit_vector(amps: np.ndarray, noun: str, squared_norm: float | None = None) -> None:
    """Raise a one-line ValueError unless amps is nonempty with norm 1 within
    NORM_TOL. Makes no copy; the amplitudes are scanned for a non-finite
    entry only once the norm test has failed, which a NaN norm does. A caller
    that has already summed |amps|^2 passes it as squared_norm."""
    if amps.size == 0:
        raise ValueError(f"{noun} must have positive dimension")
    norm = math.sqrt(np.vdot(amps, amps).real if squared_norm is None else squared_norm)
    if not abs(norm - 1.0) <= NORM_TOL:
        bad = amps[~np.isfinite(amps)]
        if bad.size:
            raise ValueError(f"{noun} has a non-finite amplitude {complex(bad[0])}")
        raise ValueError(f"{noun} is not normalized (norm={norm!r})")


def check_hermitian(m: np.ndarray, noun: str, tol: float) -> None:
    """Raise a one-line ValueError unless m is nonempty, square, finite and
    |m - m^dag| <= tol entrywise; finiteness comes first, so inf - inf is never formed."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{noun} must be a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{noun} has a non-finite entry")
    if not np.max(np.abs(m - m.conj().T)) <= tol:
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
        """Build a state from raw amplitudes, normalizing them first. The real
        and imaginary parts are scaled by the power of two that brings
        the largest into [0.5, 1); that is exact, so the norm of a tiny or a
        huge finite vector neither underflows nor overflows."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        parts = np.stack([amps.real, amps.imag], axis=-1)
        _, exp = np.frexp(np.max(np.abs(parts), initial=0.0))
        amps = np.ldexp(parts, -exp).view(complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return _built(cls, amplitudes=amps / norm) if math.isfinite(norm) else cls(amps)  # cls names a NaN or inf

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
        return _built(StateVector, amplitudes=np.kron(self.amplitudes, other.amplitudes))


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
class SchmidtData:
    """Schmidt decomposition of a bipartite pure state across a declared cut,
    built by :func:`schmidt_decompose` as the record of one SVD of the
    coefficient matrix: coefficients are its singular values (descending, as
    LAPACK returns them), left/right vectors the columns of U and rows of Vh.
    The arrays are made read-only in place; rank counts the coefficients
    above 1e-10 times the largest.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray   # shape (dimA, m), columns orthonormal
    right_vectors: np.ndarray  # shape (m, dimB), rows orthonormal
    rank: int = field(init=False)

    def __post_init__(self):
        for array in (self.coefficients, self.left_vectors, self.right_vectors):
            array.setflags(write=False)
        object.__setattr__(self, "rank", int(np.sum(self.coefficients > RANK_RTOL * self.coefficients[0])))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the bipartite amplitude vector sum_k c_k (left_k x right_k)."""
        m = (self.left_vectors * self.coefficients) @ self.right_vectors
        return m.reshape(-1)


def _built_gram(entries: np.ndarray) -> GramMatrix:
    """A GramMatrix, unchecked, of a fresh array that is a Gram by construction:
    its diagonal, |c|^2 of accepted unit vectors or the product of two accepted
    diagonals, may be off by 2e-12, more than the caller check allows. Its one
    eigvalsh gives lambda_min."""
    return _built(GramMatrix, entries=entries, _min_eig=float(np.linalg.eigvalsh(entries)[0]))


def gram_of(states: list[StateVector]) -> GramMatrix:
    """Gram matrix of a state family: G_ij = <state_i|state_j>."""
    if not states:
        raise ValueError("need at least one state")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("all states must share one dimension")
    mat = np.column_stack([s.amplitudes for s in states])
    return _built_gram(mat.conj().T @ mat)


def hadamard(g1: GramMatrix, g2: GramMatrix) -> GramMatrix:
    """Entrywise product of two Gram matrices; PSD by the Schur product
    theorem, and the Gram of the corresponding product-state family."""
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    return _built_gram(g1.entries * g2.entries)


def factor_gram(g: GramMatrix) -> list[StateVector]:
    """Factor G = C^dag C and return the columns of C as unit vectors.

    C = sqrt(L) V^dag is the eigenbasis factor of G = V L V^dag, not the
    principal square root V sqrt(L) V^dag: it need not be Hermitian, and
    where eigenvalues repeat it depends on the eigenvectors LAPACK picks.
    Eigenvalues below 1e-12 are clamped to zero; that G is PSD
    (lambda_min >= -PSD_TOL) was decided where G was built (the GramMatrix
    constructor, or make_split's closed form). The clamp moves a column's
    norm by less than 5e-13. The columns go through the checked StateVector
    constructor, which therefore rejects a column only of a caller Gram
    whose diagonal is also off by nearly UNIT_DIAG_TOL.
    """
    w, v = np.linalg.eigh(g.entries)
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


def _frame_unitary(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[Q_b | C_b][Q_a | C_a]^dag, read-only, for the positive QR frames Q of the
    equal-height families a and b, each complement C the trailing columns of one
    complete QR of its frame: a unitary mapping Q_a onto Q_b, so a onto b when they share R.
    Its peak, about five n x n arrays for height n, is refused past MAX_DENSE_BYTES."""
    n = a.shape[0]
    _check_dense(n, 5 * n, f"unitary completion on C^{n} (five {n} x {n} arrays)")
    frames = []
    for q in (positive_frame(a), positive_frame(b)):
        complement = np.linalg.qr(q, mode="complete")[0][:, q.shape[1]:]
        frames.append(np.hstack([q, complement]))
    u = frames[1] @ frames[0].conj().T
    u.setflags(write=False)
    return u


def synthesize_unitary(from_states: list[StateVector], to_states: list[StateVector]) -> np.ndarray:
    """Build a unitary, a read-only array, mapping each from_state onto the matching to_state.

    Both families must be linearly independent (else ValueError) and share
    one Gram matrix (a mismatch beyond 1e-8 raises GramMismatchError). Source
    vectors are zero-padded to the target dimension. With A = Q_from R and
    B = Q_to R from the positive QR frames, the unitary is _frame_unitary(A, B).
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
    u = _frame_unitary(a, b)
    if not is_unitary(u, UNITARY_TOL):
        raise GramMismatchError("synthesized map failed the unitarity check")
    return u


def schmidt_decompose(psi: StateVector, dim_a: int, dim_b: int) -> SchmidtData:
    """Schmidt decomposition of psi across the dim_a x dim_b cut (SVD of the
    reshaped coefficient matrix)."""
    check_cut(dim_a, dim_b, psi.dim)
    mat = psi.amplitudes.reshape(dim_a, dim_b)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtData(coefficients=s, left_vectors=u, right_vectors=vh)


def entanglement_entropy(sd: SchmidtData) -> float:
    """Entropy of entanglement in ebits: -sum lambda^2 log2 lambda^2."""
    return _ebits(sd.coefficients)


def _ebits(coefficients: np.ndarray) -> float:
    """-sum lambda^2 log2 lambda^2 over the Schmidt coefficients above ENTROPY_CUT."""
    lam2 = coefficients[coefficients > ENTROPY_CUT] ** 2
    if lam2.size == 0:
        return 0.0
    return float(-np.sum(lam2 * np.log2(lam2))) + 0.0  # + 0.0: a product state gives 0.0, not -0.0


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_cut(dim_a: int, dim_b: int, dim: int) -> None:
    """Raise a one-line ValueError unless dim_a and dim_b are positive
    integers (not bools) whose product is dim."""
    if not all(_is_integer(d) and d > 0 for d in (dim_a, dim_b)):
        raise ValueError(f"cut {dim_a}x{dim_b} needs two positive integer factors")
    if dim_a * dim_b != dim:
        raise ValueError(f"cut {dim_a}x{dim_b} does not factor dimension {dim}")


def is_unitary(m: np.ndarray, tol: float) -> bool:
    """Whether max |m m^dag - I| <= tol entrywise; False unless m is a square matrix without NaN."""
    return (m.ndim == 2 and m.shape[0] == m.shape[1]
            and float(np.max(np.abs(m @ m.conj().T - np.eye(len(m))))) <= tol)


def _positive_definite(m: np.ndarray, shift: float) -> bool:
    """Whether a Cholesky factorisation of m + shift I succeeds: exactly when
    lambda_min(m) > -shift, up to a backward error of about n * 1e-16 * ||m||.
    Only the lower triangle of m is read, as eigvalsh reads it; the
    factorisation costs a quarter of the flops of the eigenvalues. The shift
    is made on m's own diagonal, which is then restored from a saved copy, so
    m keeps its bits (subtracting the shift back would round); m must be a
    writable array that no caller sees."""
    diagonal = m.diagonal().copy()
    m.flat[::m.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    finally:
        m.flat[::m.shape[0] + 1] = diagonal
    return True


def _sealed(array: np.ndarray) -> np.ndarray:
    """A read-only copy of array over immutable bytes: neither it nor any view
    of it, its .base included, can be made writable."""
    return np.frombuffer(array.tobytes(), dtype=array.dtype).reshape(array.shape)


class _BuiltDensity(np.ndarray):
    """A read-only density V rho V^dag that convert_density built (_built_density).
    It carries one fact, the certificate (D, beta): lambda_min(rho^T_B) >= -beta
    at the cut D x D. The certificate is the trust that spares it partial_transpose's
    density check. An array derived from one (a slice, a reshape, arithmetic, a copy) carries none."""

    def __array_finalize__(self, obj):
        self._separable_within = None


def _built_density(rho: np.ndarray, dim: int, beta: float) -> np.ndarray:
    """V rho V^dag of a checked rho and an isometry V, a density by construction, as
    a _sealed copy that no view can make writable again, with the certificate that
    lambda_min(rho^T_B) >= -beta at the cut dim x dim."""
    built = _sealed(rho).view(_BuiltDensity)
    built._separable_within = (dim, beta)
    return built


def _attached_bound(rho, dim_a: int, dim_b: int) -> float | None:
    """beta of the certificate convert_density attached to rho, where rho
    carries one and dim_a x dim_b is its cut D x D; otherwise None."""
    certificate = rho._separable_within if isinstance(rho, _BuiltDensity) else None
    if certificate is None:
        return None
    check_cut(dim_a, dim_b, rho.shape[0])
    return certificate[1] if dim_a == dim_b == certificate[0] else None


def _check_density(rho) -> np.ndarray:
    """Return rho as a complex array, or raise a one-line ValueError unless it
    is a nonempty square, finite, Hermitian (within 1e-10), unit-trace operator
    with lambda_min(rho) >= -1e-10, which _positive_definite(rho, 1e-10) decides."""
    rho = np.asarray(rho, dtype=complex)
    check_hermitian(rho, "density operator", DENSITY_TOL)
    if not abs(np.trace(rho) - 1.0) <= DENSITY_TOL:
        raise ValueError("density operator does not have unit trace")
    if not _positive_definite(rho.copy(), DENSITY_TOL):
        raise ValueError("density operator is not positive semidefinite")
    return rho


def partial_transpose(rho, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a density operator on A (x) B.
    rho must pass _check_density, unless it carries convert_density's
    certificate (_built_density), and dim_a x dim_b must be a cut of its
    dimension (check_cut); otherwise a one-line ValueError is raised."""
    rho = np.asarray(rho) if isinstance(rho, _BuiltDensity) and rho._separable_within else _check_density(rho)
    check_cut(dim_a, dim_b, rho.shape[0])
    blocks = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    return blocks.transpose(0, 3, 2, 1).reshape(dim_a * dim_b, dim_a * dim_b)


def negativity(rho, dim_a: int, dim_b: int) -> float:
    """Entanglement negativity (||rho^T_B||_1 - 1) / 2; a value above 1e-10
    certifies entanglement (PPT is necessary for separability).

    rho has the precondition of :func:`partial_transpose`. With s =
    DENSITY_TOL / n and n = dim_a * dim_b, 0.0 is returned wherever every
    eigenvalue of rho^T_B is at least -s: at most n - 1 of them are negative
    (the trace is 1), so N < 1e-10. Two routes decide this. A density that
    convert_density built carries its certificate, a bound beta on
    -lambda_min(rho^T_B) at the cut D x D (_attached_bound); at that cut,
    beta <= s decides without forming rho^T_B. Otherwise the Peres PPT test
    runs: when a Cholesky factorisation of rho^T_B + s I succeeds, every
    eigenvalue exceeds -s up to the backward error of about n * 1e-16. Where
    neither decides, N comes from the one eigendecomposition of rho^T_B."""
    beta = _attached_bound(rho, dim_a, dim_b)
    if beta is not None and beta <= DENSITY_TOL / (dim_a * dim_b):
        return 0.0
    pt = partial_transpose(rho, dim_a, dim_b)
    if 1 in (dim_a, dim_b):  # then rho^T_B is a view of rho, not a fresh array
        pt = pt.copy()
    if _positive_definite(pt, DENSITY_TOL / pt.shape[0]):
        return 0.0
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    return max((trace_norm - 1.0) / 2.0, 0.0)


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2."""
    return min(abs(psi.overlap(phi)) ** 2, 1.0)
