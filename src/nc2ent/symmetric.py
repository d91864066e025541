"""Symmetric coherent states on the Dicke (occupation-number) basis, their
power-law overlap structure, and the particle-number splitting isometry that
sends every coherent state to a product of two smaller coherent states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (Operator, StateVector, _frozen, check_unit_vector, entanglement_entropy,
                     negativity, schmidt_decompose)

MAX_PARTICLES = 12
MAX_LEVELS = 6
SU_UNITARY_TOL = 1e-12     # U^dag U = I for single-particle transformations
ISOMETRY_TOL = 1e-10
MAX_DENSE_BYTES = 3 * 2**30  # per dense complex matrix; Sym^6(C^12), timed by benchmarks/reference.py, takes 2.3 GiB


def _check_dense(rows: int, cols: int, what: str) -> None:
    """Refuse a dense complex matrix whose estimated size exceeds MAX_DENSE_BYTES,
    before anything is allocated."""
    size = 16 * rows * cols
    if size > MAX_DENSE_BYTES:
        raise ValueError(f"dense {what} of {rows} x {cols} would take {size / 2**30:.1f} GiB, "
                         f"over the {MAX_DENSE_BYTES / 2**30:.0f} GiB cap")


def _check_caps(k: int, n: int) -> None:
    if k < 2:
        raise ValueError(f"need at least 2 internal levels, got {k}")
    if n < 0:
        raise ValueError(f"particle number must be nonnegative, got {n}")
    if k > MAX_LEVELS or n > MAX_PARTICLES:
        raise ValueError(
            f"instance (K={k}, N={n}) exceeds the desk-scale caps "
            f"(K <= {MAX_LEVELS}, N <= {MAX_PARTICLES})"
        )


def dicke_dim(k: int, n: int) -> int:
    """Dimension of the symmetric subspace Sym^N(C^K): binom(N+K-1, K-1)."""
    _check_caps(k, n)
    return math.comb(n + k - 1, k - 1)


@lru_cache(maxsize=None)
def occupation_basis(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All occupation vectors (n_0, ..., n_{K-1}) with sum N, ordered
    lexicographically descending, so (N, 0, ..., 0) comes first."""
    if k == 1:
        return ((n,),)
    out = []
    for head in range(n, -1, -1):
        out.extend((head,) + rest for rest in occupation_basis(k - 1, n - head))
    return tuple(out)


@lru_cache(maxsize=None)
def occupation_index(k: int, n: int) -> dict[tuple[int, ...], int]:
    return {occ: i for i, occ in enumerate(occupation_basis(k, n))}


def _occupation_ranks(occs: np.ndarray) -> np.ndarray:
    """Position of each row of occs in occupation_basis(K, row sum). The rows
    before occupation n number sum_{i<K-1} binom(s_i + K-i-2, K-i-1), with s_i
    the particles in the levels after i."""
    occs = np.asarray(occs, dtype=np.int64)
    k = occs.shape[1]
    after = np.cumsum(occs[:, :0:-1], axis=1)[:, ::-1]
    binom = np.array([[math.comb(x, y) for y in range(k)]
                      for x in range(int(after.max(initial=0)) + k)], dtype=np.int64)
    return sum(binom[after[:, i] + k - i - 2, k - i - 1] for i in range(k - 1))


def _occupation_pairs(k: int, n_x: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupations (a, b) of every basis entry of Sym^{N_X}(C^K) (x)
    Sym^{N_Y}(C^K), a-major, as two int8 arrays of shape (dim_x * dim_y, K)."""
    a = np.array(occupation_basis(k, n_x), dtype=np.int8)
    b = np.array(occupation_basis(k, n_y), dtype=np.int8)
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))


def _sqrt_multinomial(n: int, occ: tuple[int, ...]) -> float:
    prod = math.prod(math.factorial(x) for x in occ)
    return math.sqrt(math.factorial(n) / prod)


@dataclass(frozen=True)
class SuUnitary:
    """Unitary single-particle transformation on K internal levels. A global
    phase is irrelevant to the coherent states it labels, so any U(K) element
    is accepted."""

    matrix: np.ndarray

    def __post_init__(self):
        op = Operator(self.matrix)
        if op.rows < 2:
            raise ValueError("need at least 2 levels")
        if not op.is_unitary(SU_UNITARY_TOL):  # False for a non-square or NaN matrix
            raise ValueError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", op.matrix)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def reference_column(self) -> np.ndarray:
        """The single-particle state U|0> that labels the coherent family."""
        return self.matrix[:, 0]


@dataclass(frozen=True)
class SymmetricState:
    """Vector on Sym^N(C^K) with amplitudes indexed by occupation_basis(K, N)."""

    k: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_caps(self.k, self.n)
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        if amps.size != dicke_dim(self.k, self.n):
            raise ValueError(
                f"expected {dicke_dim(self.k, self.n)} amplitudes for (K={self.k}, N={self.n}), "
                f"got {amps.size}"
            )
        check_unit_vector(amps, "symmetric state")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, k: int, n: int, amplitudes) -> "SymmetricState":
        return cls(k, n, StateVector.normalized(amplitudes).amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "SymmetricState") -> complex:
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("symmetric states live in different sectors")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def as_state_vector(self) -> StateVector:
        return StateVector(self.amplitudes)


def coherent_state(u: SuUnitary, n: int) -> SymmetricState:
    """N-fold tensor power of the single-particle state U|0>, expanded in the
    Dicke basis: amplitude sqrt(N!/prod n_j!) * prod u_j^{n_j} on occupation
    (n_0, ..., n_{K-1})."""
    _check_caps(u.k, n)
    col = u.reference_column()
    amps = np.empty(dicke_dim(u.k, n), dtype=complex)
    for i, occ in enumerate(occupation_basis(u.k, n)):
        amp = _sqrt_multinomial(n, occ)
        for uj, nj in zip(col, occ):
            amp *= uj**nj
        amps[i] = amp
    return SymmetricState(u.k, n, amps)


def overlap(u: SuUnitary, v: SuUnitary, n: int) -> complex:
    """Coherent-state overlap <U;N|V;N> = <0|U^dag V|0>^N."""
    if u.k != v.k:
        raise ValueError("unitaries act on different level counts")
    single = complex(np.vdot(u.reference_column(), v.reference_column()))
    return single**n


def haar_random_su(k: int, seed) -> SuUnitary:
    """Haar-distributed unitary from the QR decomposition of a complex
    Gaussian matrix with phase-corrected diagonal; deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return SuUnitary(q * phases)


def symmetric_power_matrix(u: np.ndarray, n: int) -> np.ndarray:
    """Matrix of U^(x)N restricted to Sym^N, in the Dicke basis.

    Works by expanding the image of each occupation monomial of creation
    operators under a_j -> sum_i u_ij a_i. No level-count cap is applied,
    only the MAX_DENSE_BYTES guard on the result.
    """
    u = np.asarray(u, dtype=complex)
    k = u.shape[0]
    dim = math.comb(n + k - 1, k - 1)
    _check_dense(dim, dim, f"symmetric power Sym^{n}(C^{k})")
    basis = occupation_basis(k, n)
    index = occupation_index(k, n)
    out = np.zeros((dim, dim), dtype=complex)
    fact_sqrt = {occ: math.sqrt(math.prod(math.factorial(x) for x in occ)) for occ in basis}
    for colno, occ in enumerate(basis):
        poly: dict[tuple[int, ...], complex] = {(0,) * k: 1.0 + 0.0j}
        for j, nj in enumerate(occ):
            for _ in range(nj):
                new: dict[tuple[int, ...], complex] = {}
                for exp, coeff in poly.items():
                    for i in range(k):
                        w = u[i, j]
                        if w == 0:
                            continue
                        bumped = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                        new[bumped] = new.get(bumped, 0.0) + coeff * w
                poly = new
        scale = 1.0 / fact_sqrt[occ]
        for exp, coeff in poly.items():
            out[index[exp], colno] = coeff * fact_sqrt[exp] * scale
    return out


def apply_unitary(u: SuUnitary, state: SymmetricState) -> SymmetricState:
    """Collective action of U on every particle of a symmetric state."""
    if u.k != state.k:
        raise ValueError("level-count mismatch")
    return SymmetricState(state.k, state.n, symmetric_power_matrix(u.matrix, state.n) @ state.amplitudes)


def _check_split(k: int, n: int, n_x: int, n_y: int) -> None:
    _check_caps(k, n)
    if n_x < 1 or n_y < 1 or n_x + n_y != n:
        raise ValueError(f"invalid split ({n_x}, {n_y}) of N={n}")


@lru_cache(maxsize=32)
def _splitting_gather(k: int, n: int, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """The splitting isometry has one nonzero per output entry (a, b): it
    reads input a + b with weight sqrt(prod_j binom(a_j + b_j, a_j) / binom(N, N_X)).
    Returns the input index and the weight of every output entry."""
    a, b = _occupation_pairs(k, n_x, n - n_x)
    occ = a.astype(np.int64) + b
    binom = np.array([[math.comb(x, y) for y in range(n + 1)] for x in range(n + 1)], dtype=float)
    weight = np.sqrt(np.prod(binom[occ, a], axis=1) / math.comb(n, n_x))
    return _occupation_ranks(occ), weight


def apply_splitting(state: SymmetricState, n_x: int, n_y: int) -> np.ndarray:
    """The splitting isometry applied to a state, as a gather: amplitudes on
    Sym^{N_X}(C^K) (x) Sym^{N_Y}(C^K), equal to splitting_isometry(...).matrix @ amplitudes."""
    _check_split(state.k, state.n, n_x, n_y)
    source, weight = _splitting_gather(state.k, state.n, n_x)
    return state.amplitudes[source] * weight


def splitting_isometry(k: int, n: int, n_x: int, n_y: int) -> Operator:
    """Isometry from Sym^N(C^K) into Sym^{N_X}(C^K) (x) Sym^{N_Y}(C^K) that
    distributes each occupation over the two factors with square-root
    binomial weights; it maps every coherent state |U;N> to the product
    |U;N_X> (x) |U;N_Y> and preserves all pairwise overlaps. Dense, so it is
    subject to the MAX_DENSE_BYTES guard; apply_splitting needs no matrix."""
    _check_split(k, n, n_x, n_y)
    rows, cols = dicke_dim(k, n_x) * dicke_dim(k, n_y), dicke_dim(k, n)
    _check_dense(rows, cols, f"splitting isometry (K={k}, N={n}) -> ({n_x}, {n_y})")
    source, weight = _splitting_gather(k, n, n_x)
    out = np.zeros((rows, cols), dtype=complex)
    out[np.arange(rows), source] = weight
    return Operator(out)


@dataclass(frozen=True)
class FaithfulnessReport:
    """Outcome of the mixed-state faithfulness spot checks for the splitting
    isometry: classical mixtures stay separable (PPT, explicit product
    decomposition) and non-classical superpositions come out entangled."""

    samples: int
    max_mixture_negativity: float
    max_product_residual: float
    min_superposition_entropy: float
    failures: list[str]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def verify_splitting_faithfulness(k: int, n: int, split: tuple[int, int],
                                  samples: int = 10, seed: int | None = 0) -> FaithfulnessReport:
    """Spot-check both faithfulness directions at desk scale: (a) random
    mixtures of coherent projectors map to PPT outputs matching an explicit
    product decomposition; (b) random 2-term coherent superpositions map to
    outputs with strictly positive entanglement entropy."""
    rng = np.random.default_rng(seed)
    n_x, n_y = split
    iso = splitting_isometry(k, n, n_x, n_y).matrix
    dim_x, dim_y = dicke_dim(k, n_x), dicke_dim(k, n_y)
    failures: list[str] = []
    max_neg = 0.0
    max_resid = 0.0
    min_entropy = math.inf

    for i in range(samples):
        unitaries = [haar_random_su(k, rng) for _ in range(3)]
        weights = rng.random(3)
        weights /= weights.sum()
        rho = sum(w * coherent_state(u, n).as_state_vector().projector()
                  for w, u in zip(weights, unitaries))
        sigma = iso @ rho @ iso.conj().T
        neg = negativity(sigma, dim_x, dim_y)
        max_neg = max(max_neg, neg)
        if neg > 1e-10:
            failures.append(f"mixture {i}: negativity {neg:.3e} exceeds 1e-10")
        product = sum(
            w * np.outer(np.kron(coherent_state(u, n_x).amplitudes, coherent_state(u, n_y).amplitudes),
                         np.kron(coherent_state(u, n_x).amplitudes, coherent_state(u, n_y).amplitudes).conj())
            for w, u in zip(weights, unitaries))
        resid = float(np.max(np.abs(sigma - product)))
        max_resid = max(max_resid, resid)
        if resid > 1e-10:
            failures.append(f"mixture {i}: product decomposition residual {resid:.3e}")

    for i in range(samples):
        u = haar_random_su(k, rng)
        v = haar_random_su(k, rng)
        if abs(overlap(u, v, 1)) > 1 - 1e-6:
            continue
        amps = coherent_state(u, n).amplitudes + coherent_state(v, n).amplitudes
        psi = SymmetricState.normalized(k, n, amps)
        out = StateVector(iso @ psi.amplitudes)
        entropy = entanglement_entropy(schmidt_decompose(out, dim_x, dim_y))
        min_entropy = min(min_entropy, entropy)
        if entropy <= 1e-8:
            failures.append(f"superposition {i}: entropy {entropy:.3e} not above 1e-8")

    return FaithfulnessReport(samples=samples, max_mixture_negativity=max_neg,
                              max_product_residual=max_resid,
                              min_superposition_entropy=min_entropy, failures=failures)
