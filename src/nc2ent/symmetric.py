"""Symmetric coherent states on the Dicke (occupation-number) basis, their
power-law overlap structure, and the particle-number splitting isometry that
sends every coherent state to a product of two smaller coherent states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (NORM_TOL, Operator, StateVector, entanglement_entropy, negativity,
                     schmidt_decompose)

MAX_PARTICLES = 12
MAX_LEVELS = 6
SU_UNITARY_TOL = 1e-12     # U^dag U = I for single-particle transformations
ISOMETRY_TOL = 1e-10


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
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError("need at least 2 levels")
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) > SU_UNITARY_TOL:
            raise ValueError("matrix is not unitary within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

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
        amps = np.array(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        if amps.size != dicke_dim(self.k, self.n):
            raise ValueError(
                f"expected {dicke_dim(self.k, self.n)} amplitudes for (K={self.k}, N={self.n}), "
                f"got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"symmetric state is not normalized (norm={norm!r})")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, k: int, n: int, amplitudes) -> "SymmetricState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(k, n, amps / norm)

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
    operators under a_j -> sum_i u_ij a_i; no level-count cap is applied
    here because the two-mode simulator uses doubled level counts.
    """
    u = np.asarray(u, dtype=complex)
    k = u.shape[0]
    basis = occupation_basis(k, n)
    index = occupation_index(k, n)
    dim = len(basis)
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


@lru_cache(maxsize=32)
def _splitting_matrix(k: int, n: int, n_x: int, n_y: int) -> np.ndarray:
    dim_in = dicke_dim(k, n)
    dim_x = dicke_dim(k, n_x)
    dim_y = dicke_dim(k, n_y)
    idx_x = occupation_index(k, n_x)
    idx_y = occupation_index(k, n_y)
    out = np.zeros((dim_x * dim_y, dim_in), dtype=complex)
    total_choose = math.comb(n, n_x)
    for col, occ in enumerate(occupation_basis(k, n)):
        for a in occupation_basis(k, n_x):
            if any(aj > nj for aj, nj in zip(a, occ)):
                continue
            b = tuple(nj - aj for nj, aj in zip(occ, a))
            weight = math.prod(math.comb(nj, aj) for nj, aj in zip(occ, a))
            row = idx_x[a] * dim_y + idx_y[b]
            out[row, col] = math.sqrt(weight / total_choose)
    return out


def splitting_isometry(k: int, n: int, n_x: int, n_y: int) -> Operator:
    """Isometry from Sym^N(C^K) into Sym^{N_X}(C^K) (x) Sym^{N_Y}(C^K) that
    distributes each occupation over the two factors with square-root
    binomial weights; it maps every coherent state |U;N> to the product
    |U;N_X> (x) |U;N_Y> and preserves all pairwise overlaps."""
    _check_caps(k, n)
    if n_x < 1 or n_y < 1 or n_x + n_y != n:
        raise ValueError(f"invalid split ({n_x}, {n_y}) of N={n}")
    return Operator(_splitting_matrix(k, n, n_x, n_y))


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
