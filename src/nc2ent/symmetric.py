"""Symmetric coherent states on the Dicke (occupation-number) basis, their
power-law overlap structure, and the particle-number splitting isometry that
sends every coherent state to a product of two smaller coherent states."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import NORM_TOL, StateVector, _built, _check_dense, _frozen, _is_integer, check_unit_vector, is_unitary

MAX_PARTICLES = 12
MAX_LEVELS = 6
# entrywise |UU^dag - I| of a single-particle map (SU(K) label, tunneling pair); it moves a
# column's squared norm by at most K times this, an N-fold product's norm by NK/2 times
PARTICLE_UNITARY_TOL = NORM_TOL / (MAX_LEVELS * MAX_PARTICLES)


def _check_particle_number(n) -> None:
    """A one-line ValueError naming n unless it is a nonnegative integer (a bool is not)."""
    if not (_is_integer(n) and n >= 0):
        raise ValueError(f"particle number N must be a nonnegative integer, got {n!r}")


def _check_caps(k: int, n: int) -> None:
    """Raise a one-line ValueError unless K and N are integers (not bools)
    within the desk-scale caps."""
    if not _is_integer(k):
        raise ValueError(f"level count K must be an integer, got {k!r}")
    if not _is_integer(n):
        raise ValueError(f"particle number N must be an integer, got {n!r}")
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


def _check_size(k: int, n: int, size: int) -> None:
    """Raise unless (K, N) is within the caps and Sym^N(C^K) has size amplitudes."""
    if size != dicke_dim(k, n):
        raise ValueError(f"expected {dicke_dim(k, n)} amplitudes for (K={k}, N={n}), got {size}")


@lru_cache(maxsize=None, typed=True)
def occupation_basis(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All occupation vectors (n_0, ..., n_{K-1}) with sum N, ordered
    lexicographically descending, so (N, 0, ..., 0) comes first. K >= 1 and
    N >= 0 must be integers (not bools); the cache is typed, so 2.0 or True
    never reads the entry of 2 or 1."""
    if not (_is_integer(k) and k >= 1):
        raise ValueError(f"level count K must be a positive integer, got {k!r}")
    _check_particle_number(n)
    if k == 1:
        return ((n,),)
    out = []
    for head in range(n, -1, -1):
        out.extend((head,) + rest for rest in occupation_basis(k - 1, n - head))
    return tuple(out)


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


@dataclass(frozen=True, eq=False)
class SuUnitary:
    """Unitary single-particle transformation on K internal levels, within
    PARTICLE_UNITARY_TOL. A global phase is irrelevant to the coherent states
    it labels, so any U(K) element is accepted."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.ndim != 2:
            raise ValueError(f"SU(K) label must be a matrix, got ndim={m.ndim}")
        if m.shape[0] < 2:
            raise ValueError("need at least 2 levels")
        if not is_unitary(m, PARTICLE_UNITARY_TOL):  # False for a non-square or NaN matrix
            raise ValueError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", m)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def reference_column(self) -> np.ndarray:
        """The single-particle state U|0> that labels the coherent family."""
        return self.matrix[:, 0]


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Vector on Sym^N(C^K) with amplitudes indexed by occupation_basis(K, N).
    modesplit.run_protocol keeps what a job's runs share on the instance, outside
    the fields (modesplit._shared)."""

    k: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        _check_size(self.k, self.n, amps.size)
        check_unit_vector(amps, "symmetric state")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, k: int, n: int, amplitudes) -> "SymmetricState":
        amps = StateVector.normalized(amplitudes).amplitudes
        _check_size(k, n, amps.size)
        return _built(cls, k=k, n=n, amplitudes=amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "SymmetricState") -> complex:
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("symmetric states live in different sectors")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def as_state_vector(self) -> StateVector:
        return _built(StateVector, amplitudes=self.amplitudes)


def coherent_state(u: SuUnitary, n: int) -> SymmetricState:
    """N-fold tensor power of the single-particle state U|0>, expanded in the
    Dicke basis: amplitude sqrt(N!/prod n_j!) * prod u_j^{n_j} on occupation
    (n_0, ..., n_{K-1})."""
    _check_caps(u.k, n)
    occs, _ = _dicke_layout(u.k, n)
    fact = np.array([math.factorial(x) for x in range(n + 1)], dtype=float)
    multinomial = math.factorial(n) / np.prod(fact[occs], axis=1)
    return _built(SymmetricState, k=u.k, n=n,
                  amplitudes=np.sqrt(multinomial) * _monomials(u.reference_column(), occs, n))


def overlap(u: SuUnitary, v: SuUnitary, n: int) -> complex:
    """Coherent-state overlap <U;N|V;N> = <0|U^dag V|0>^N."""
    if u.k != v.k:
        raise ValueError("unitaries act on different level counts")
    _check_particle_number(n)
    single = complex(np.vdot(u.reference_column(), v.reference_column()))
    return single**n


def haar_random_su(k: int, seed) -> SuUnitary:
    """Haar-distributed unitary from the QR decomposition of a complex
    Gaussian matrix with phase-corrected diagonal; deterministic per seed."""
    if not (_is_integer(k) and k >= 2):
        raise ValueError(f"level count K must be an integer of at least 2, got {k!r}")
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
    index = {occ: i for i, occ in enumerate(basis)}
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


@lru_cache(maxsize=None)
def _power_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Static part of _pair_powers for m = 0..N. Entry (row, col) of D_m maps
    (n_p, n_q) = (m - col, col) to (i, m - i), i = m - row, with the value
    sum_s w a^s c^(n_p - s) b^(i - s) d^(n_q - i + s), where
    w = binom(n_p, s) binom(n_q, i - s) sqrt(i! (m - i)! / (n_p! n_q!)).
    Returns w and the four exponents, shapes (P, N+1) and (4, P, N+1) with
    w = 0 where an exponent would be negative, for the P entries of D_0, D_1,
    ... raveled one after another; and the offset of each D_m among them."""
    fact = np.array([math.factorial(x) for x in range(n + 1)], dtype=float)
    binom = np.array([[math.comb(x, y) for y in range(n + 1)] for x in range(n + 1)], dtype=float)
    m, row, col = np.ix_(*[np.arange(n + 1)] * 3)
    entry = (row <= m) & (col <= m)
    m, row, col = (np.broadcast_to(x, entry.shape)[entry][:, None] for x in (m, row, col))
    s = np.arange(n + 1)
    i, n_p, n_q = m - row, m - col, col
    exponents = np.stack(np.broadcast_arrays(s, n_p - s, i - s, n_q - i + s))
    valid = np.all(exponents >= 0, axis=0)
    exponents[:, ~valid] = 0
    scale = np.sqrt(fact[i] * fact[m - i] / (fact[n_p] * fact[n_q]))
    weights = np.where(valid, binom[n_p, s] * binom[n_q, i - s] * scale, 0.0)
    offsets = np.cumsum([0] + [(x + 1) ** 2 for x in range(n + 1)])
    return weights, exponents, offsets


def _power_table(x: np.ndarray, n: int) -> np.ndarray:
    """x_i^e for e = 0..N by repeated multiplication, one row per x_i."""
    steps = np.ones((x.size, n + 1), dtype=complex)
    steps[:, 1:] = x[:, None]
    return np.cumprod(steps, axis=1)


def _monomials(x: np.ndarray, occs: np.ndarray, n: int) -> np.ndarray:
    """prod_j x_j^{n_j} for every occupation row (n_0, ..., n_{K-1}) of occs,
    each at most N."""
    return np.prod(_power_table(x, n)[np.arange(x.size), occs], axis=1)


def _pair_powers(n: int, u2: np.ndarray) -> tuple[np.ndarray, ...]:
    """D_0, ..., D_N: the m-th symmetric powers of a 2 x 2 matrix [[a, b], [c, d]]
    acting on two levels (p, q), on the states (n_p, n_q) = (m, 0), (m-1, 1),
    ..., (0, m). Column (m - col, col) is the expansion of
    (a x + c)^(m - col) (b x + d)^col, x marking level p; the same matrices
    symmetric_power_matrix builds monomial by monomial."""
    weights, exponents, offsets = _power_terms(n)
    (a, b), (c, d) = np.asarray(u2, dtype=complex)
    powers = _power_table(np.array([a, c, b, d]), n)
    flat = (weights * np.prod(powers[np.arange(4)[:, None, None], exponents], axis=0)).sum(axis=1)
    return tuple(flat[offsets[m]:offsets[m + 1]].reshape(m + 1, m + 1) for m in range(n + 1))


_Layout = Callable[[int, int], tuple[np.ndarray, tuple[tuple[int, int], ...]]]


@lru_cache(maxsize=16)
def _pair_groups(layout: _Layout, k: int, n: int) -> tuple[tuple[tuple[int, int], tuple[np.ndarray, ...]], ...]:
    """layout(K, N) gives the occupation rows of an amplitude vector, one row
    per amplitude, and the level pairs (p, q) to be rotated. For each pair and
    each total m = n_p + n_q = 1..N this returns an index array of shape
    (m+1, R): column c lists the m+1 amplitudes that agree on every other
    level and hold n_p = m, m-1, ..., 0. The cache keeps 16 layouts."""
    occs, pairs = layout(k, n)
    radix = (n + 1) ** np.arange(occs.shape[1] + 1, dtype=np.int64)
    code = np.einsum("ij,j->i", occs, radix[:-1], dtype=np.int64)
    out = []
    for p, q in pairs:
        # the code with level q's particles moved to level p names the group; the
        # sort key orders by total m, then group, then descending n_p
        total = occs[:, p] + occs[:, q]
        group = code + occs[:, q] * (radix[p] - radix[q])
        order = np.argsort((total * radix[-1] + group) * (n + 1) + (n - occs[:, p]))  # < (N+1)^(2K+2)
        ends = np.cumsum(np.bincount(total, minlength=n + 1))
        out.append(((p, q), tuple(np.ascontiguousarray(order[ends[m - 1]:ends[m]].reshape(-1, m + 1).T)
                                  for m in range(1, n + 1))))
    return tuple(out)


def _rotate(amps: np.ndarray, groups: tuple[np.ndarray, ...], powers: tuple[np.ndarray, ...]) -> None:
    """The two-level kernel: apply D_m (powers, from _pair_powers) in place to
    every group of total m (groups, one entry of _pair_groups); D_0 = 1 is
    skipped."""
    for rotation, idx in zip(powers[1:], groups):
        amps[idx] = rotation @ amps[idx]


@lru_cache(maxsize=None)
def _dicke_layout(k: int, n: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Occupations of the Dicke basis, and every level pair p < q."""
    occs = np.array(occupation_basis(k, n), dtype=np.int8)
    return occs, tuple((p, q) for p in range(k - 1) for q in range(p + 1, k))


def _givens(u: np.ndarray) -> tuple[list[tuple[tuple[int, int], np.ndarray]], np.ndarray]:
    """Factor a unitary as U = G_1 G_2 ... G_L diag(d): each G acts on one
    level pair (p, q), p < q, listed in _dicke_layout order with its 2 x 2
    block. Column p is cleared below the diagonal by rotations on (p, q),
    q = p+1..K-1 (Reck et al., PRL 73, 58 (1994)); a pair with nothing to
    clear gets no rotation. What remains is diagonal to roundoff, and its
    diagonal is d."""
    m = np.array(u, dtype=complex)
    rotations = []
    for p in range(m.shape[0] - 1):
        for q in range(p + 1, m.shape[0]):
            x, y = m[p, p], m[q, p]
            if y == 0:
                continue
            clear = np.array([[x.conjugate(), y.conjugate()], [-y, x]]) / math.hypot(abs(x), abs(y))
            m[[p, q]] = clear @ m[[p, q]]
            rotations.append(((p, q), clear.conj().T))
    return rotations, np.diag(m).copy()


def apply_unitary(u: SuUnitary, state: SymmetricState) -> SymmetricState:
    """Collective action of U on every particle of a symmetric state. With U
    factored as Givens rotations times diag(d) (_givens), the diagonal
    multiplies the amplitude of occupation n by prod_j d_j^{n_j}, and each
    rotation on levels (p, q) applies its symmetric powers D_m to the groups
    of amplitudes that differ only in how n_p + n_q = m is split. No matrix
    on Sym^N is built."""
    if u.k != state.k:
        raise ValueError("level-count mismatch")
    k, n = state.k, state.n
    rotations, d = _givens(u.matrix)
    occs, _ = _dicke_layout(k, n)
    amps = state.amplitudes * _monomials(d, occs, n)
    groups = dict(_pair_groups(_dicke_layout, k, n))
    for pair, block in reversed(rotations):
        _rotate(amps, groups[pair], _pair_powers(n, block))
    return _built(SymmetricState, k=k, n=n, amplitudes=amps)


def _check_split(k: int, n: int, n_x: int, n_y: int) -> None:
    _check_caps(k, n)
    if not (_is_integer(n_x) and _is_integer(n_y)):
        raise ValueError(f"split counts N_X and N_Y must be integers, got ({n_x!r}, {n_y!r})")
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
    Sym^{N_X}(C^K) (x) Sym^{N_Y}(C^K), equal to splitting_isometry(...) @ amplitudes."""
    _check_split(state.k, state.n, n_x, n_y)
    source, weight = _splitting_gather(state.k, state.n, n_x)
    return state.amplitudes[source] * weight


def splitting_isometry(k: int, n: int, n_x: int, n_y: int) -> np.ndarray:
    """Isometry from Sym^N(C^K) into Sym^{N_X}(C^K) (x) Sym^{N_Y}(C^K) that
    distributes each occupation over the two factors with square-root
    binomial weights; it maps every coherent state |U;N> to the product
    |U;N_X> (x) |U;N_Y> and preserves all pairwise overlaps. A dense read-only
    array, so subject to the MAX_DENSE_BYTES guard; apply_splitting needs no matrix."""
    _check_split(k, n, n_x, n_y)
    rows, cols = dicke_dim(k, n_x) * dicke_dim(k, n_y), dicke_dim(k, n)
    _check_dense(rows, cols, f"splitting isometry (K={k}, N={n}) -> ({n_x}, {n_y})")
    source, weight = _splitting_gather(k, n, n_x)
    out = np.zeros((rows, cols), dtype=complex)
    out[np.arange(rows), source] = weight
    out.setflags(write=False)
    return out
