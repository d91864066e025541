"""Two-mode simulation of the physical protocol realizing the particle-number
splitting isometry: a number-conserving tunneling rotation between modes A
and B, projective particle counting per mode, post-selection on the target
sector, and a repeat-until-success loop.

The state is kept as one amplitude vector, the blocks of the counting
outcomes (N_A, N_B) on Sym^{N_A}(C^K) (x) Sym^{N_B}(C^K) raveled in sector
order, C(N+2K-1, 2K-1) amplitudes in all; each sector is a read-only view of
its block. The tunneling rotation a_j -> r a_jA + t a_jB acts on every internal
level j on its own and keeps the level's total m = n_jA + n_jB, so a pass is
the two-level kernel of symmetric.py (the one apply_unitary uses) once per
level pair (j_A, j_B): one (m+1) x (m+1) matrix per total m, in closed form,
applied to every group of amplitudes that differ only in how level j's m
particles are split. No matrix on the whole two-mode space is built.

A round of the kernel runs on the bare vector: _tunnel rotates it in place,
_sector_weights reads every sector weight in one pass, and _post_select
normalizes the counted block. apply_tunneling, sector_probabilities and
project_sector are thin wrappers over the same steps for a TwoModeState.

The counting sees only the two-mode "spin": tunneling acts on the mode index
and the SU(K) label on the level index (Howe duality). A pre-state c S_j psi,
alone in sector j, tunnels to sum_i c D_N[i, j] S_i psi, with D_N the N-th
symmetric power of the 2 x 2 tunneling matrix and S_i psi the splitting
isometry's output (psi itself at (N, 0) and (0, N)), for any K and any
symmetric psi. So run_protocol samples the (N+1)-state chain on D_N and runs
the kernel only on the transition that reaches the target. The chain's
weights |D_N[i, j]|^2 do not depend on the run: one table per (N, r, t) holds
them, their running sums and D_N's columns, and checks once per column that
the weights sum to 1, so a round is a lookup in it. That pass depends
on the state, the last count's sector and (target, r, t) alone, so it runs
once per state and last-count sector: the state keeps the post-selected
blocks, and the reference S psi, for the latest (target, r, t), and every
later run of a job reads them."""

from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import _built, _is_integer, check_unit_vector
from .symmetric import (
    PARTICLE_UNITARY_TOL,
    SymmetricState,
    apply_splitting,
    dicke_dim,
    _check_caps,
    _check_particle_number,
    _occupation_pairs,
    _occupation_ranks,
    _pair_groups,
    _pair_powers,
    _rotate,
)

MIN_SECTOR_PROB = 1e-15


@lru_cache(maxsize=None)
def _sector_keys(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((n_a, n - n_a) for n_a in range(n, -1, -1))


@lru_cache(maxsize=None)
def _blocks(k: int, n: int) -> tuple[tuple[tuple[int, int], tuple[int, int], slice], ...]:
    """(sector key, block shape, slice of the concatenated raveled blocks)
    for every sector, in _sector_keys order."""
    out, start = [], 0
    for key in _sector_keys(n):
        shape = (dicke_dim(k, key[0]), dicke_dim(k, key[1]))
        out.append((key, shape, slice(start, start + shape[0] * shape[1])))
        start += shape[0] * shape[1]
    return tuple(out)


@lru_cache(maxsize=None)
def _float_starts(k: int, n: int) -> np.ndarray:
    """Start of every sector block in the float64 view of the amplitude
    vector (re, im, re, im, ...), in _sector_keys order."""
    return np.array([2 * part.start for _, _, part in _blocks(k, n)])


def _two_mode_layout(k: int, n: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Occupations of modes A and B, (a_0..a_{K-1}, b_0..b_{K-1}), of every
    amplitude in _blocks order, and the level pairs (j, K+j) that tunneling
    rotates."""
    pairs = [_occupation_pairs(k, n_a, n_b) for n_a, n_b in _sector_keys(n)]
    occs = np.hstack([np.concatenate([a for a, _ in pairs]), np.concatenate([b for _, b in pairs])])
    return occs, tuple((j, k + j) for j in range(k))


@lru_cache(maxsize=8)
def _flat_positions(k: int, n: int) -> np.ndarray:
    """Position of every block amplitude in the flat Dicke basis of
    Sym^N(C^{2K}) (K levels per mode, A levels first)."""
    return _occupation_ranks(_two_mode_layout(k, n)[0])


def _split(k: int, n: int, joined: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    return {key: joined[part].reshape(shape) for key, shape, part in _blocks(k, n)}


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """State of N particles with K internal levels shared between two spatial
    modes. The amplitudes are one read-only vector, the raveled sector blocks
    concatenated in _sector_keys order; sectors maps each particle-number
    sector (N_A, N_B) to a read-only view of its block."""

    k: int
    n: int
    sectors: dict[tuple[int, int], np.ndarray]
    amplitudes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_caps(self.k, self.n)
        wrong = sorted(self.sectors.keys() ^ set(_sector_keys(self.n)), key=repr)
        if wrong:
            kind = "unknown" if wrong[0] in self.sectors else "missing"
            raise ValueError(f"{kind} sector {wrong[0]} for N={self.n}")
        parts = []
        for key, shape, _ in _blocks(self.k, self.n):
            block = np.asarray(self.sectors[key], dtype=complex)
            if block.shape != shape:
                raise ValueError(f"sector {key} has shape {block.shape}, expected {shape}")
            parts.append(block.reshape(-1))
        state = self._from_amplitudes(self.k, self.n, np.concatenate(parts))
        object.__setattr__(self, "amplitudes", state.amplitudes)
        object.__setattr__(self, "sectors", state.sectors)

    @classmethod
    def _from_amplitudes(cls, k: int, n: int, amps: np.ndarray) -> "TwoModeState":
        """The state whose amplitudes are amps, a fresh vector in _blocks order
        that the caller hands over; its norm is checked, no sector is copied."""
        _check_caps(k, n)
        check_unit_vector(amps, "two-mode state")
        amps.setflags(write=False)  # before the sector views are taken, so that they are read-only too
        return _built(cls, k=k, n=n, amplitudes=amps, sectors=_split(k, n, amps))

    def to_flat(self) -> np.ndarray:
        """Amplitudes on the flat Dicke basis of Sym^N(C^{2K}), A levels first."""
        positions = _flat_positions(self.k, self.n)
        flat = np.empty(positions.size, dtype=complex)
        flat[positions] = self.amplitudes
        return flat

    @classmethod
    def from_flat(cls, k: int, n: int, flat: np.ndarray) -> "TwoModeState":
        _check_caps(k, n)
        positions = _flat_positions(k, n)
        flat = np.asarray(flat, dtype=complex).reshape(-1)
        if flat.size != positions.size:
            raise ValueError(f"flat vector has size {flat.size}, expected {positions.size}")
        return cls._from_amplitudes(k, n, flat[positions])

    @classmethod
    def single_sector(cls, k: int, n: int, key: tuple[int, int], block: np.ndarray) -> "TwoModeState":
        for sector, shape, part in _blocks(k, n):
            if sector == key:
                block = np.asarray(block, dtype=complex)
                if block.shape != shape:
                    raise ValueError(f"sector {key} has shape {block.shape}, expected {shape}")
                amps = np.zeros(_blocks(k, n)[-1][2].stop, dtype=complex)
                amps[part] = block.reshape(-1)
                return cls._from_amplitudes(k, n, amps)
        raise ValueError(f"unknown sector {key} for N={n}")


def inject(state: SymmetricState) -> TwoModeState:
    """Load a single-mode symmetric state into mode A; mode B starts empty, so
    all amplitude sits in the (N, 0) sector."""
    block = state.amplitudes.reshape(-1, 1)
    return TwoModeState.single_sector(state.k, state.n, (state.n, 0), block)


def _check_mode_pair(r: complex, t: complex) -> tuple[complex, complex]:
    """|r|^2 + |t|^2, the squared column norm of [[r, t*], [t, -r*]], must be 1 within
    PARTICLE_UNITARY_TOL, as for an SU(K) label; summed from products, it is inf where ** would overflow."""
    r, t = complex(r), complex(t)
    if not (cmath.isfinite(r) and cmath.isfinite(t)):
        raise ValueError(f"tunneling amplitudes must be finite, got r={r!r}, t={t!r}")
    total = r.real * r.real + r.imag * r.imag + t.real * t.real + t.imag * t.imag
    if abs(total - 1.0) > PARTICLE_UNITARY_TOL:
        raise ValueError(f"|r|^2 + |t|^2 must be 1, got {total!r}")
    return r, t


_ChainRow = tuple[tuple[float, ...], tuple[float, ...], tuple[complex, ...]]  # weights, running sums, amplitudes


@lru_cache(maxsize=16)
def _level_rotations(n: int, r: complex, t: complex) -> tuple[tuple[np.ndarray, ...], tuple[_ChainRow, ...]]:
    """D_m for m = 0..N: the m-th symmetric power of the single-level map
    [[r, t*], [t, -r*]], on the states (m, 0), (m-1, 1), ..., (0, m) of one
    internal level in modes (A, B); and the sector chain's table on D_N
    (_chain_table), so both are built once per (N, r, t)."""
    rotations = _pair_powers(n, np.array([[r, t.conjugate()], [t, -r.conjugate()]]))
    return rotations, _chain_table(rotations[n])


def _tunnel(k: int, n: int, amps: np.ndarray, r: complex, t: complex) -> None:
    """One tunneling pass over amps, a vector in _blocks order, in place: for
    each internal level j, the rotation of levels (j_A, j_B)."""
    rotations = _level_rotations(n, r, t)[0]
    for _, groups in _pair_groups(_two_mode_layout, k, n):
        _rotate(amps, groups, rotations)


def _sector_weights(k: int, n: int, amps: np.ndarray) -> np.ndarray:
    """Squared norm of every sector block of amps, in _sector_keys order."""
    parts = amps.view(np.float64)
    return np.add.reduceat(parts * parts, _float_starts(k, n))


def _count_probability(n: int, weights: np.ndarray | tuple[float, ...], index: int) -> float:
    """weights[index], the probability of counting sector _sector_keys(n)[index];
    a one-line ValueError if it is at most MIN_SECTOR_PROB."""
    prob = float(weights[index])
    if prob <= MIN_SECTOR_PROB:
        raise ValueError(f"sector {_sector_keys(n)[index]} has vanishing probability {prob!r}")
    return prob


def _post_select(k: int, n: int, amps: np.ndarray, weights: np.ndarray, index: int) -> tuple[np.ndarray, float]:
    """The raveled block of sector _sector_keys(n)[index], normalized, and its
    probability weights[index]."""
    prob = _count_probability(n, weights, index)
    return amps[_blocks(k, n)[index][2]] / math.sqrt(prob), prob


def apply_tunneling(state: TwoModeState, r: complex, t: complex) -> TwoModeState:
    """Apply the tunneling/beamsplitter rotation |j_A> -> r|j_A> + t|j_B>,
    |j_B> -> t*|j_A> - r*|j_B> between the modes; unitary, so the norm is
    preserved while amplitude spreads over sectors. It runs one internal
    level at a time: for each level j and level total m, the matrix D_m mixes
    every group of m+1 amplitudes that differ only in level j's split."""
    r, t = _check_mode_pair(r, t)
    amps = state.amplitudes.copy()
    _tunnel(state.k, state.n, amps, r, t)
    return TwoModeState._from_amplitudes(state.k, state.n, amps)


def sector_probabilities(state: TwoModeState) -> dict[tuple[int, int], float]:
    """Probability of each particle-count outcome (N_A, N_B): the squared
    norm of the sector block. The outcomes sum to 1."""
    weights = _sector_weights(state.k, state.n, state.amplitudes)
    return dict(zip(_sector_keys(state.n), weights.tolist()))


def project_sector(state: TwoModeState, n_a: int, n_b: int) -> tuple[np.ndarray, float]:
    """Post-measurement block for outcome (N_A, N_B), normalized, together
    with the outcome probability."""
    keys = _sector_keys(state.n)
    if (n_a, n_b) not in keys:
        raise ValueError(f"no sector {(n_a, n_b)} for N={state.n}")
    index = keys.index((n_a, n_b))
    weights = _sector_weights(state.k, state.n, state.amplitudes)
    block, prob = _post_select(state.k, state.n, state.amplitudes, weights, index)
    return block.reshape(_blocks(state.k, state.n)[index][1]), prob


def binomial_sector_amplitude(n: int, n_a: int, r: complex, t: complex) -> complex:
    """Amplitude sqrt(binom(N, N_A)) r^{N_A} t^{N_B} with which any symmetric
    input loaded into mode A (inject), coherent or not, populates sector
    (N_A, N_B) after one tunneling pass: the rotation acts on the mode index
    alike for every internal level, so the sector weights are independent of
    K and of the input. n must be a nonnegative integer and n_a an integer
    in 0..n; otherwise a one-line ValueError names them."""
    _check_particle_number(n)
    if not (_is_integer(n_a) and 0 <= n_a <= n):
        raise ValueError(f"sector count N_A must be an integer in 0..{n}, got {n_a!r}")
    return math.sqrt(math.comb(n, n_a)) * r**n_a * t ** (n - n_a)


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunneling parameters and stopping rule for the repeat-until-success
    protocol. |r| must differ from 0 and 1 so both modes can be populated.
    target is two integers; max_rounds, and seed unless None, are nonnegative integers."""

    r: complex
    t: complex
    target: tuple[int, int]
    max_rounds: int = 100
    seed: int | None = None

    def __post_init__(self):
        r, t = _check_mode_pair(self.r, self.t)
        if abs(r) < 1e-12 or abs(abs(r) - 1.0) < 1e-12:
            raise ValueError("|r| must differ from 0 and 1")
        if not (isinstance(self.target, (tuple, list)) and len(self.target) == 2
                and _is_integer(self.target[0]) and _is_integer(self.target[1])):
            raise ValueError(f"target must be two integers, got {self.target!r}")
        n_x, n_y = self.target
        if n_x < 1 or n_y < 1:
            raise ValueError(f"target sector {self.target} must have both counts >= 1")
        if not _is_integer(self.max_rounds):
            raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be nonnegative")
        if self.seed is not None and not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be None or a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "target", (int(n_x), int(n_y)))

    @classmethod
    def from_magnitudes(cls, r_mag: float, phase: float = 0.0, t_mag: float | None = None,
                        **kwargs) -> "ProtocolConfig":
        """The CLI's convention: real r, t = |t| e^{i phase} with |t| = t_mag, or sqrt(1 - r^2) if None;
        a one-line ValueError unless phase is finite."""
        if t_mag is None:  # 0 for |r| > 1, where r^2 could overflow
            t_mag = math.sqrt(max(1.0 - r_mag**2, 0.0)) if not abs(r_mag) > 1.0 else 0.0
        if not math.isfinite(phase):
            raise ValueError(f"phase of t must be finite, got {phase!r}")
        return cls(r=complex(r_mag), t=t_mag * complex(math.cos(phase), math.sin(phase)), **kwargs)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Trace of one protocol run: the outcome sequence, whether the target
    was reached, and the fidelity of the post-selected state against the
    splitting isometry applied to the input. final_block is read-only: runs
    of one state that succeed from the same last count with phase 1 share it."""

    succeeded: bool
    rounds: int
    outcomes: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    fidelity: float | None
    final_block: np.ndarray | None = field(repr=False, default=None)


def _transitions(n: int, r: complex, t: complex) -> np.ndarray:
    """D_N, the amplitudes of the sector chain: one tunneling pass takes the
    pre-state c S_j psi of sector j = _sector_keys(n)[j] to c D_N[i, j] S_i psi
    in every sector i, for any K and any symmetric psi, so |D_N[i, j]|^2 is the
    probability of counting i after j."""
    return _level_rotations(n, r, t)[0][n]


def _chain_table(transitions: np.ndarray) -> tuple[_ChainRow, ...]:
    """Per last count prev, the row of the sector chain on D_N = transitions:
    the weights |D_N[i, prev]|^2 of the next count i, their running sums
    formed left to right, and the column D_N[:, prev], as tuples of Python
    numbers that the runs of every job share. A phase of modulus 1 leaves the weights alone, so every run
    reads the same rows. Each column's unit sum is checked here, once."""
    weights = transitions.real**2 + transitions.imag**2
    rows = []
    for column, amplitudes in zip(weights.T.tolist(), transitions.T):
        check_unit_vector(amplitudes, "two-mode state", squared_norm=sum(column))
        rows.append((tuple(column), tuple(itertools.accumulate(column)), tuple(amplitudes.tolist())))
    return tuple(rows)


def _chain(n: int, r: complex, t: complex) -> tuple[_ChainRow, ...]:
    """The sector chain's table of (N, r, t) (_chain_table), from the cache entry of _level_rotations."""
    return _level_rotations(n, r, t)[1]


def _target_index(cfg: ProtocolConfig, n: int) -> int:
    """Index of cfg.target in _sector_keys(n); a one-line ValueError unless it partitions N."""
    if sum(cfg.target) != n:
        raise ValueError(f"target {cfg.target} does not partition N={n}")
    return _sector_keys(n).index(cfg.target)


def success_probability_by_round(cfg: ProtocolConfig, n: int, rounds: int) -> list[float]:
    """Exact probability that a run of N particles first counts cfg.target in
    round 1, 2, ..., rounds: the absorbing chain on |D_N|^2 from (N, 0), read
    from the table run_protocol draws from (_chain). It holds for any K and
    any symmetric input. N and rounds must be nonnegative integers."""
    _check_particle_number(n)
    if not (_is_integer(rounds) and rounds >= 0):
        raise ValueError(f"rounds must be a nonnegative integer, got {rounds!r}")
    goal = _target_index(cfg, n)
    moves = np.column_stack([weights for weights, _, _ in _chain(n, cfg.r, cfg.t)])
    alive = np.zeros(n + 1)
    alive[0] = 1.0
    out = []
    for _ in range(rounds):
        alive = moves @ alive
        out.append(float(alive[goal]))
        alive[goal] = 0.0
    return out


def _sector_image(state: SymmetricState, index: int) -> np.ndarray:
    """S psi raveled on sector _sector_keys(n)[index]: apply_splitting, or psi
    itself in (N, 0) and (0, N)."""
    n_a, n_b = _sector_keys(state.n)[index]
    return state.amplitudes if n_a == 0 or n_b == 0 else apply_splitting(state, n_a, n_b)


def _last_transition(state: SymmetricState, prev: int, goal: int, r: complex, t: complex) -> np.ndarray:
    """The kernel's one pass on the transition that reaches the target: the
    pre-state S_prev psi, alone in sector prev, tunneled, counted in sector
    goal and normalized, as a read-only block."""
    k, n = state.k, state.n
    blocks = _blocks(k, n)
    amps = np.zeros(blocks[-1][2].stop, dtype=complex)
    amps[blocks[prev][2]] = _sector_image(state, prev)
    _tunnel(k, n, amps, r, t)
    weights = _sector_weights(k, n, amps)
    check_unit_vector(amps, "two-mode state", squared_norm=float(weights.sum()))
    block, _ = _post_select(k, n, amps, weights, goal)
    block.setflags(write=False)
    return block.reshape(blocks[goal][1])


def _shared(state: SymmetricState, cfg: ProtocolConfig) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """What the runs of state under cfg's (target, r, t) share: the reference
    apply_splitting(psi, *target), and _last_transition's block per last count
    prev, filled as runs reach the target. The attribute _protocol_memo, no
    dataclass field (repr ignores it), holds the latest (target, r, t)
    only: at most one reference and N + 1 blocks per state."""
    key = (cfg.target, cfg.r, cfg.t)
    memo = getattr(state, "_protocol_memo", None)
    if memo is None or memo[0] != key:
        reference = apply_splitting(state, *cfg.target)
        reference.setflags(write=False)
        memo = (key, reference, {})
        object.__setattr__(state, "_protocol_memo", memo)
    return memo[1], memo[2]


def _run_seed(seed: int, run: int) -> int:
    """The seed of a job's run `run`, that of SeedSequence(seed).spawn(runs)[run] bit for bit,
    made without the other children, so a job's memory does not grow with its run count."""
    return int(np.random.SeedSequence(seed, spawn_key=(run,)).generate_state(1)[0])


def run_protocol(input_state: SymmetricState, cfg: ProtocolConfig) -> ProtocolResult:
    """Run the tunnel-measure-repeat loop until the target sector is counted
    or max_rounds is exhausted.

    A run walks the sector chain of the module docstring and keeps only the
    last count's sector prev and the phase of its block. Each round draws a
    count from the row prev of the chain's table (_chain), the weights
    |D_N[:, prev]|^2 that a phase of modulus 1 leaves alone, by bisecting
    their running sums; the table, its unit-sum check included, is built once
    per (N, r, t). On success the output is the kernel's post-selected
    block from the pre-state S_prev psi times the phase; the fidelity
    compares it with apply_splitting, which shares no code with the kernel.
    The kernel runs once per state and last count, and the reference once
    per state, for the latest (target, r, t) (_shared); a job's runs differ
    in their seed only, so they share both. A success in round 1 has phase 1
    and is the kernel's pass from inject(psi), bit for bit; the block is
    read-only, as results share it.
    """
    n = input_state.n
    goal = _target_index(cfg, n)
    rng = np.random.default_rng(cfg.seed)
    reference, passes = _shared(input_state, cfg)

    keys = _sector_keys(n)
    chain = _chain(n, cfg.r, cfg.t)
    prev, phase = 0, complex(1.0)
    outcomes: list[tuple[int, int]] = []
    probs_seen: list[float] = []
    for round_no in range(1, cfg.max_rounds + 1):
        weights, running, column = chain[prev]
        index = min(bisect_left(running, rng.random()), n)  # n if roundoff leaves the draw above every sum
        prob = _count_probability(n, weights, index)
        outcomes.append(keys[index])
        probs_seen.append(prob)
        if index == goal:
            if prev not in passes:
                passes[prev] = _last_transition(input_state, prev, goal, cfg.r, cfg.t)
            block = passes[prev]
            if phase != 1.0:
                block = phase * block
                block.setflags(write=False)
            fid = abs(np.vdot(reference, block)) ** 2
            return ProtocolResult(succeeded=True, rounds=round_no, outcomes=tuple(outcomes),
                                  probabilities=tuple(probs_seen), fidelity=float(fid), final_block=block)
        amplitude = phase * column[index]
        prev, phase = index, amplitude / abs(amplitude)
    return ProtocolResult(succeeded=False, rounds=cfg.max_rounds, outcomes=tuple(outcomes),
                          probabilities=tuple(probs_seen), fidelity=None, final_block=None)
