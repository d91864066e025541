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

A round runs on the bare vector: _tunnel rotates it in place, _sector_weights
reads every sector weight in one pass, and _post_select normalizes the
counted block. run_protocol keeps one vector for all its rounds;
apply_tunneling, sector_probabilities and project_sector are thin wrappers
over the same steps for a TwoModeState."""

from __future__ import annotations

import cmath
import math
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


@dataclass(frozen=True)
class TwoModeState:
    """State of N particles with K internal levels shared between two spatial
    modes. The amplitudes are one read-only vector, the raveled sector blocks
    concatenated in _sector_keys order; sectors maps each particle-number
    sector (N_A, N_B) to a read-only view of its block."""

    k: int
    n: int
    sectors: dict[tuple[int, int], np.ndarray]
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)

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
    """|r|^2 + |t|^2, the squared column norm of [[r, t*], [t, -r*]], must be
    1 within PARTICLE_UNITARY_TOL, as for an SU(K) label."""
    r, t = complex(r), complex(t)
    if not (cmath.isfinite(r) and cmath.isfinite(t)):
        raise ValueError(f"tunneling amplitudes must be finite, got r={r!r}, t={t!r}")
    if abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) > PARTICLE_UNITARY_TOL:
        raise ValueError(f"|r|^2 + |t|^2 must be 1, got {abs(r)**2 + abs(t)**2!r}")
    return r, t


@lru_cache(maxsize=16)
def _level_rotations(n: int, r: complex, t: complex) -> tuple[np.ndarray, ...]:
    """D_m for m = 0..N: the m-th symmetric power of the single-level map
    [[r, t*], [t, -r*]], on the states (m, 0), (m-1, 1), ..., (0, m) of one
    internal level in modes (A, B)."""
    return _pair_powers(n, np.array([[r, t.conjugate()], [t, -r.conjugate()]]))


def _tunnel(k: int, n: int, amps: np.ndarray, r: complex, t: complex) -> None:
    """One tunneling pass over amps, a vector in _blocks order, in place: for
    each internal level j, the rotation of levels (j_A, j_B)."""
    rotations = _level_rotations(n, r, t)
    for _, groups in _pair_groups(_two_mode_layout, k, n):
        _rotate(amps, groups, rotations)


def _sector_weights(k: int, n: int, amps: np.ndarray) -> np.ndarray:
    """Squared norm of every sector block of amps, in _sector_keys order."""
    parts = amps.view(np.float64)
    return np.add.reduceat(parts * parts, _float_starts(k, n))


def _post_select(k: int, n: int, amps: np.ndarray, weights: np.ndarray, index: int) -> tuple[np.ndarray, float]:
    """The raveled block of sector _sector_keys(n)[index], normalized, and its
    probability weights[index]."""
    prob = float(weights[index])
    if prob <= MIN_SECTOR_PROB:
        raise ValueError(f"sector {_sector_keys(n)[index]} has vanishing probability {prob!r}")
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
    """Amplitude sqrt(binom(N, N_A)) r^{N_A} t^{N_B} with which a coherent
    input populates sector (N_A, N_B) after one tunneling pass."""
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
                and all(map(_is_integer, self.target))):
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
    def from_magnitudes(cls, r_mag: float, phase: float = 0.0, **kwargs) -> "ProtocolConfig":
        """Convention used by the CLI: real r, t = |t| e^{i phase} with |t| = sqrt(1 - r^2)."""
        return cls(r=complex(r_mag), t=math.sqrt(max(1.0 - r_mag**2, 0.0)) * _phase_factor(phase), **kwargs)


def _phase_factor(phase: float) -> complex:
    """e^{i phase}, the CLI's phase of t; a one-line ValueError unless phase is finite."""
    if not math.isfinite(phase):
        raise ValueError(f"phase of t must be finite, got {phase!r}")
    return complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class ProtocolResult:
    """Trace of one protocol run: the outcome sequence, whether the target
    was reached, and the fidelity of the post-selected state against the
    splitting isometry applied to the input."""

    succeeded: bool
    rounds: int
    outcomes: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]
    fidelity: float | None
    final_block: np.ndarray | None = field(repr=False, default=None)


def _sample_sector(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the first sector whose running sum of weights reaches a
    uniform draw; the last sector if roundoff leaves the draw above them all."""
    u = rng.random()
    acc = 0.0
    for index, weight in enumerate(weights.tolist()):
        acc += weight
        if u <= acc:
            return index
    return weights.size - 1


def run_protocol(input_state: SymmetricState, cfg: ProtocolConfig) -> ProtocolResult:
    """Run the tunnel-measure-repeat loop until the target sector is counted
    or max_rounds is exhausted.

    After a failed round the post-measurement two-mode state (modes already
    populated) is carried into the next tunneling pass unchanged; the
    coherent-label structure is untouched by counting, so on success the
    post-selected state reproduces the splitting isometry output exactly.
    The fidelity is taken against apply_splitting, which shares no code with
    the tunneling kernel.

    All rounds work on one amplitude vector; each round checks its unit norm
    from the summed sector weights.
    """
    n_x, n_y = cfg.target
    if n_x + n_y != input_state.n:
        raise ValueError(f"target {cfg.target} does not partition N={input_state.n}")
    rng = np.random.default_rng(cfg.seed)
    reference = apply_splitting(input_state, n_x, n_y)

    k, n = input_state.k, input_state.n
    keys, blocks = _sector_keys(n), _blocks(k, n)
    amps = np.zeros(blocks[-1][2].stop, dtype=complex)
    amps[blocks[0][2]] = input_state.amplitudes  # inject: all of it in sector (N, 0)
    outcomes: list[tuple[int, int]] = []
    probs_seen: list[float] = []
    for round_no in range(1, cfg.max_rounds + 1):
        _tunnel(k, n, amps, cfg.r, cfg.t)
        weights = _sector_weights(k, n, amps)
        check_unit_vector(amps, "two-mode state", squared_norm=float(weights.sum()))
        index = _sample_sector(weights, rng)
        block, prob = _post_select(k, n, amps, weights, index)
        outcomes.append(keys[index])
        probs_seen.append(prob)
        if keys[index] == cfg.target:
            fid = abs(np.vdot(reference, block)) ** 2
            return ProtocolResult(succeeded=True, rounds=round_no, outcomes=tuple(outcomes),
                                  probabilities=tuple(probs_seen), fidelity=float(fid),
                                  final_block=block.reshape(blocks[index][1]))
        amps[:] = 0.0
        amps[blocks[index][2]] = block
    return ProtocolResult(succeeded=False, rounds=cfg.max_rounds, outcomes=tuple(outcomes),
                          probabilities=tuple(probs_seen), fidelity=None, final_block=None)
