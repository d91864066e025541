"""Two-mode simulation of the physical protocol realizing the particle-number
splitting isometry: a number-conserving tunneling rotation between modes A
and B, projective particle counting per mode, post-selection on the target
sector, and a repeat-until-success loop.

The state is kept as one amplitude vector, the blocks of the counting
outcomes (N_A, N_B) on Sym^{N_A}(C^K) (x) Sym^{N_B}(C^K) raveled in sector
order, C(N+2K-1, 2K-1) amplitudes in all; each sector is a read-only view of
its block. The tunneling rotation a_j -> r a_jA + t a_jB acts on every internal
level j on its own and keeps the level's total m = n_jA + n_jB, so a pass is
one (m+1) x (m+1) matrix per level j and total m, applied to every group of
amplitudes that differ only in how level j's m particles are split. No matrix
on the whole two-mode space is built."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import check_unit_vector
from .symmetric import (
    SymmetricState,
    apply_splitting,
    dicke_dim,
    symmetric_power_matrix,
    _check_caps,
    _occupation_pairs,
    _occupation_ranks,
)

MODE_PAIR_TOL = 1e-12     # |r|^2 + |t|^2 = 1
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


def _entries(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupations (a, b) of modes A and B for every amplitude of the sector
    blocks, raveled and concatenated in _sector_keys order."""
    pairs = [_occupation_pairs(k, n_a, n_b) for n_a, n_b in _sector_keys(n)]
    return np.concatenate([a for a, _ in pairs]), np.concatenate([b for _, b in pairs])


@lru_cache(maxsize=8)
def _level_indices(k: int, n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """For each level j and level total m, an index array of shape (m+1, R)
    into the concatenated blocks. Column c lists the m+1 amplitudes that agree
    on every other level and split level j as n_jA = m, m-1, ..., 0."""
    a, b = _entries(k, n)
    radix = (n + 1) ** np.arange(2 * k, dtype=np.int64)
    code = np.hstack([a, b]) @ radix
    levels = []
    for j in range(k):
        # the code with level j's mode-B particles moved to mode A names the group
        group = code + b[:, j] * (radix[j] - radix[k + j])
        order = np.lexsort((-a[:, j], group))
        total = (a[:, j] + b[:, j])[order]
        levels.append(tuple(np.ascontiguousarray(order[total == m].reshape(-1, m + 1).T)
                            for m in range(n + 1)))
    return tuple(levels)


@lru_cache(maxsize=8)
def _flat_positions(k: int, n: int) -> np.ndarray:
    """Position of every block amplitude in the flat Dicke basis of
    Sym^N(C^{2K}) (K levels per mode, A levels first)."""
    a, b = _entries(k, n)
    return _occupation_ranks(np.hstack([a, b]))


def _weight(block: np.ndarray) -> float:
    """Squared norm of a block."""
    return float(np.vdot(block, block).real)


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
        amps = np.concatenate(parts)
        check_unit_vector(amps, "two-mode state")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "sectors", _split(self.k, self.n, amps))

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
        return cls(k=k, n=n, sectors=_split(k, n, flat[positions]))

    @classmethod
    def single_sector(cls, k: int, n: int, key: tuple[int, int], block: np.ndarray) -> "TwoModeState":
        sectors = _split(k, n, np.zeros(_blocks(k, n)[-1][2].stop, dtype=complex))
        sectors[key] = block
        return cls(k=k, n=n, sectors=sectors)


def inject(state: SymmetricState) -> TwoModeState:
    """Load a single-mode symmetric state into mode A; mode B starts empty, so
    all amplitude sits in the (N, 0) sector."""
    block = state.amplitudes.reshape(-1, 1)
    return TwoModeState.single_sector(state.k, state.n, (state.n, 0), block)


def _check_mode_pair(r: complex, t: complex) -> tuple[complex, complex]:
    r, t = complex(r), complex(t)
    if not (cmath.isfinite(r) and cmath.isfinite(t)):
        raise ValueError(f"tunneling amplitudes must be finite, got r={r!r}, t={t!r}")
    if abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) > MODE_PAIR_TOL:
        raise ValueError(f"|r|^2 + |t|^2 must be 1, got {abs(r)**2 + abs(t)**2!r}")
    return r, t


@lru_cache(maxsize=16)
def _level_rotations(n: int, r: complex, t: complex) -> tuple[np.ndarray, ...]:
    """D_m for m = 0..N: the m-th symmetric power of the single-level map
    [[r, t*], [t, -r*]], on the states (m, 0), (m-1, 1), ..., (0, m) of one
    internal level in modes (A, B)."""
    single = np.array([[r, t.conjugate()], [t, -r.conjugate()]])
    return tuple(symmetric_power_matrix(single, m) for m in range(n + 1))


def apply_tunneling(state: TwoModeState, r: complex, t: complex) -> TwoModeState:
    """Apply the tunneling/beamsplitter rotation |j_A> -> r|j_A> + t|j_B>,
    |j_B> -> t*|j_A> - r*|j_B> between the modes; unitary, so the norm is
    preserved while amplitude spreads over sectors. It runs one internal
    level at a time: for each level j and level total m, the matrix D_m mixes
    every group of m+1 amplitudes that differ only in level j's split."""
    r, t = _check_mode_pair(r, t)
    rotations = _level_rotations(state.n, r, t)
    joined = state.amplitudes.copy()
    for per_total in _level_indices(state.k, state.n):
        for rotation, idx in zip(rotations[1:], per_total[1:]):
            joined[idx] = rotation @ joined[idx]
    return TwoModeState(state.k, state.n, _split(state.k, state.n, joined))


def sector_probabilities(state: TwoModeState) -> dict[tuple[int, int], float]:
    """Probability of each particle-count outcome (N_A, N_B): the squared
    norm of the sector block. The outcomes sum to 1."""
    return {key: _weight(block) for key, block in state.sectors.items()}


def project_sector(state: TwoModeState, n_a: int, n_b: int) -> tuple[np.ndarray, float]:
    """Post-measurement block for outcome (N_A, N_B), normalized, together
    with the outcome probability."""
    key = (n_a, n_b)
    if key not in state.sectors:
        raise ValueError(f"no sector {key} for N={state.n}")
    block = state.sectors[key]
    prob = _weight(block)
    if prob <= MIN_SECTOR_PROB:
        raise ValueError(f"sector {key} has vanishing probability {prob!r}")
    return block / math.sqrt(prob), prob


def binomial_sector_amplitude(n: int, n_a: int, r: complex, t: complex) -> complex:
    """Amplitude sqrt(binom(N, N_A)) r^{N_A} t^{N_B} with which a coherent
    input populates sector (N_A, N_B) after one tunneling pass."""
    return math.sqrt(math.comb(n, n_a)) * r**n_a * t ** (n - n_a)


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunneling parameters and stopping rule for the repeat-until-success
    protocol. |r| must differ from 0 and 1 so both modes can be populated."""

    r: complex
    t: complex
    target: tuple[int, int]
    max_rounds: int = 100
    seed: int | None = None

    def __post_init__(self):
        r, t = _check_mode_pair(self.r, self.t)
        if abs(r) < 1e-12 or abs(abs(r) - 1.0) < 1e-12:
            raise ValueError("|r| must differ from 0 and 1")
        n_x, n_y = self.target
        if n_x < 1 or n_y < 1:
            raise ValueError(f"target sector {self.target} must have both counts >= 1")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be nonnegative")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "target", (int(n_x), int(n_y)))

    @classmethod
    def from_magnitudes(cls, r_mag: float, phase: float = 0.0, **kwargs) -> "ProtocolConfig":
        """Convention used by the CLI: real r, t = |t| e^{i phase}."""
        t_mag = math.sqrt(max(1.0 - r_mag**2, 0.0))
        return cls(r=complex(r_mag), t=t_mag * complex(math.cos(phase), math.sin(phase)), **kwargs)


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


def _sample_sector(probs: dict[tuple[int, int], float], rng: np.random.Generator) -> tuple[int, int]:
    u = rng.random()
    acc = 0.0
    keys = list(probs)
    for key in keys:
        acc += probs[key]
        if u <= acc:
            return key
    return keys[-1]


def run_protocol(input_state: SymmetricState, cfg: ProtocolConfig) -> ProtocolResult:
    """Run the tunnel-measure-repeat loop until the target sector is counted
    or max_rounds is exhausted.

    After a failed round the post-measurement two-mode state (modes already
    populated) is carried into the next tunneling pass unchanged; the
    coherent-label structure is untouched by counting, so on success the
    post-selected state reproduces the splitting isometry output exactly.
    The fidelity is taken against apply_splitting, which shares no code with
    the tunneling kernel.
    """
    n_x, n_y = cfg.target
    if n_x + n_y != input_state.n:
        raise ValueError(f"target {cfg.target} does not partition N={input_state.n}")
    rng = np.random.default_rng(cfg.seed)
    reference = apply_splitting(input_state, n_x, n_y)

    state = inject(input_state)
    outcomes: list[tuple[int, int]] = []
    probs_seen: list[float] = []
    for round_no in range(1, cfg.max_rounds + 1):
        state = apply_tunneling(state, cfg.r, cfg.t)
        probs = sector_probabilities(state)
        outcome = _sample_sector(probs, rng)
        block, prob = project_sector(state, *outcome)
        outcomes.append(outcome)
        probs_seen.append(prob)
        if outcome == cfg.target:
            fid = abs(np.vdot(reference, block.reshape(-1))) ** 2
            return ProtocolResult(succeeded=True, rounds=round_no, outcomes=tuple(outcomes),
                                  probabilities=tuple(probs_seen), fidelity=float(fid),
                                  final_block=block)
        state = TwoModeState.single_sector(input_state.k, input_state.n, outcome, block)
    return ProtocolResult(succeeded=False, rounds=cfg.max_rounds, outcomes=tuple(outcomes),
                          probabilities=tuple(probs_seen), fidelity=None, final_block=None)
