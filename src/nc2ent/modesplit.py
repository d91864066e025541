"""Two-mode simulation of the physical protocol realizing the particle-number
splitting isometry: a number-conserving tunneling rotation between modes A
and B, projective particle counting per mode, post-selection on the target
sector, and a repeat-until-success loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import NORM_TOL
from .symmetric import (
    SymmetricState,
    occupation_basis,
    occupation_index,
    splitting_isometry,
    symmetric_power_matrix,
    _check_caps,
)

MODE_PAIR_TOL = 1e-12     # |r|^2 + |t|^2 = 1
MIN_SECTOR_PROB = 1e-15
MAX_TWO_MODE_DIM = 20000  # guards the dense sector-rotation matrix


def _sector_keys(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((n_a, n - n_a) for n_a in range(n, -1, -1))


@lru_cache(maxsize=None)
def _sector_layout(k: int, n: int):
    """Index maps between the flat Dicke basis of Sym^N(C^{2K}) (K levels per
    mode, A levels first) and per-sector (N_A, N_B) blocks on
    Sym^{N_A}(C^K) (x) Sym^{N_B}(C^K)."""
    full = occupation_basis(2 * k, n)
    if len(full) > MAX_TWO_MODE_DIM:
        raise ValueError(
            f"two-mode space dimension {len(full)} exceeds the simulator cap {MAX_TWO_MODE_DIM}"
        )
    shapes = {}
    positions = {key: [] for key in _sector_keys(n)}
    for flat, occ in enumerate(full):
        occ_a, occ_b = occ[:k], occ[k:]
        n_a = sum(occ_a)
        key = (n_a, n - n_a)
        i_a = occupation_index(k, n_a)[occ_a]
        i_b = occupation_index(k, n - n_a)[occ_b]
        positions[key].append((flat, i_a, i_b))
    for key in positions:
        dim_a = len(occupation_basis(k, key[0]))
        dim_b = len(occupation_basis(k, key[1]))
        shapes[key] = (dim_a, dim_b)
    return len(full), shapes, positions


@dataclass(frozen=True)
class TwoModeState:
    """State of N particles with K internal levels shared between two spatial
    modes, stored as one block per particle-number sector (N_A, N_B)."""

    k: int
    n: int
    sectors: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        _check_caps(self.k, self.n)
        _, shapes, _ = _sector_layout(self.k, self.n)
        blocks = {}
        total = 0.0
        for key in _sector_keys(self.n):
            if key not in self.sectors:
                raise ValueError(f"missing sector {key}")
            block = np.array(np.asarray(self.sectors[key], dtype=complex))
            if block.shape != shapes[key]:
                raise ValueError(
                    f"sector {key} has shape {block.shape}, expected {shapes[key]}"
                )
            block.setflags(write=False)
            blocks[key] = block
            total += float(np.sum(np.abs(block) ** 2))
        if abs(math.sqrt(total) - 1.0) > NORM_TOL:
            raise ValueError(f"two-mode state is not normalized (norm={math.sqrt(total)!r})")
        object.__setattr__(self, "sectors", blocks)

    def to_flat(self) -> np.ndarray:
        dim, _, positions = _sector_layout(self.k, self.n)
        flat = np.empty(dim, dtype=complex)
        for key, entries in positions.items():
            block = self.sectors[key]
            for pos, i_a, i_b in entries:
                flat[pos] = block[i_a, i_b]
        return flat

    @classmethod
    def from_flat(cls, k: int, n: int, flat: np.ndarray) -> "TwoModeState":
        dim, shapes, positions = _sector_layout(k, n)
        flat = np.asarray(flat, dtype=complex).reshape(-1)
        if flat.size != dim:
            raise ValueError(f"flat vector has size {flat.size}, expected {dim}")
        sectors = {}
        for key, entries in positions.items():
            block = np.zeros(shapes[key], dtype=complex)
            for pos, i_a, i_b in entries:
                block[i_a, i_b] = flat[pos]
            sectors[key] = block
        return cls(k=k, n=n, sectors=sectors)

    @classmethod
    def single_sector(cls, k: int, n: int, key: tuple[int, int], block: np.ndarray) -> "TwoModeState":
        _, shapes, _ = _sector_layout(k, n)
        sectors = {other: np.zeros(shapes[other], dtype=complex) for other in _sector_keys(n)}
        sectors[key] = np.asarray(block, dtype=complex)
        return cls(k=k, n=n, sectors=sectors)


def inject(state: SymmetricState) -> TwoModeState:
    """Load a single-mode symmetric state into mode A; mode B starts empty, so
    all amplitude sits in the (N, 0) sector."""
    block = state.amplitudes.reshape(-1, 1)
    return TwoModeState.single_sector(state.k, state.n, (state.n, 0), block)


def _check_mode_pair(r: complex, t: complex) -> tuple[complex, complex]:
    r, t = complex(r), complex(t)
    if abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) > MODE_PAIR_TOL:
        raise ValueError(f"|r|^2 + |t|^2 must be 1, got {abs(r)**2 + abs(t)**2!r}")
    return r, t


@lru_cache(maxsize=16)
def _tunneling_matrix(k: int, n: int, r: complex, t: complex) -> np.ndarray:
    """Collective tunneling rotation on Sym^N(C^{2K}): the symmetric power of
    the single-particle map |j_A> -> r|j_A> + t|j_B>, |j_B> -> t*|j_A> - r*|j_B>,
    which acts identically on every internal level."""
    eye = np.eye(k)
    single = np.block([[r * eye, np.conj(t) * eye],
                       [t * eye, -np.conj(r) * eye]])
    return symmetric_power_matrix(single, n)


def apply_tunneling(state: TwoModeState, r: complex, t: complex) -> TwoModeState:
    """Apply the tunneling/beamsplitter rotation between the modes; unitary,
    so the norm is preserved while amplitude spreads over sectors."""
    r, t = _check_mode_pair(r, t)
    matrix = _tunneling_matrix(state.k, state.n, r, t)
    return TwoModeState.from_flat(state.k, state.n, matrix @ state.to_flat())


def sector_probabilities(state: TwoModeState) -> dict[tuple[int, int], float]:
    """Probability of each particle-count outcome (N_A, N_B): the squared
    norm of the sector block. The outcomes sum to 1."""
    return {key: float(np.sum(np.abs(block) ** 2)) for key, block in state.sectors.items()}


def project_sector(state: TwoModeState, n_a: int, n_b: int) -> tuple[np.ndarray, float]:
    """Post-measurement block for outcome (N_A, N_B), normalized, together
    with the outcome probability."""
    key = (n_a, n_b)
    if key not in state.sectors:
        raise ValueError(f"no sector {key} for N={state.n}")
    block = state.sectors[key]
    prob = float(np.sum(np.abs(block) ** 2))
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
    """
    n_x, n_y = cfg.target
    if n_x + n_y != input_state.n:
        raise ValueError(f"target {cfg.target} does not partition N={input_state.n}")
    rng = np.random.default_rng(cfg.seed)
    reference = splitting_isometry(input_state.k, input_state.n, n_x, n_y).matrix @ input_state.amplitudes

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
