"""Two-state conversion family (generalized CNOT): classical pair with
overlap cos(theta), the entanglement surface over the splitting parameter,
the closed-form optimal splitting, the CNOT non-equivalence probe, and the
identification with an optical beamsplitter acting on coherent states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conversion import INDEPENDENCE_TOL, ClassicalSet, check_split, feasible_split
from .linalg import StateVector, basis_state

MU_FLOOR = 1e-9            # smallest mu used in sweeps; mu -> 0 is the eps -> inf limit
MAXIMAL_EBITS = 1.0 - 1e-6  # threshold separating the unique optimum from near-misses
PROBE_POINTS = 1024        # input directions the non-equivalence probe scans


def epsilon_to_mu(epsilon: float) -> float:
    return 1.0 / (1.0 + epsilon)


def mu_to_epsilon(mu: float) -> float:
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    return 1.0 / mu - 1.0


def _check_theta(theta) -> None:
    """Raise unless every theta lies strictly inside (0, pi) and keeps the
    classical pair independent: its smallest Gram eigenvalue 1 - |cos theta|
    must exceed INDEPENDENCE_TOL, as ClassicalSet requires."""
    thetas = np.ravel(np.asarray(theta, dtype=float))
    bad = thetas[~((thetas > 0.0) & (thetas < math.pi) & (1.0 - np.abs(np.cos(thetas)) > INDEPENDENCE_TOL))]
    if bad.size:
        raise ValueError(f"theta must lie in (0, pi) with 1 - |cos theta| > {INDEPENDENCE_TOL:g}, "
                         f"got {bad[0]}")


@dataclass(frozen=True)
class GcnotParams:
    """Classical-pair angle theta in (0, pi), with the pair above the
    independence floor, and splitting parameter eps >= 0, feasible as
    check_split(1 - |cos theta|, eps, boundary_ok=True) decides, which
    admits (1+eps)|cos theta| up to 1 + PSD_TOL."""

    theta: float
    epsilon: float

    def __post_init__(self):
        _check_theta(self.theta)
        check_split(1.0 - abs(math.cos(self.theta)), self.epsilon, boundary_ok=True)

    @property
    def mu(self) -> float:
        return epsilon_to_mu(self.epsilon)


def gcnot_classical_pair(theta: float) -> ClassicalSet:
    """The two classical states cos(theta/2)|0> +/- sin(theta/2)|1>, whose
    mutual overlap is cos(theta). Rejected where 1 - |cos theta| reaches the
    independence floor, which includes the interval endpoints."""
    _check_theta(theta)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ClassicalSet(states=(StateVector([c, s]), StateVector([c, -s])))


def _pair_ebits(theta, mu, amplitudes):
    """Entropy of entanglement (ebits) of the normalized input a|0> + b|1> after
    the conversion at mu = 1/(1+eps), elementwise over broadcast arrays (a, b), theta, mu.

    The input is w0|c0> + w1|c1> with w0, w1 = a/(2 cos(theta/2)) +/- b/(2 sin(theta/2)),
    and its output w0 d0(x)e0 + w1 d1(x)e1, with <d0|d1> = mu and <e0|e1> =
    cos(theta)/mu, has concurrence C = 2|w0 w1| sqrt((1 - mu^2)(mu^2 - cos^2 theta))/mu.
    For |cos theta| >= 1/2, mu^2 - cos^2 theta is taken as sin^2 theta - (1 - mu^2),
    since cos theta has lost the digits of 1 - |cos theta|. The reduced state's
    eigenvalues are p = (1 + sqrt(1 - C^2))/2 and q = C^2/(4p), with log p as
    log1p(-q), so that small entropies keep their digits.
    """
    if len(amplitudes) != 2:
        raise ValueError(f"input must be 2-dimensional, got dim {len(amplitudes)}")
    a, b = amplitudes
    half_sum, half_diff = a / (2.0 * np.cos(theta / 2.0)), b / (2.0 * np.sin(theta / 2.0))
    w0, w1 = half_sum + half_diff, half_sum - half_diff
    c = np.abs(np.cos(theta))
    gap = np.where(c < 0.5, (mu - c) * (mu + c), np.sin(theta) ** 2 - (1.0 - mu) * (1.0 + mu))
    conc = 2.0 * np.abs(w0 * w1) * np.sqrt((1.0 - mu) * (1.0 + mu) * np.maximum(gap, 0.0)) / mu
    conc2 = np.minimum(conc, 1.0) ** 2
    p = 0.5 * (1.0 + np.sqrt(1.0 - conc2))
    q = conc2 / (4.0 * p)
    return -p * np.log1p(-q) / math.log(2.0) - q * np.log2(np.where(q > 0.0, q, 1.0))


def output_entanglement(params: GcnotParams, state: StateVector) -> float:
    """Entropy of entanglement (ebits) of the converted 2-dimensional input, in
    closed form; the general pipeline (make_split, build_conversion,
    schmidt_decompose) gives the same value and is its test reference."""
    return float(_pair_ebits(params.theta, params.mu, state.amplitudes))


def optimal_epsilon(theta: float, state: StateVector) -> tuple[float, float]:
    """Splitting parameter maximizing the output entanglement for one input,
    in closed form. Returns (eps_opt, ebits_max).

    With state = w0|c0> + w1|c1>, the output concurrence
    2|w0 w1| sqrt(1 - mu^2) sqrt(1 - cos^2(theta)/mu^2) peaks at
    mu* = sqrt|cos theta| for every input, at C* = 2|w0 w1| (1 - |cos theta|),
    and the entropy grows with C. mu* is floored at MU_FLOOR (the eps -> inf
    limit at theta = pi/2), and the best of it and its two neighbouring floats
    is taken: near the independence floor one ulp of mu moves the entropy by
    ~1e-12. A classical input (w0 w1 = 0) gives 0 ebits.
    """
    _check_theta(theta)
    cos = abs(math.cos(theta))
    mu = max(math.sqrt(cos), MU_FLOOR)
    mus = np.clip(np.nextafter(mu, [0.0, mu, 2.0]), max(cos, MU_FLOOR), 1.0)
    ebits = _pair_ebits(theta, mus, state.amplitudes)
    best = int(np.argmax(ebits))
    return mu_to_epsilon(float(mus[best])), float(ebits[best])


class SweepRow(NamedTuple):
    theta: float
    mu: float
    epsilon: float
    ebits: float


def sweep_surface(theta_grid, mu_grid, state: StateVector) -> tuple[list[SweepRow], list[tuple[float, float]]]:
    """Entanglement surface over a (theta, mu) grid for one input state,
    evaluated in closed form over the whole grid at once.

    Returns the feasible rows, theta-major in grid order, and the list of
    (theta, mu) cells skipped because mu lies outside (0, 1] or GcnotParams'
    split decision fails there. A feasible cell whose theta GcnotParams
    rejects raises ValueError. At fixed theta feasibility only grows with mu
    (every step of the split decision is monotone in floating point too), so
    the grid is refused exactly when its column at the largest mu in (0, 1] is.
    """
    theta_axis, mu_axis = np.ravel(np.asarray(theta_grid, float)), np.ravel(np.asarray(mu_grid, float))
    thetas, mus = np.repeat(theta_axis, mu_axis.size), np.tile(mu_axis, theta_axis.size)
    in_range = (mus > 0.0) & (mus <= 1.0)
    with np.errstate(over="ignore"):  # a subnormal mu gives eps = inf, an infeasible split
        eps = 1.0 / np.where(in_range, mus, 1.0) - 1.0
    min_eig, split_ok = feasible_split(1.0 - np.abs(np.cos(thetas)), eps, boundary_ok=True)
    feasible = in_range & (split_ok | np.isnan(min_eig))  # a NaN theta is kept, for _check_theta to name
    _check_theta(thetas[feasible])
    theta_ok, mu_ok = thetas[feasible], mus[feasible]
    ebits = _pair_ebits(theta_ok, mu_ok, state.amplitudes)
    rows = list(map(SweepRow, theta_ok.tolist(), mu_ok.tolist(), eps[feasible].tolist(), ebits.tolist()))
    skipped = list(zip(thetas[~feasible].tolist(), mus[~feasible].tolist()))
    return rows, skipped


def maximal_input_count(theta: float, epsilon: float,
                        n_points: int = PROBE_POINTS) -> tuple[int, list[float], list[float]]:
    """Scan pure inputs cos(t)|0> + sin(t)|1> for t = k pi / n_points (one
    point per input direction, up to phase) and count how many convert to at
    least MAXIMAL_EBITS = 1 - 1e-6 ebits at the given parameters. Returns the
    count, the angles that reached it, and all sampled entropies."""
    params = GcnotParams(theta=theta, epsilon=epsilon)
    angles = np.arange(n_points) * math.pi / n_points
    entropies = _pair_ebits(theta, params.mu, (np.cos(angles), np.sin(angles)))
    hits = angles[entropies >= MAXIMAL_EBITS].tolist()
    return len(hits), hits, entropies.tolist()


@dataclass(frozen=True)
class CnotProbeReport:
    """Non-equivalence probe: at its optimal splitting, the conversion for a
    tilted classical pair reaches maximal entanglement from exactly one input
    direction, whereas a CNOT-like map (orthogonal classical states, extreme
    splitting) does so from at least two orthogonal inputs."""

    theta: float
    maximal_count: int
    entropy_zero: float
    entropy_one: float


def cnot_equivalence_probe(theta: float) -> CnotProbeReport:
    """Count maximal-entanglement input directions (of PROBE_POINTS) at the optimal
    splitting for the favored computational state (|0> for theta > pi/2, |1> below);
    undefined at theta = pi/2, where the two optima coincide."""
    if abs(theta - math.pi / 2.0) < 1e-12:
        raise ValueError("probe undefined at theta = pi/2")
    favored = basis_state(2, 0) if theta > math.pi / 2.0 else basis_state(2, 1)
    eps_opt, _ = optimal_epsilon(theta, favored)
    count, _, _ = maximal_input_count(theta, eps_opt)
    entropy_zero, entropy_one = _pair_ebits(theta, epsilon_to_mu(eps_opt), np.eye(2))
    return CnotProbeReport(theta, count, float(entropy_zero), float(entropy_one))


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Overlap of two optical coherent states:
    exp(-(|alpha|^2 + |beta|^2 - 2 conj(alpha) beta) / 2)."""
    alpha, beta = complex(alpha), complex(beta)
    return complex(np.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2 - 2.0 * np.conj(alpha) * beta)))


def beamsplitter_params(overlap: float, epsilon: float) -> tuple[float, float]:
    """Beamsplitter intensities (x, y) = (|r|^2, |t|^2) realizing the same
    overlap splitting as the two-state conversion at eps: the factor overlaps
    are overlap^x = (1+eps) overlap and overlap^y = 1/(1+eps), with x + y = 1.

    Requires a real overlap in (0, 1) and a feasible split of the pair, as
    GcnotParams decides; y is capped at 1 where the PSD floor admits a
    scaled overlap just above 1, so x stays in [0, 1].
    """
    if not 0.0 < overlap < 1.0:
        raise ValueError(f"overlap must lie in (0, 1), got {overlap}")
    check_split(1.0 - overlap, epsilon, boundary_ok=True)
    y = min(math.log(1.0 / (1.0 + epsilon)) / math.log(overlap), 1.0)
    return 1.0 - y, y
