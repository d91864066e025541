"""Two-state conversion family (generalized CNOT): classical pair with
overlap cos(theta), the entanglement surface over the splitting parameter,
the optimal-splitting search, the CNOT non-equivalence probe, and the
identification with an optical beamsplitter acting on coherent states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import ClassicalSet, Conversion, SplitSpec, build_conversion, make_split
from .linalg import StateVector, basis_state, entanglement_entropy, schmidt_decompose

FEAS_TOL = 1e-12
MU_FLOOR = 1e-9            # smallest mu used in sweeps; mu -> 0 is the eps -> inf limit
MAXIMAL_EBITS = 1.0 - 1e-6  # threshold separating the unique optimum from near-misses


def epsilon_to_mu(epsilon: float) -> float:
    return 1.0 / (1.0 + epsilon)


def mu_to_epsilon(mu: float) -> float:
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    return 1.0 / mu - 1.0


@dataclass(frozen=True)
class GcnotParams:
    """Classical-pair angle theta in (0, pi) and splitting parameter eps >= 0,
    feasible when (1+eps)|cos theta| <= 1 (equality admitted for boundary
    probing, as is eps = 0)."""

    theta: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if (1.0 + self.epsilon) * abs(math.cos(self.theta)) > 1.0 + FEAS_TOL:
            raise ValueError(
                f"infeasible parameters: (1+eps)|cos theta| = "
                f"{(1.0 + self.epsilon) * abs(math.cos(self.theta)):.6g} > 1"
            )

    @property
    def mu(self) -> float:
        return epsilon_to_mu(self.epsilon)


def gcnot_classical_pair(theta: float) -> ClassicalSet:
    """The two classical states cos(theta/2)|0> +/- sin(theta/2)|1>, whose
    mutual overlap is cos(theta). Degenerate at the interval endpoints."""
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie strictly inside (0, pi), got {theta}")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ClassicalSet(states=(StateVector([c, s]), StateVector([c, -s])))


def build_gcnot(params: GcnotParams) -> tuple[Conversion, SplitSpec]:
    """Conversion for the classical pair at the given parameters;
    boundary values (eps = 0, or a saturated overlap bound) are allowed."""
    cs = gcnot_classical_pair(params.theta)
    split = make_split(cs, params.epsilon, boundary_ok=True)
    return build_conversion(cs, split), split


def _expand_in_pair(theta: float, state: StateVector) -> tuple[complex, complex]:
    """Coefficients (w0, w1) with state = w0|c0> + w1|c1>."""
    a, b = state.amplitudes
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    half_sum = a / (2.0 * c)
    half_diff = b / (2.0 * s)
    return half_sum + half_diff, half_sum - half_diff


def _closed_output(params: GcnotParams, state: StateVector) -> StateVector:
    """Two-term output state built directly from the factor overlaps
    mu = 1/(1+eps) and (1+eps)cos(theta), bypassing the conversion."""
    w0, w1 = _expand_in_pair(params.theta, state)
    x = params.mu
    y = (1.0 + params.epsilon) * math.cos(params.theta)
    d0 = np.array([1.0, 0.0], dtype=complex)
    d1 = np.array([x, math.sqrt(max(1.0 - x * x, 0.0))], dtype=complex)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([y, math.sqrt(max(1.0 - y * y, 0.0))], dtype=complex)
    out = w0 * np.kron(d0, e0) + w1 * np.kron(d1, e1)
    return StateVector.normalized(out)


def output_entanglement(params: GcnotParams, state: StateVector, method: str = "unitary") -> float:
    """Entropy of entanglement (ebits) of the converted 2-dimensional input.

    method="unitary" builds the conversion isometry and applies it;
    method="closed" uses the equivalent direct two-term construction (same
    result, much faster inside sweeps).
    """
    if state.dim != 2:
        raise ValueError(f"input must be 2-dimensional, got dim {state.dim}")
    if method == "unitary":
        conv, _ = build_gcnot(params)
        out = conv.convert(state)
    elif method == "closed":
        out = _closed_output(params, state)
    else:
        raise ValueError(f"unknown method {method!r}")
    return entanglement_entropy(schmidt_decompose(out, 2, 2))


def _feasible_mu_range(theta: float) -> tuple[float, float]:
    lo = max(abs(math.cos(theta)), MU_FLOOR)
    return lo, 1.0


def optimal_epsilon(theta: float, state: StateVector,
                    grid_points: int = 512, mu_tol: float = 1e-8) -> tuple[float, float]:
    """Splitting parameter maximizing the output entanglement for one input.

    Scans a 512-point grid over the compactified parameter mu = 1/(1+eps) to
    bracket the maximum (guarding against local maxima), then refines by
    golden-section search to mu_tol. Returns (eps_opt, ebits_max).
    """
    lo, hi = _feasible_mu_range(theta)

    def objective(mu: float) -> float:
        params = GcnotParams(theta=theta, epsilon=mu_to_epsilon(mu))
        return output_entanglement(params, state, method="closed")

    grid = np.linspace(lo, hi, grid_points)
    values = [objective(m) for m in grid]
    best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > mu_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    mu_opt = 0.5 * (a + b)
    return mu_to_epsilon(mu_opt), objective(mu_opt)


@dataclass(frozen=True)
class SweepRow:
    theta: float
    mu: float
    epsilon: float
    ebits: float


def sweep_surface(theta_grid, mu_grid, state: StateVector) -> tuple[list[SweepRow], list[tuple[float, float]]]:
    """Entanglement surface over a (theta, mu) grid for one input state.

    Returns the feasible rows, and the list of (theta, mu) cells skipped
    because the overlap bound (1+eps)|cos theta| <= 1 fails there.
    """
    rows: list[SweepRow] = []
    skipped: list[tuple[float, float]] = []
    for theta in theta_grid:
        for mu in mu_grid:
            if not 0.0 < mu <= 1.0 or mu * (1.0 + FEAS_TOL) < abs(math.cos(theta)):
                skipped.append((float(theta), float(mu)))
                continue
            eps = mu_to_epsilon(float(mu))
            params = GcnotParams(theta=float(theta), epsilon=eps)
            ebits = output_entanglement(params, state, method="closed")
            rows.append(SweepRow(theta=float(theta), mu=float(mu), epsilon=eps, ebits=ebits))
    return rows, skipped


def maximal_input_count(theta: float, epsilon: float, n_points: int = 1024,
                        threshold: float = MAXIMAL_EBITS) -> tuple[int, list[float], list[float]]:
    """Scan pure inputs cos(t)|0> + sin(t)|1> for t = k pi / n_points (one
    point per input direction, up to phase) and count how many convert to at
    least `threshold` ebits at the given parameters. Returns the count, the
    angles that reached it, and all sampled entropies."""
    params = GcnotParams(theta=theta, epsilon=epsilon)
    angles = [k * math.pi / n_points for k in range(n_points)]
    entropies = []
    hits = []
    for t in angles:
        state = StateVector([math.cos(t), math.sin(t)])
        ebits = output_entanglement(params, state, method="closed")
        entropies.append(ebits)
        if ebits >= threshold:
            hits.append(t)
    return len(hits), hits, entropies


@dataclass(frozen=True)
class CnotProbeReport:
    """Non-equivalence probe: at its optimal splitting, the conversion for a
    tilted classical pair reaches maximal entanglement from exactly one input
    direction, whereas a CNOT-like map (orthogonal classical states, extreme
    splitting) does so from at least two orthogonal inputs."""

    theta: float
    epsilon_opt: float
    maximal_count: int
    maximal_angles: tuple[float, ...]
    entropy_zero: float
    entropy_one: float


def cnot_equivalence_probe(theta: float, n_points: int = 1024) -> CnotProbeReport:
    """Count maximal-entanglement input directions at the optimal splitting
    for the favored computational state (|0> for theta > pi/2, |1> below);
    undefined at theta = pi/2, where the two optima coincide."""
    if abs(theta - math.pi / 2.0) < 1e-12:
        raise ValueError("probe undefined at theta = pi/2")
    favored = basis_state(2, 0) if theta > math.pi / 2.0 else basis_state(2, 1)
    eps_opt, _ = optimal_epsilon(theta, favored)
    count, hits, _ = maximal_input_count(theta, eps_opt, n_points=n_points)
    params = GcnotParams(theta=theta, epsilon=eps_opt)
    return CnotProbeReport(
        theta=theta,
        epsilon_opt=eps_opt,
        maximal_count=count,
        maximal_angles=tuple(hits),
        entropy_zero=output_entanglement(params, basis_state(2, 0), method="closed"),
        entropy_one=output_entanglement(params, basis_state(2, 1), method="closed"),
    )


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Overlap of two optical coherent states:
    exp(-(|alpha|^2 + |beta|^2 - 2 conj(alpha) beta) / 2)."""
    alpha, beta = complex(alpha), complex(beta)
    return complex(np.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2 - 2.0 * np.conj(alpha) * beta)))


def beamsplitter_params(overlap: float, epsilon: float) -> tuple[float, float]:
    """Beamsplitter intensities (x, y) = (|r|^2, |t|^2) realizing the same
    overlap splitting as the two-state conversion at eps: the factor overlaps
    are overlap^x = (1+eps) overlap and overlap^y = 1/(1+eps), with x + y = 1.

    Requires a real overlap in (0, 1) and 1/(1+eps) >= overlap (otherwise the
    scaled overlap would exceed 1 and x would leave [0, 1]).
    """
    if not 0.0 < overlap < 1.0:
        raise ValueError(f"overlap must lie in (0, 1), got {overlap}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    y = math.log(1.0 / (1.0 + epsilon)) / math.log(overlap)
    if y > 1.0 + FEAS_TOL:
        raise ValueError(
            f"overlap constraint violated: 1/(1+eps) = {1.0/(1.0+epsilon):.6g} "
            f"< overlap = {overlap:.6g} maps to x < 0"
        )
    return 1.0 - y, y
