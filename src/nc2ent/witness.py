"""Witness machinery: projector-style entanglement witnesses on the bipartite
output space, and their compression V^dag W V through a conversion isometry V
into single-system non-classicality witnesses with the same expectation
values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conversion import Conversion
from .linalg import HERMITIAN_TOL, StateVector, _built, _frozen, check_cut, check_hermitian, schmidt_decompose

DETECT_TOL = 1e-10


@dataclass(frozen=True)
class Witness:
    """Hermitian observable that is non-negative on every product (resp.
    classical) state and negative on at least one state it detects."""

    operator: np.ndarray

    def __post_init__(self):
        op = _frozen(self.operator)
        check_hermitian(op, "witness operator", HERMITIAN_TOL)
        object.__setattr__(self, "operator", op)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


def swap_style_witness(dim_a: int, dim_b: int, phi: StateVector) -> Witness:
    """Projector witness W = lambda_1^2 I - |phi><phi| built from a bipartite
    target state phi with largest Schmidt coefficient lambda_1; non-negative
    on all product states because no product state overlaps phi by more than
    lambda_1. Entry pairs of |phi><phi| differ by at most one rounding,
    about 2.2e-16 |phi_i| |phi_j|."""
    check_cut(dim_a, dim_b, phi.dim)
    lam1 = float(schmidt_decompose(phi, dim_a, dim_b).coefficients[0])
    op = lam1**2 * np.eye(phi.dim, dtype=complex) - phi.projector()
    return _built(Witness, operator=op)


def detect(w: Witness, rho: np.ndarray) -> tuple[float, bool]:
    """Expectation value Re Tr(W rho) and whether it certifies detection
    (value below -1e-10). The trace is the elementwise sum of W_ij rho_ji;
    the product W rho is not formed."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != w.operator.shape:
        raise ValueError(f"shape mismatch: witness {w.operator.shape} vs state {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state has a non-finite entry")
    value = float(np.einsum("ij,ji->", w.operator, rho).real)
    return value, value < -DETECT_TOL


def nonclassicality_witness(w: Witness, conv: Conversion) -> Witness:
    """Compress an output-space witness through the conversion isometry:
    V^dag W V, an observable on the input space with Tr(W~ rho) equal to
    Tr(W V rho V^dag)."""
    v = conv.isometry
    if w.dim != v.shape[0]:
        raise ValueError(f"witness dimension {w.dim} does not match conversion dimension {v.shape[0]}")
    restricted = v.conj().T @ w.operator @ v
    restricted = 0.5 * (restricted + restricted.conj().T)  # Hermitian bitwise: x + y is commutative
    return _built(Witness, operator=restricted)
