"""Witness machinery: projector-style entanglement witnesses on the bipartite
output space, and their compression V^dag W V through a conversion isometry V
into single-system non-classicality witnesses with the same expectation
values. The swap witness keeps its rank-one form (lambda_1^2, phi), so its
compression needs D x D data alone, lambda_1^2 I - |V^dag phi><V^dag phi|;
its D^2 x D^2 operator is formed only where it is read."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conversion import Conversion
from .linalg import (HERMITIAN_TOL, StateVector, _built, _check_dense, _frozen, check_cut, check_hermitian,
                     schmidt_decompose)

DETECT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
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


class _SwapWitness(Witness):
    """lambda1_sq I - |phi><phi|, kept as (lambda1_sq, phi); swap_style_witness is its one builder.
    operator is formed when first read, refused past MAX_DENSE_BYTES, then cached read-only."""

    @cached_property
    def operator(self) -> np.ndarray:
        _check_dense(self.dim, self.dim, f"swap witness operator on C^{self.dim}")
        op = _less_projector(self.lambda1_sq, self.phi.projector())
        op.setflags(write=False)
        return op

    @property
    def dim(self) -> int:
        return self.phi.dim

    def __repr__(self) -> str:
        return f"Witness(lambda1_sq={self.lambda1_sq!r}, phi of dimension {self.dim})"


def _less_projector(weight: float, projector: np.ndarray) -> np.ndarray:
    """weight I - P, written into P's own array as 0 - P plus weight on the diagonal: the same
    bits as weight I - P, since 0 - x and (-x) + a = a - x are exact."""
    np.subtract(0.0, projector, out=projector)
    projector.flat[::projector.shape[0] + 1] += weight
    return projector


def swap_style_witness(dim_a: int, dim_b: int, phi: StateVector) -> Witness:
    """Projector witness W = lambda_1^2 I - |phi><phi| built from a bipartite
    target state phi with largest Schmidt coefficient lambda_1; non-negative
    on all product states because no product state overlaps phi by more than
    lambda_1. It keeps (lambda_1^2, phi): nonclassicality_witness compresses
    it from D x D data, and W.operator, D^4 entries for phi on C^D (x) C^D,
    is formed only when read (a one-line ValueError past MAX_DENSE_BYTES).
    Entry pairs of |phi><phi| differ by at most one rounding, about
    2.2e-16 |phi_i| |phi_j|; the operator has the bits of lambda_1^2 I - |phi><phi|."""
    check_cut(dim_a, dim_b, phi.dim)
    lam1 = float(schmidt_decompose(phi, dim_a, dim_b).coefficients[0])
    return _built(_SwapWitness, lambda1_sq=lam1**2, phi=phi)


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
    Tr(W V rho V^dag).

    A swap witness compresses in closed form, lambda_1^2 I - |x><x| with
    x = V^dag phi, in O(D^3) work and D x D memory; it differs from V^dag W V
    by lambda_1^2 (V^dag V - I), at most lambda_1^2 max|V^dag V - I|, plus
    roundoff. Any other witness is compressed as V^dag W V."""
    v = conv.isometry
    if w.dim != v.shape[0]:
        raise ValueError(f"witness dimension {w.dim} does not match conversion dimension {v.shape[0]}")
    if isinstance(w, _SwapWitness):
        x = (w.phi.amplitudes.conj() @ v).conj()  # V^dag phi through v.T, a view: no D^2 x D copy
        restricted = _less_projector(w.lambda1_sq, np.outer(x, x.conj()))
    else:
        restricted = v.conj().T @ w.operator @ v
    restricted = 0.5 * (restricted + restricted.conj().T)  # Hermitian bitwise: x + y is commutative
    return _built(Witness, operator=restricted)
