"""Each library check that refuses an input ends in a one-line ValueError
that names the reason; one row per check."""

import math

import numpy as np
import pytest

from nc2ent import verify
from nc2ent.conversion import (ClassicalSet, build_conversion, classical_rank, default_epsilon, make_split,
                               random_classical_set, random_superposition)
from nc2ent.gcnot import mu_to_epsilon
from nc2ent.linalg import GramMatrix, StateVector, basis_state, gram_of, schmidt_decompose, synthesize_unitary
from nc2ent.modesplit import ProtocolConfig, TwoModeState, inject, project_sector
from nc2ent.symmetric import SuUnitary, SymmetricState, apply_unitary, coherent_state, dicke_dim, overlap
from nc2ent.witness import nonclassicality_witness, swap_style_witness

BALANCED = 1.0 / math.sqrt(2.0)


def conversion_of(dim):
    cs = random_classical_set(dim, np.random.default_rng(dim))
    return cs, build_conversion(cs, make_split(cs, default_epsilon(cs)))


def identity_coherent(k, n):
    return coherent_state(SuUnitary(np.eye(k)), n)


def split_of_another_size():
    cs2, cs3 = conversion_of(2)[0], conversion_of(3)[0]
    return build_conversion(cs2, make_split(cs3, default_epsilon(cs3)))


def sectors_with_a_flattened_block():
    sectors = dict(inject(identity_coherent(2, 2)).sectors)
    sectors[(2, 0)] = sectors[(2, 0)].reshape(-1)
    return TwoModeState(2, 2, sectors)


ROWS = [
    # conversion
    ("empty-classical-set", lambda: ClassicalSet(()), "classical set must be nonempty"),
    ("mixed-dimensions", lambda: ClassicalSet((basis_state(2, 0), basis_state(3, 0))),
     "classical states must share one dimension"),
    ("density-shape", lambda: conversion_of(2)[1].convert_density(np.eye(3) / 3),
     "density operator has shape (3, 3), expected square dim 2"),
    ("split-size", split_of_another_size, "split size does not match the classical set"),
    ("classical-rank-dimension", lambda: classical_rank(basis_state(3, 0), conversion_of(2)[0]),
     "state has dimension 3, expected 2"),
    ("superposition-support-zero",
     lambda: random_superposition(conversion_of(2)[0], 0, np.random.default_rng(0)), "support must lie in 1..2"),
    ("superposition-support-above-dim",
     lambda: random_superposition(conversion_of(2)[0], 3, np.random.default_rng(0)), "support must lie in 1..2"),
    # linalg
    ("empty-vector", lambda: StateVector([]), "state vector must have positive dimension"),
    ("overlap-dimension", lambda: basis_state(2, 0).overlap(basis_state(3, 0)), "dimension mismatch: 2 vs 3"),
    ("basis-index-above", lambda: basis_state(2, 2), "basis index 2 out of range for dimension 2"),
    ("basis-index-negative", lambda: basis_state(2, -1), "basis index -1 out of range for dimension 2"),
    ("cut-bool", lambda: schmidt_decompose(basis_state(4, 0), True, 4),
     "cut Truex4 needs two positive integer factors"),
    ("gram-unit-diagonal", lambda: GramMatrix([[1.0, 0.0], [0.0, 0.5]]), "Gram matrix does not have unit diagonal"),
    ("operator-ndim", lambda: SuUnitary(np.ones(3)), "must be a matrix, got ndim=1"),
    ("su-non-square", lambda: SuUnitary(np.eye(3)[:2]), "matrix is not unitary within tolerance"),
    ("su-one-level", lambda: SuUnitary(np.eye(1)), "need at least 2 levels"),
    ("gram-of-nothing", lambda: gram_of([]), "need at least one state"),
    ("synthesize-empty", lambda: synthesize_unitary([], []), "need two equal-length nonempty state families"),
    ("synthesize-unequal-lengths",
     lambda: synthesize_unitary([basis_state(2, 0)], [basis_state(2, 0), basis_state(2, 1)]),
     "need two equal-length nonempty state families"),
    ("synthesize-shrinking-dimension", lambda: synthesize_unitary([basis_state(3, 0)], [basis_state(2, 0)]),
     "target dimension must be at least the source dimension"),
    # modesplit
    ("sector-shape", sectors_with_a_flattened_block, "sector (2, 0) has shape (3,), expected (3, 1)"),
    ("single-sector-shape", lambda: TwoModeState.single_sector(2, 2, (1, 1), np.ones(3)),
     "sector (1, 1) has shape (3,), expected (2, 2)"),
    ("from-flat-size", lambda: TwoModeState.from_flat(2, 1, np.ones(3)), "flat vector has size 3, expected 4"),
    ("project-unknown-sector", lambda: project_sector(inject(identity_coherent(2, 1)), 2, 0),
     "no sector (2, 0) for N=1"),
    ("negative-max-rounds",
     lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=-1), "max_rounds must be nonnegative"),
    ("target-float", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(2.7, 1)),
     "target must be two integers, got (2.7, 1)"),
    ("target-bool", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(True, 2)),
     "target must be two integers, got (True, 2)"),
    ("target-one-count", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(2,)),
     "target must be two integers, got (2,)"),
    ("max-rounds-float", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=2.5),
     "max_rounds must be an integer, got 2.5"),
    ("max-rounds-nan", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=math.nan),
     "max_rounds must be an integer, got nan"),
    ("max-rounds-bool", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), max_rounds=True),
     "max_rounds must be an integer, got True"),
    ("seed-float", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), seed=1.5),
     "seed must be None or a nonnegative integer, got 1.5"),
    ("seed-negative", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), seed=-1),
     "seed must be None or a nonnegative integer, got -1"),
    ("seed-bool", lambda: ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), seed=True),
     "seed must be None or a nonnegative integer, got True"),
    # symmetric
    ("negative-particle-number", lambda: dicke_dim(2, -1), "particle number must be nonnegative, got -1"),
    ("one-internal-level", lambda: dicke_dim(1, 2), "need at least 2 internal levels, got 1"),
    ("state-overlap-sectors", lambda: identity_coherent(2, 2).overlap(identity_coherent(2, 3)),
     "symmetric states live in different sectors"),
    ("coherent-overlap-levels", lambda: overlap(SuUnitary(np.eye(2)), SuUnitary(np.eye(3)), 2),
     "unitaries act on different level counts"),
    ("apply-unitary-levels", lambda: apply_unitary(SuUnitary(np.eye(3)), identity_coherent(2, 2)),
     "level-count mismatch"),
    # gcnot, verify, witness
    ("mu-zero", lambda: mu_to_epsilon(0.0), "mu must lie in (0, 1], got 0.0"),
    ("mu-above-one", lambda: mu_to_epsilon(1.5), "mu must lie in (0, 1], got 1.5"),
    ("unknown-suite", lambda: verify.run_suites(["bogus"]), "unknown suite 'bogus'; valid: all, discrete"),
    ("witness-dimension", lambda: nonclassicality_witness(swap_style_witness(3, 3, basis_state(9, 0)),
                                                          conversion_of(2)[1]),
     "witness dimension 9 does not match conversion dimension 4"),
]


@pytest.mark.parametrize("call, reason", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_refused_input_gives_one_line_reason(call, reason):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert "\n" not in message
    assert reason in message


def test_public_symmetric_state_constructor():
    state = SymmetricState(2, 2, np.array([0.6, 0.0, 0.8j]))
    assert state.dim == 3 == dicke_dim(2, 2)
    assert not state.amplitudes.flags.writeable
    assert state.overlap(state) == pytest.approx(1.0, abs=1e-15)
