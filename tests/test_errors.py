"""Each library check that refuses an input ends in a one-line ValueError
that names the reason; one row per check."""

import math
import re

import numpy as np
import pytest

from nc2ent import verify
from nc2ent.conversion import (ClassicalSet, build_conversion, classical_rank, default_epsilon, make_split,
                               random_classical_set, random_superposition, uniform_overlap_gram)
from nc2ent.gcnot import beamsplitter_params, coherent_overlap, maximal_input_count, mu_to_epsilon
from nc2ent.linalg import (GramMatrix, GramMismatchError, StateVector, basis_state, factor_gram, gram_of,
                           schmidt_decompose, synthesize_unitary)
from nc2ent.modesplit import (ProtocolConfig, TwoModeState, binomial_sector_amplitude, inject, project_sector,
                              run_protocol, success_probability_by_round)
from nc2ent.symmetric import (SuUnitary, SymmetricState, apply_splitting, apply_unitary, coherent_state, dicke_dim,
                              haar_random_su, occupation_basis, overlap)
from nc2ent.witness import Witness, nonclassicality_witness, swap_style_witness

BALANCED = 1.0 / math.sqrt(2.0)


def conversion_of(dim):
    cs = random_classical_set(dim, np.random.default_rng(dim))
    return cs, build_conversion(cs, make_split(cs, default_epsilon(cs)))


def identity_coherent(k, n):
    return coherent_state(SuUnitary(np.eye(k)), n)


def split_of_another_size():
    cs2, cs3 = conversion_of(2)[0], conversion_of(3)[0]
    return build_conversion(cs2, make_split(cs3, default_epsilon(cs3)))


def split_below_the_resolution():
    cs = conversion_of(3)[0]
    return build_conversion(cs, make_split(cs, 1e-15))


def sectors_with_a_flattened_block():
    sectors = dict(inject(identity_coherent(2, 2)).sectors)
    sectors[(2, 0)] = sectors[(2, 0)].reshape(-1)
    return TwoModeState(2, 2, sectors)


ROWS = [
    # conversion
    ("empty-classical-set", lambda: ClassicalSet(()), "classical set must be nonempty"),
    ("mixed-dimensions", lambda: ClassicalSet((basis_state(2, 0), basis_state(3, 0))),
     "classical states must share one dimension"),
    ("set-without-epsilon",  # 1 + nu just above the floor: eps = 0 is feasible, no eps > 0 is
     lambda: ClassicalSet(tuple(factor_gram(uniform_overlap_gram(1.0 - 1.00000001e-10, 2)))),
     "leaves no eps > 0 above the 1e-10 floor"),
    ("density-shape", lambda: conversion_of(2)[1].convert_density(np.eye(3) / 3),
     "density operator has shape (3, 3), expected square dim 2"),
    ("split-size", split_of_another_size, "split size does not match the classical set"),
    ("split-below-the-resolution", split_below_the_resolution, "split is unresolved at D=3"),
    ("classical-rank-dimension", lambda: classical_rank(basis_state(3, 0), conversion_of(2)[0]),
     "state has dimension 3, expected 2"),
    ("superposition-support-zero",
     lambda: random_superposition(conversion_of(2)[0], 0, np.random.default_rng(0)), "support must lie in 1..2"),
    ("superposition-support-above-dim",
     lambda: random_superposition(conversion_of(2)[0], 3, np.random.default_rng(0)), "support must lie in 1..2"),
    ("superposition-support-float", lambda: random_superposition(conversion_of(2)[0], 2.0, np.random.default_rng(0)),
     "support must lie in 1..2 and be an integer, got 2.0"),
    ("classical-set-dimension-float", lambda: random_classical_set(2.0, np.random.default_rng(0)),
     "dimension dim must be a positive integer, got 2.0"),
    ("classical-set-dimension-zero", lambda: random_classical_set(0, np.random.default_rng(0)),
     "dimension dim must be a positive integer, got 0"),
    ("uniform-overlap-dimension-float", lambda: uniform_overlap_gram(0.5, 2.5),
     "dimension dim must be a positive integer, got 2.5"),
    # linalg
    ("empty-vector", lambda: StateVector([]), "state vector must have positive dimension"),
    ("overlap-dimension", lambda: basis_state(2, 0).overlap(basis_state(3, 0)), "dimension mismatch: 2 vs 3"),
    ("basis-index-above", lambda: basis_state(2, 2), "basis index 2 out of range for dimension 2"),
    ("basis-index-negative", lambda: basis_state(2, -1), "basis index -1 out of range for dimension 2"),
    ("basis-index-bool", lambda: basis_state(2, True), "basis index k must be an integer, got True"),
    ("basis-dimension-float", lambda: basis_state(2.5, 0), "dimension dim must be a positive integer, got 2.5"),
    ("basis-dimension-bool", lambda: basis_state(True, 0), "dimension dim must be a positive integer, got True"),
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
    ("huge-r", lambda: ProtocolConfig(r=1e200, t=0.5, target=(1, 1)), "|r|^2 + |t|^2 must be 1, got inf"),
    ("huge-complex-t", lambda: ProtocolConfig(r=0.6, t=complex(1.5e308, 1.5e308), target=(1, 1)),
     "|r|^2 + |t|^2 must be 1, got inf"),
    ("huge-r-magnitude", lambda: ProtocolConfig.from_magnitudes(1e200, target=(1, 1)),
     "|r|^2 + |t|^2 must be 1, got inf"),
    ("huge-given-t-magnitude", lambda: ProtocolConfig.from_magnitudes(0.6, 0.0, 1e200, target=(1, 1)),
     "|r|^2 + |t|^2 must be 1, got inf"),
    ("negative-round-count",
     lambda: success_probability_by_round(ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1)), 2, -1),
     "rounds must be a nonnegative integer, got -1"),
    ("round-particle-number-float",
     lambda: success_probability_by_round(ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1)), 2.0, 1),
     "particle number N must be a nonnegative integer, got 2.0"),
    ("round-particle-number-negative",
     lambda: success_probability_by_round(ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1)), -2, 1),
     "particle number N must be a nonnegative integer, got -2"),
    ("sector-particle-number-float", lambda: binomial_sector_amplitude(2.5, 1, 0.6, 0.8),
     "particle number N must be a nonnegative integer, got 2.5"),
    ("sector-particle-number-bool", lambda: binomial_sector_amplitude(True, 1, 0.6, 0.8),
     "particle number N must be a nonnegative integer, got True"),
    ("sector-particle-number-negative", lambda: binomial_sector_amplitude(-1, 0, 0.6, 0.8),
     "particle number N must be a nonnegative integer, got -1"),
    ("sector-count-float", lambda: binomial_sector_amplitude(2, 1.5, 0.6, 0.8),
     "sector count N_A must be an integer in 0..2, got 1.5"),
    ("sector-count-above-n", lambda: binomial_sector_amplitude(2, 3, 0.6, 0.0),
     "sector count N_A must be an integer in 0..2, got 3"),
    # symmetric
    ("negative-particle-number", lambda: dicke_dim(2, -1), "particle number must be nonnegative, got -1"),
    ("particle-number-bool", lambda: coherent_state(SuUnitary(np.eye(2)), True),
     "particle number N must be an integer, got True"),
    ("particle-number-float", lambda: coherent_state(SuUnitary(np.eye(2)), 3.0),
     "particle number N must be an integer, got 3.0"),
    ("level-count-float", lambda: SymmetricState(2.0, 1, [1, 0]), "level count K must be an integer, got 2.0"),
    ("level-count-bool", lambda: SymmetricState(True, 1, [1, 0]), "level count K must be an integer, got True"),
    ("one-internal-level", lambda: dicke_dim(1, 2), "need at least 2 internal levels, got 1"),
    ("occupation-levels-zero", lambda: occupation_basis(0, 2), "level count K must be a positive integer, got 0"),
    ("occupation-levels-negative", lambda: occupation_basis(-1, 2), "level count K must be a positive integer, got -1"),
    ("occupation-levels-float", lambda: occupation_basis(2.0, 2), "level count K must be a positive integer, got 2.0"),
    ("occupation-particles-negative", lambda: occupation_basis(2, -1),
     "particle number N must be a nonnegative integer, got -1"),
    ("occupation-particles-float", lambda: occupation_basis(2, 2.5),
     "particle number N must be a nonnegative integer, got 2.5"),
    ("occupation-particles-bool-after-one", lambda: (occupation_basis(2, 1), occupation_basis(2, True)),
     "particle number N must be a nonnegative integer, got True"),
    ("haar-levels-float", lambda: haar_random_su(2.5, 0), "level count K must be an integer of at least 2, got 2.5"),
    ("state-overlap-sectors", lambda: identity_coherent(2, 2).overlap(identity_coherent(2, 3)),
     "symmetric states live in different sectors"),
    ("coherent-overlap-levels", lambda: overlap(SuUnitary(np.eye(2)), SuUnitary(np.eye(3)), 2),
     "unitaries act on different level counts"),
    ("coherent-overlap-negative-power", lambda: overlap(SuUnitary(np.eye(2)), SuUnitary(np.eye(2)), -1),
     "particle number N must be a nonnegative integer, got -1"),
    ("coherent-overlap-negative-power-of-orthogonal-states",
     lambda: overlap(SuUnitary(np.eye(2)), SuUnitary(np.eye(2)[::-1]), -1),
     "particle number N must be a nonnegative integer, got -1"),
    ("split-counts-float", lambda: apply_splitting(identity_coherent(2, 3), 1.5, 1.5),
     "split counts N_X and N_Y must be integers, got (1.5, 1.5)"),
    ("apply-unitary-levels", lambda: apply_unitary(SuUnitary(np.eye(3)), identity_coherent(2, 2)),
     "level-count mismatch"),
    # gcnot, verify, witness
    ("mu-zero", lambda: mu_to_epsilon(0.0), "mu must lie in (0, 1], got 0.0"),
    ("mu-above-one", lambda: mu_to_epsilon(1.5), "mu must lie in (0, 1], got 1.5"),
    ("probe-points-zero", lambda: maximal_input_count(2.0, 0.5, n_points=0),
     "n_points must be a positive integer, got 0"),
    ("probe-points-negative", lambda: maximal_input_count(2.0, 0.5, n_points=-3),
     "n_points must be a positive integer, got -3"),
    ("beamsplitter-vanishing-overlap", lambda: beamsplitter_params(1e-20, 1e30), "eps <= 1.000000000001e+20)"),
    ("coherent-overlap-phase-past-float-range", lambda: coherent_overlap(1e308, 1e308 + 10j),
     "has a phase past float range"),
    ("unknown-suite", lambda: verify.run_suites(["bogus"]), "unknown suite 'bogus'; valid: all, discrete"),
    ("suite-seed-float", lambda: verify.run_suites(["gcnot"], seed=1.5), "seed must be None or an integer, got 1.5"),
    ("suite-trials-float", lambda: verify.run_suites(["discrete"], trials=2.5), "trials must be an integer, got 2.5"),
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


def test_a_split_of_another_set_of_the_same_size_is_a_gram_mismatch():
    cs, other = random_classical_set(3, np.random.default_rng(1)), conversion_of(3)[0]
    with pytest.raises(GramMismatchError) as info:
        build_conversion(cs, make_split(other, default_epsilon(other)))
    message = str(info.value)
    assert "\n" not in message
    assert re.fullmatch(r"conversion misses the product states by \S+; the Grams differ", message)


def test_numpy_integer_sizes_are_accepted():
    state = coherent_state(SuUnitary(np.eye(2)), np.int64(3))
    assert state.dim == 4 == dicke_dim(np.int8(2), np.uint16(3))
    assert SymmetricState(np.int32(2), np.int64(1), [1, 0]).dim == 2


def test_public_symmetric_state_constructor():
    state = SymmetricState(2, 2, np.array([0.6, 0.0, 0.8j]))
    assert state.dim == 3 == dicke_dim(2, 2)
    assert not state.amplitudes.flags.writeable
    assert state.overlap(state) == pytest.approx(1.0, abs=1e-15)


BASIS = (basis_state(2, 0), basis_state(2, 1))
# each builder makes a fresh value from the same data
ARRAY_VALUES = [
    ("state-vector", lambda: StateVector([0.6, 0.8])),
    ("gram-matrix", lambda: GramMatrix(np.eye(2))),
    ("schmidt-data", lambda: schmidt_decompose(StateVector([1.0, 0.0, 0.0, 0.0]), 2, 2)),
    ("witness", lambda: Witness(np.eye(2))),
    ("swap-witness", lambda: swap_style_witness(2, 2, basis_state(4, 0))),
    ("su-unitary", lambda: SuUnitary(np.eye(2))),
    ("symmetric-state", lambda: SymmetricState(2, 1, [1, 0])),
    ("classical-set", lambda: ClassicalSet(BASIS)),
    ("split-spec", lambda: make_split(ClassicalSet(BASIS), 1.0)),
    ("conversion", lambda: conversion_of(2)[1]),
    ("two-mode-state", lambda: inject(identity_coherent(2, 1))),
    ("protocol-result",
     lambda: run_protocol(identity_coherent(2, 2), ProtocolConfig(r=BALANCED, t=BALANCED, target=(1, 1), seed=0))),
]


@pytest.mark.parametrize("build", [row[1] for row in ARRAY_VALUES], ids=[row[0] for row in ARRAY_VALUES])
def test_value_types_that_hold_arrays_compare_by_identity(build):
    value, twin = build(), build()
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert len({value, twin, value}) == 2


def test_the_schmidt_memo_takes_no_part_in_equality():
    psi, twin = StateVector([0.6, 0.0, 0.0, 0.8]), StateVector([0.6, 0.0, 0.0, 0.8])
    schmidt_decompose(psi, 2, 2)
    assert psi == psi and psi != twin and repr(psi) == repr(twin)
