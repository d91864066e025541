"""Each value is checked once, where it enters: the public constructors keep
every check, and the values the library builds are not checked again."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nc2ent import conversion, linalg, modesplit, symmetric, verify, witness
from nc2ent.conversion import build_conversion, default_epsilon, make_split, random_classical_set
from nc2ent.linalg import StateVector, random_state
from nc2ent.symmetric import SymmetricState, apply_unitary, coherent_state, dicke_dim, haar_random_su


def count_checks(monkeypatch) -> list[tuple[str, np.ndarray]]:
    """Record (check name, first argument) for every unit-norm and Hermitian
    check, in each module that imports one by name."""
    calls = []

    def counting(name, check):
        def wrapper(*args, **kwargs):
            calls.append((name, np.array(args[0])))
            return check(*args, **kwargs)
        return wrapper

    for module in (linalg, symmetric, modesplit, witness):
        for name in ("check_unit_vector", "check_hermitian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_library_built_values_are_not_checked_again(monkeypatch):
    rng = np.random.default_rng(31)
    cs = random_classical_set(4, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    psi = random_state(4, rng)
    u = haar_random_su(3, 1)
    state = coherent_state(u, 4)
    calls = count_checks(monkeypatch)
    phi = conv.convert(psi)
    psi.tensor(psi)
    coherent_state(u, 4)
    apply_unitary(u, state)
    witness.nonclassicality_witness(witness.swap_style_witness(4, 4, phi), conv)
    assert calls == []
    split = make_split(cs, default_epsilon(cs))
    # what is checked is gram_d, which the public uniform_overlap_gram builds,
    # and the factor columns, which factor_gram builds through StateVector
    hermitian = [m for name, m in calls if name == "check_hermitian"]
    assert len(hermitian) == 1 and np.array_equal(hermitian[0], split.gram_d.entries)
    assert [name for name, _ in calls].count("check_unit_vector") == 2 * cs.dim


def test_built_grams_are_not_checked_again(monkeypatch):
    rng = np.random.default_rng(34)
    states = [random_state(3, rng) for _ in range(3)]
    g = linalg.gram_of(states)
    calls = count_checks(monkeypatch)
    assert linalg.gram_of(states).min_eigenvalue() == g.min_eigenvalue()
    linalg.hadamard(g, g)
    conversion.ClassicalSet(tuple(states))
    assert calls == []


def refuse(name):
    def refusing(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refusing


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_completed_unitary_checks_nothing_again(monkeypatch, dim):
    # V and |k> (x) |ref> are orthonormal frames already: no general synthesis,
    # no checked StateVector or GramMatrix, no Gram comparison
    cs = random_classical_set(dim, np.random.default_rng(32))
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    monkeypatch.setattr(linalg, "synthesize_unitary", refuse("synthesize_unitary"))
    monkeypatch.setattr(conversion, "synthesize_unitary", refuse("synthesize_unitary"), raising=False)
    calls = count_checks(monkeypatch)
    u = conv.unitary
    assert calls == []
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim * dim))) < 1e-10
    psi = random_state(dim, np.random.default_rng(33))
    via_unitary = u @ np.kron(psi.amplitudes, conv.reference.amplitudes)
    assert np.max(np.abs(via_unitary - conv.convert(psi).amplitudes)) < 1e-10


def conversion_of_three():
    cs = random_classical_set(3, np.random.default_rng(34))
    return build_conversion(cs, make_split(cs, default_epsilon(cs)))


BASIS = [linalg.basis_state(2, k) for k in range(2)]
BUILT_MATRICES = {
    "isometry": lambda: conversion_of_three().isometry,
    "unitary": lambda: conversion_of_three().unitary,
    "synthesized": lambda: linalg.synthesize_unitary(BASIS, BASIS[::-1]),
    "splitting": lambda: symmetric.splitting_isometry(2, 3, 1, 2),
}


@pytest.mark.parametrize("name", list(BUILT_MATRICES))
def test_library_built_matrices_are_read_only(name):
    matrix = BUILT_MATRICES[name]()
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 0.0


def test_symmetric_suite_splits_through_apply_splitting(monkeypatch):
    for name in ("splitting_isometry", "symmetric_power_matrix"):
        monkeypatch.setattr(symmetric, name, refuse(name))
    checks = verify.run_symmetric_suite(seed=0, trials=8)
    assert [c.name for c in checks] == ["overlap-splitting", "isometry-coherent-action", "mixed-faithfulness"]
    assert all(c.passed for c in checks)


def test_public_constructors_keep_their_checks(monkeypatch):
    calls = count_checks(monkeypatch)
    with pytest.raises(ValueError, match="not normalized"):
        StateVector([2, 0])
    with pytest.raises(ValueError, match="not Hermitian"):
        witness.Witness(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not normalized"):
        SymmetricState(2, 2, np.array([1.0, 1.0, 0.0]))
    assert [name for name, _ in calls] == ["check_unit_vector", "check_hermitian", "check_unit_vector"]


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 16), k=st.integers(2, 4), n=st.integers(0, 6),
       log_scale=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
def test_library_built_values_have_unit_norm(dim, k, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    cs = random_classical_set(dim, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    psi = random_state(dim, rng)
    coherent = coherent_state(haar_random_su(k, rng), n)
    raw = rng.standard_normal(dicke_dim(k, n)) + 1j * rng.standard_normal(dicke_dim(k, n))
    built = [
        conv.convert(psi),
        psi.tensor(random_state(dim, rng)),
        StateVector.normalized(raw * 10.0**log_scale),
        coherent,
        coherent.as_state_vector(),
        apply_unitary(haar_random_su(k, rng), coherent),
        SymmetricState.normalized(k, n, raw),
    ]
    for value in built:
        assert abs(np.linalg.norm(value.amplitudes) - 1.0) <= 1e-12
        assert not value.amplitudes.flags.writeable
