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
    make_split(cs, default_epsilon(cs))
    # both Grams are built unchecked; only the factor columns are checked, each by _factor_columns
    assert [name for name, _ in calls] == ["check_unit_vector"] * (2 * cs.dim)


def test_built_grams_are_not_checked_again(monkeypatch):
    rng = np.random.default_rng(34)
    states = [random_state(3, rng) for _ in range(3)]
    g = linalg.gram_of(states)
    calls = count_checks(monkeypatch)
    assert linalg.gram_of(states).min_eigenvalue() == g.min_eigenvalue()
    linalg.hadamard(g, g)
    conversion.ClassicalSet(tuple(states))
    assert calls == []


def count_eigendecompositions(monkeypatch) -> list[str]:
    """Record the name of every np.linalg eigen-solver call."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def counting(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_a_classical_set_is_built_with_one_eigendecomposition(monkeypatch):
    # nu = lambda_min(G - diag G) is the set's one eigenvalue; a built Gram stores none
    rng = np.random.default_rng(41)
    states = [random_state(4, rng) for _ in range(4)]
    calls = count_eigendecompositions(monkeypatch)
    cs = conversion.ClassicalSet(tuple(states))
    assert calls == ["eigvalsh"]
    calls.clear()
    linalg.hadamard(linalg.gram_of(states), cs.gram)
    assert calls == []
    for seed in range(8):  # each first draw is accepted, so one draw is made
        calls.clear()
        random_classical_set(3, np.random.default_rng(seed))
        assert calls == ["eigvalsh"]


def test_a_classical_sets_columns_are_sealed_and_are_its_conversions():
    cs = random_classical_set(4, np.random.default_rng(42))
    assert np.array_equal(cs.columns, np.column_stack([c.amplitudes for c in cs.states]))
    assert build_conversion(cs, make_split(cs, default_epsilon(cs)))._classical is cs.columns
    base = cs.columns
    while isinstance(base, np.ndarray):  # immutable bytes all the way down
        with pytest.raises(ValueError):
            base.setflags(write=True)
        base = base.base


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


def converted_mixture(dim: int, seed: int) -> np.ndarray:
    """convert_density of a three-term classical mixture (fewer terms below D = 3)."""
    rng = np.random.default_rng(seed)
    cs = random_classical_set(dim, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    terms = min(dim, 3)
    weights = rng.random(terms) + 0.1
    weights /= weights.sum()
    return conv.convert_density(sum(w * cs.states[k].projector() for w, k in zip(weights, range(terms))))


def final_block() -> np.ndarray:
    """The post-selected block of the first successful single-shot run on one state."""
    psi = coherent_state(haar_random_su(2, np.random.default_rng(40)), 2)
    for seed in range(64):
        res = modesplit.run_protocol(psi, modesplit.ProtocolConfig(r=0.6, t=0.8, target=(1, 1), max_rounds=1,
                                                                   seed=seed))
        if res.succeeded:
            return res.final_block
    raise AssertionError("no run of 64 succeeded")


BASIS = [linalg.basis_state(2, k) for k in range(2)]
BUILT_MATRICES = {
    "final block": final_block,
    "converted density": lambda: converted_mixture(3, 35),
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


def count_density_checks(monkeypatch) -> list[tuple[str, np.ndarray]]:
    """count_checks, with every call of linalg._check_density recorded too."""
    calls = count_checks(monkeypatch)
    check_density = linalg._check_density

    def counting(rho):
        calls.append(("_check_density", np.array(rho)))
        return check_density(rho)

    monkeypatch.setattr(linalg, "_check_density", counting)
    return calls


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_converted_densities_are_not_checked_again(monkeypatch, dim):
    sigma = converted_mixture(dim, 36)
    calls = count_density_checks(monkeypatch)
    linalg.partial_transpose(sigma, dim, dim)
    assert linalg.negativity(sigma, dim, dim) == 0.0
    assert calls == []


DERIVED = {
    "slice": lambda sigma: sigma[:, :],
    "reshape": lambda sigma: sigma.reshape(sigma.shape),
    "times one": lambda sigma: sigma * 1,
    "copy": lambda sigma: sigma.copy(),
    "np.array": lambda sigma: np.array(sigma),
}


@pytest.mark.parametrize("check", [linalg.negativity, linalg.partial_transpose])
@pytest.mark.parametrize("derive", list(DERIVED))
def test_arrays_derived_from_a_built_density_are_checked_again(monkeypatch, derive, check):
    sigma = converted_mixture(4, 37)
    trusted = check(sigma, 4, 4)
    calls = count_density_checks(monkeypatch)
    derived = check(DERIVED[derive](sigma), 4, 4)
    assert [name for name, _ in calls] == ["_check_density", "check_hermitian"]
    assert np.array_equal(derived, trusted)


def test_a_modified_copy_of_a_built_density_is_refused():
    doubled = converted_mixture(4, 38).copy()
    doubled *= 2.0
    for check in (linalg.negativity, linalg.partial_transpose):
        with pytest.raises(ValueError, match="density operator does not have unit trace"):
            check(doubled, 4, 4)


def test_a_built_density_cannot_be_made_writable():
    sigma = converted_mixture(4, 39)
    with pytest.raises(ValueError, match="read-only"):
        sigma[1, 1] = 2.0
    with pytest.raises(ValueError):
        sigma.setflags(write=True)
    base = sigma.base
    while isinstance(base, np.ndarray):  # the buffer is immutable all the way down
        with pytest.raises(ValueError):
            base.setflags(write=True)
        base = base.base
    assert linalg.negativity(sigma, 4, 4) == 0.0 and np.trace(sigma).real == pytest.approx(1.0)


def test_what_the_separability_bound_rests_on_cannot_be_made_writable():
    # the bound itself is a float on the density; it is computed from V, A and the residuals
    cs = random_classical_set(4, np.random.default_rng(40))
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    for array in (conv.isometry, conv._classical, conv._residuals):
        for view in (array, array.base):
            with pytest.raises(ValueError):
                view.setflags(write=True)


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
