import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nc2ent.conversion import build_conversion, default_epsilon, make_split, random_classical_set
from nc2ent.gcnot import gcnot_classical_pair, mu_to_epsilon
from nc2ent.linalg import StateVector, basis_state, random_state, schmidt_decompose
from nc2ent.witness import (
    Witness,
    detect,
    nonclassicality_witness,
    swap_style_witness,
)
from nc2ent.verify import measure_witness_chain


def bell() -> StateVector:
    return StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))


def gcnot_setup(theta=math.pi / 2, mu=0.01):
    cs = gcnot_classical_pair(theta)
    split = make_split(cs, mu_to_epsilon(mu), boundary_ok=True)
    conv = build_conversion(cs, split)
    return cs, conv


# ---------------------------------------------------------- swap_style_witness

def test_bell_witness_values():
    w = swap_style_witness(2, 2, bell())
    assert np.allclose(w.operator, 0.5 * np.eye(4) - bell().projector())
    value, detected = detect(w, bell().projector())
    assert abs(value + 0.5) < 1e-12 and detected


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (3, 4), (16, 16)])
def test_witness_has_the_bits_of_the_identity_form(dim_a, dim_b):
    rng = np.random.default_rng(91)
    phi = StateVector.normalized(rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b))
    lam1 = float(schmidt_decompose(phi, dim_a, dim_b).coefficients[0])
    expected = lam1**2 * np.eye(phi.dim, dtype=complex) - phi.projector()
    assert swap_style_witness(dim_a, dim_b, phi).operator.tobytes() == expected.tobytes()


def test_product_target_witness_is_psd():
    phi = basis_state(2, 0).tensor(basis_state(2, 1))
    w = swap_style_witness(2, 2, phi)
    assert np.linalg.eigvalsh(w.operator)[0] > -1e-12


def test_witness_nonnegative_on_random_products():
    rng = np.random.default_rng(90)
    phi = StateVector.normalized(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    w = swap_style_witness(3, 4, phi)
    worst = min(
        detect(w, random_state(3, rng).tensor(random_state(4, rng)).projector())[0]
        for _ in range(10_000)
    )
    assert worst >= -1e-10


# ----------------------------------------------------- nonclassicality_witness

def test_gcnot_pipeline_detects_plus_state_not_classical():
    cs, conv = gcnot_setup()
    phi = conv.convert(basis_state(2, 0))
    w = swap_style_witness(2, 2, phi)
    w_tilde = nonclassicality_witness(w, conv)
    value, detected = detect(w_tilde, basis_state(2, 0).projector())
    assert detected and value < -0.01
    for c in cs.states:
        cv, flagged = detect(w_tilde, c.projector())
        assert cv >= -1e-10 and not flagged


def test_classical_states_safe_for_random_set():
    rng = np.random.default_rng(92)
    cs = random_classical_set(3, rng)
    from nc2ent.conversion import default_epsilon
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    phi = conv.convert(StateVector.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    w = swap_style_witness(3, 3, phi)
    w_tilde = nonclassicality_witness(w, conv)
    for c in cs.states:
        value, _ = detect(w_tilde, c.projector())
        assert value >= -1e-10


def test_psd_witness_restricts_to_psd():
    _, conv = gcnot_setup()
    w = Witness(np.eye(4) * 0.7)
    restricted = nonclassicality_witness(w, conv)
    assert np.linalg.eigvalsh(restricted.operator)[0] > -1e-12


def test_chain_identity():
    worst_chain, _, _ = measure_witness_chain(20, np.random.default_rng(93))
    assert worst_chain < 1e-10


# --------------------------------------------------------------------- detect

def test_detect_maximally_mixed_reports_value():
    _, conv = gcnot_setup()
    w = swap_style_witness(2, 2, conv.convert(basis_state(2, 0)))
    w_tilde = nonclassicality_witness(w, conv)
    value, _ = detect(w_tilde, np.eye(2) / 2.0)
    assert isinstance(value, float)


def test_detect_shape_mismatch():
    w = Witness(np.eye(4))
    with pytest.raises(ValueError):
        detect(w, np.eye(2))


def test_witness_requires_hermitian():
    with pytest.raises(ValueError):
        Witness(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_witness_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite") as err:
            Witness(np.array([[bad, 0.0], [0.0, 1.0]]))
        assert "\n" not in str(err.value)


# ------------------------------------------------------ trusted construction

@settings(max_examples=40, deadline=None)
@given(dim_a=st.integers(1, 16), dim_b=st.integers(1, 16), d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_library_witnesses_are_hermitian_without_the_check(dim_a, dim_b, d, seed):
    rng = np.random.default_rng(seed)
    w = swap_style_witness(dim_a, dim_b, random_state(dim_a * dim_b, rng)).operator
    assert np.max(np.abs(w - w.conj().T)) <= 1e-15
    cs = random_classical_set(d, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    w_tilde = nonclassicality_witness(swap_style_witness(d, d, conv.convert(random_state(d, rng))), conv).operator
    assert np.array_equal(w_tilde, w_tilde.conj().T)
    assert not w_tilde.flags.writeable


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)], ids=["nan", "inf", "imag-nan"])
def test_detect_rejects_non_finite_state(entry):
    with pytest.raises(ValueError, match="non-finite entry") as err:
        detect(Witness(np.eye(2)), [[entry, 0.0], [0.0, 1.0]])
    assert "\n" not in str(err.value)
