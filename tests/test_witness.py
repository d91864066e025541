import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nc2ent import linalg
from nc2ent.conversion import build_conversion, default_epsilon, make_split, random_classical_set
from nc2ent.gcnot import gcnot_classical_pair, mu_to_epsilon
from nc2ent.linalg import UNIT_ROUNDOFF, StateVector, basis_state, random_state, schmidt_decompose
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


# ------------------------------------------------------ closed-form compression

def random_density(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_closed_form_compression_matches_the_dense_route(d, seed):
    """The swap witness compresses as lambda_1^2 I - |x><x|, x = V^dag phi; the dense route is
    V^dag W V = lambda_1^2 V^dag V - |x><x|. Exactly, they differ by lambda_1^2 (V^dag V - I).
    In floating point, with n = D^2 and gamma = sqrt(2) (n + 2) u the complex inner-product
    bound, delta = max|V^dag V - I| (computed, itself within gamma (1 + delta)) and
    |W| <= lambda_1^2 I + |phi||phi|^dag entrywise: the two products V^dag W and (V^dag W) V
    miss by at most 2 gamma (1 + lambda_1^2)(1 + delta) <= 4 gamma (1 + delta); x misses
    V^dag phi by gamma sqrt(1 + delta), so |x><x| misses by 2 gamma (1 + delta); the
    one-rounding steps (diagonal shift, the Hermitian mean, the complex products) stay
    within gamma. So |closed - dense| <= lambda_1^2 delta + 8 gamma (1 + delta)."""
    rng = np.random.default_rng(seed)
    cs = random_classical_set(d, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    phi = conv.convert(random_state(d, rng))
    w = swap_style_witness(d, d, phi)
    w_tilde = nonclassicality_witness(w, conv).operator
    v = conv.isometry
    dense = v.conj().T @ w.operator @ v
    delta = float(np.max(np.abs(v.conj().T @ v - np.eye(d))))
    gamma = math.sqrt(2.0) * (d * d + 2) * UNIT_ROUNDOFF
    lam1_sq = float(schmidt_decompose(phi, d, d).coefficients[0]) ** 2
    assert np.max(np.abs(w_tilde - dense)) <= lam1_sq * delta + 8.0 * gamma * (1.0 + delta)
    rho = random_density(d, rng)
    expected = float(np.sum(w.operator * conv.convert_density(rho).T).real)  # Tr(W V rho V^dag)
    assert abs(detect(Witness(w_tilde), rho)[0] - expected) <= 1e-12
    assert np.array_equal(w_tilde, w_tilde.conj().T)
    assert not w_tilde.flags.writeable


@pytest.fixture
def formed(monkeypatch):
    """The dimension of every state whose StateVector.projector is formed, in call order."""
    dims = []
    projector = StateVector.projector
    monkeypatch.setattr(StateVector, "projector", lambda self: dims.append(self.dim) or projector(self))
    return dims


def test_swap_witness_forms_its_operator_only_when_read(formed):
    _, conv = gcnot_setup()
    w = swap_style_witness(2, 2, conv.convert(basis_state(2, 0)))
    assert w.dim == 4 and isinstance(w, Witness)
    nonclassicality_witness(w, conv)
    assert formed == []
    op = w.operator
    assert w.operator is op and not op.flags.writeable and formed == [4]


# ------------------------------------------------------------- dense guards

def test_swap_witness_operator_is_refused_past_the_dense_cap(formed, monkeypatch):
    w = swap_style_witness(4, 4, random_state(16, np.random.default_rng(94)))
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 16 * 16 - 1)
    with pytest.raises(ValueError, match="dense swap witness operator on C\\^16 of 16 x 16") as err:
        w.operator
    assert "\n" not in str(err.value)
    assert formed == []


def test_convert_density_is_refused_past_the_dense_cap(monkeypatch):
    rng = np.random.default_rng(95)
    cs = random_classical_set(4, rng)
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 16 * 16 - 1)
    with pytest.raises(ValueError, match="dense converted density at D=4 .* of 16 x 16") as err:
        conv.convert_density(random_density(4, rng))
    assert "\n" not in str(err.value)
