"""The separability bound that convert_density attaches: negativity returns
0.0 on it only where rho^T_B >= -s holds, and every other input takes the
Cholesky route with the value it had before the bound existed."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nc2ent import linalg
from nc2ent.conversion import (
    ClassicalSet,
    build_conversion,
    default_epsilon,
    make_split,
    random_classical_set,
    random_superposition,
)
from nc2ent.linalg import DENSITY_TOL, StateVector, negativity

from test_check_once import DERIVED, converted_mixture
from test_linalg import negativity_with_a_copied_shift


def partial_transpose_spectrum(sigma: np.ndarray, dim: int) -> np.ndarray:
    pt = np.asarray(sigma).reshape(dim, dim, dim, dim).transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)
    return np.linalg.eigvalsh(pt)


def near_dependent_columns(dim: int, lam_min: float, rng) -> np.ndarray:
    """Columns whose Gram has eigenvalues lam_min and dim - 1 others uniform in [0.1, 2]."""
    spectrum = np.concatenate([[lam_min], rng.uniform(0.1, 2.0, dim - 1)])
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return np.sqrt(spectrum)[:, None] * q.conj().T


def classical_set_near(dim: int, lam_min: float, rng) -> ClassicalSet:
    """The columns of near_dependent_columns, each normalized."""
    columns = near_dependent_columns(dim, lam_min, rng)
    return ClassicalSet(tuple(StateVector.normalized(columns[:, i]) for i in range(dim)))


WEIGHTS = st.one_of(st.sampled_from([0.0, 1e-16]), st.floats(0.0, 1.0))
ADMIXTURES = st.one_of(st.just(0.0), st.floats(-16.0, -8.0).map(lambda e: 10.0**e))


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(2, 16), log_lam=st.floats(-8.0, -3.0),
       weights=st.lists(WEIGHTS, min_size=16, max_size=16), admixture=ADMIXTURES, seed=st.integers(0, 2**32 - 1))
@example(dim=15, log_lam=-7.0, weights=[0.0] * 14 + [1.0, 0.0], admixture=0.0, seed=1539)
def test_the_certificate_decides_only_where_rho_pt_is_above_the_floor(dim, log_lam, weights, admixture, seed):
    # a classical mixture, with a share `admixture` of a superposition of every
    # classical state, which can put lambda_min(rho^T_B) on either side of -s
    rng = np.random.default_rng(seed)
    cs = classical_set_near(dim, 10.0**log_lam, rng)
    assume(1e-8 <= cs.gram.min_eigenvalue() <= 1e-3)
    w = np.array(weights[:dim])
    assume(w.sum() > 0.0)
    w /= w.sum()
    conv = build_conversion(cs, make_split(cs, default_epsilon(cs)))
    psi, _ = random_superposition(cs, dim, rng)
    mixture = sum(wi * c.projector() for wi, c in zip(w, cs.states))
    sigma = conv.convert_density((1.0 - admixture) * mixture + admixture * psi.projector())
    floor = DENSITY_TOL / dim**2
    beta = linalg._attached_bound(sigma, dim, dim)
    assert beta is not None
    value = negativity(sigma, dim, dim)
    if beta <= floor:
        assert value == 0.0
        assert partial_transpose_spectrum(sigma, dim)[0] >= -floor
    else:
        assert value == negativity(np.array(sigma), dim, dim)


@pytest.mark.parametrize("dim", [8, 16, 32])
@pytest.mark.parametrize("lam_min", [2e-10, 1e-9])
def test_every_set_above_the_independence_floor_converts(lam_min, dim):
    # the Gram decision reads the product family's Gram, not the map's miss,
    # which 1/sqrt(lambda_min) amplifies past 1e-10 near the floor
    rng = np.random.default_rng(7)
    for _ in range(10):
        try:
            cs = classical_set_near(dim, lam_min, rng)
        except ValueError:  # refused at the floor, where ClassicalSet decides
            continue
        build_conversion(cs, make_split(cs, default_epsilon(cs)))


def refusing_cholesky(*args, **kwargs):
    raise AssertionError("np.linalg.cholesky was called")


def counting_cholesky(monkeypatch) -> list:
    calls, cholesky = [], np.linalg.cholesky

    def counting(m, *args, **kwargs):
        calls.append(m.shape)
        return cholesky(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


def test_a_converted_mixture_needs_no_cholesky(monkeypatch):
    sigma = converted_mixture(16, 50)
    monkeypatch.setattr(np.linalg, "cholesky", refusing_cholesky)
    assert negativity(sigma, 16, 16) == 0.0


def converted_superposition(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cs = random_classical_set(dim, rng)
    psi, _ = random_superposition(cs, dim, rng)
    return build_conversion(cs, make_split(cs, default_epsilon(cs))).convert_density(psi.projector())


def nearly_hermitian_mixture(dim: int, seed: int) -> np.ndarray:
    """A converted classical mixture whose input is Hermitian only to 5e-11."""
    rng = np.random.default_rng(seed)
    cs = random_classical_set(dim, rng)
    rho = 0.5 * (cs.states[0].projector() + cs.states[1].projector())
    rho[0, 1] += 5e-11
    return build_conversion(cs, make_split(cs, default_epsilon(cs))).convert_density(rho)


# (build, cut, Cholesky calls): the PPT test, after the density check for a derived array
CHOLESKY_ROUTE = {
    "cut 4x64": (lambda: converted_mixture(16, 51), (4, 64), 1),
    "NPT superposition": (lambda: converted_superposition(16, 52), (16, 16), 1),
    "Hermitian to 5e-11": (lambda: nearly_hermitian_mixture(16, 53), (16, 16), 1),
    **{f"derived by {name}": (lambda derive=derive: derive(converted_mixture(16, 54)), (16, 16), 2)
       for name, derive in DERIVED.items()},
}


@pytest.mark.parametrize("name", list(CHOLESKY_ROUTE))
def test_other_inputs_take_the_cholesky_route(monkeypatch, name):
    build, cut, cholesky_calls = CHOLESKY_ROUTE[name]
    sigma = build()
    expected = negativity_with_a_copied_shift(sigma, *cut)
    calls = counting_cholesky(monkeypatch)
    assert negativity(sigma, *cut) == expected
    assert calls == [(256, 256)] * cholesky_calls


def test_the_bound_travels_only_on_the_built_density():
    sigma = converted_mixture(4, 55)
    assert linalg._attached_bound(sigma, 4, 4) <= DENSITY_TOL / 16
    assert linalg._attached_bound(sigma, 2, 8) is None
    for derive in DERIVED.values():
        assert linalg._attached_bound(derive(sigma), 4, 4) is None
    with pytest.raises(ValueError, match="^cut 4x3 does not factor dimension 16$"):
        linalg._attached_bound(sigma, 4, 3)
