"""The unitary realization of a Blaschke-Potapov product against the
recursive convolution reference, the refusal of a product that is not inner,
and the Crofoot realization against the closed-form transform."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matholab import (BlaschkePotapovProduct, CrofootData, ModelSpace, PotapovFactor,
                      crofoot_realization, crofoot_theta, validate)
from matholab.blaschke import state_window
from matholab.laurent import Laurent
from matholab.sampling import random_frame, random_inner, random_unitary

import oracle


def _product(rng, dim, moduli):
    """A pure product with the given pole moduli; the last factor has full rank."""
    factors = []
    for i, m in enumerate(moduli):
        rank = dim if i == len(moduli) - 1 else int(rng.integers(1, dim + 1))
        pole = m * np.exp(2j * np.pi * rng.uniform())
        factors.append(PotapovFactor(pole, random_frame(rng, dim, rank), random_unitary(rng, dim)))
    return BlaschkePotapovProduct(dim, random_unitary(rng, dim), factors)


# pole moduli 0 or at least 0.01 (a tinier nonzero pole drives the reference's
# coefficients into underflow) and below 0.9 (0.9 times a phase can round above
# the cap)
products = st.builds(
    lambda dim, moduli, seed: _product(np.random.default_rng(seed), dim, moduli),
    dim=st.integers(1, 3),
    moduli=st.lists(st.just(0.0) | st.floats(0.01, 0.8999999), min_size=1, max_size=4),
    seed=st.integers(0, 2 ** 16))
orders = st.integers(8, 128)
# the corners of the documented range: four factors at the pole cap, d = 3
CORNER = _product(np.random.default_rng(0), 3, [0.8999999] * 4)


def corners(test):
    return example(theta=CORNER, order=8)(example(theta=CORNER, order=128)(test))


@settings(max_examples=60)
@corners
@given(theta=products, order=orders)
def test_window_matches_recursive_reference(theta, order):
    basis, _, series = state_window(theta.realization(), order)
    assert not basis[:order].any()
    assert np.max(np.abs(basis[order:] - oracle.product_basis(theta, order))) <= 1e-13
    got = series.with_order(order).coeffs[order:]
    assert np.max(np.abs(got - oracle.product_series(theta, order))) <= 1e-13
    assert series.allclose(theta.laurent(order), tol=0.0)


@settings(max_examples=60)
@example(theta=CORNER)
@given(theta=products)
def test_colligation_is_unitary(theta):
    a, b, c, d = theta.realization()
    g = np.block([[a, b], [c, d]])
    assert np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))) <= 1e-13
    assert not np.tril(a, -1).any()
    assert np.max(np.abs(d - theta.theta0())) <= 1e-13


@settings(max_examples=60)
@corners
@given(theta=products, order=orders)
def test_basis_tails_are_the_dropped_mass(theta, order):
    # measured on a window of 6 * order, widened so that the mass beyond it
    # (at most 0.81^400 times a polynomial factor at poles near 0.9) is
    # below the tolerance even at order 8
    wide = max(6 * order, order + 400)
    dropped = np.abs(oracle.product_basis(theta, wide)[order + 1:])
    # hypot: tails of small poles at long windows lie below 1e-154, where squares underflow
    mass = np.hypot.reduce(dropped.reshape(-1, dropped.shape[2]), axis=0)
    tails = state_window(theta.realization(), order)[1]
    assert np.all(np.abs(tails - mass) <= 1e-10 * mass)


@settings(max_examples=60)
@corners
# the convolution product's tail (0.0398) fell below this sup error (0.0439)
@example(theta=random_inner(np.random.default_rng(291), 1, n_factors=4, max_abs=0.9), order=8)
@given(theta=products, order=orders)
def test_theta_tail_bounds_the_sup_error(theta, order):
    series = theta.laurent(order)
    gap = oracle.sample_series(series) - oracle.theta_values(theta, oracle.nodes())
    assert np.max(np.linalg.norm(gap, axis=(1, 2))) <= series.tail_bound + 1e-12


def test_product_that_is_not_inner_is_refused():
    rng = np.random.default_rng(61)
    theta = _product(rng, 2, [0.3, 0.5])
    assert validate(theta).inner
    # the constructor refuses a non-unitary post_unitary; overwrite it afterwards
    theta.factors[0].post_unitary = 1.1 * theta.factors[0].post_unitary
    report = validate(theta)
    assert not report.inner and report.max_unitary_defect > 0.1
    with pytest.raises(ValueError, match="not inner"):
        ModelSpace.from_product(theta, 16)


# -- the Crofoot transform Theta -> Theta^W ------------------------------------

def _crofoot(dim, norm, seed):
    """A Crofoot parameter W with |W|_2 = norm."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return CrofootData(g * (norm / np.linalg.norm(g, 2)))


# |W| up to the 0.9 cap (a rescaled random matrix can round above 0.9 itself)
crofoot_norms = st.just(0.0) | st.floats(0.0, 0.8999999)
crofoot_seeds = st.integers(0, 2 ** 16)


def crofoot_corners(test):
    # W = 0.9 I sits on the cap exactly
    for order in (8, 128):
        test = example(theta=CORNER, norm=0.9, seed=-1, order=order)(test)
    return test


def _crofoot_for(theta, norm, seed):
    """The drawn W, or W = 0.9 I for the corner examples (seed -1)."""
    return CrofootData(0.9 * np.eye(theta.dim)) if seed < 0 else _crofoot(theta.dim, norm, seed)


def _closed_form(theta, cro, zs):
    """(Theta^W at zs, the pointwise factor D_{W*} (I - Theta W*)^{-1} at zs)."""
    vals = oracle.theta_values(theta, zs)
    factor = cro.D_Wstar @ np.linalg.inv(np.eye(theta.dim) - vals @ cro.W.conj().T)
    return factor @ vals @ cro.D_W - cro.W, factor


@settings(max_examples=60)
@crofoot_corners
@given(theta=products, norm=crofoot_norms, seed=crofoot_seeds, order=orders)
def test_crofoot_colligation_is_unitary(theta, norm, seed, order):
    a, b, c, d = crofoot_realization(theta.realization(), _crofoot_for(theta, norm, seed))
    g = np.block([[a, b], [c, d]])
    assert np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))) <= 1e-13


@settings(max_examples=60)
@crofoot_corners
@given(theta=products, norm=crofoot_norms, seed=crofoot_seeds, order=orders)
def test_crofoot_series_matches_closed_form(theta, norm, seed, order):
    cro = _crofoot_for(theta, norm, seed)
    series = crofoot_theta(theta, cro, order)
    want = _closed_form(theta, cro, oracle.nodes())[0]
    gap = oracle.sample_series(series) - want
    assert np.max(np.linalg.norm(gap, axis=(1, 2))) <= series.tail_bound + 1e-12


@settings(max_examples=60)
@crofoot_corners
@given(theta=products, norm=crofoot_norms, seed=crofoot_seeds, order=orders)
def test_crofoot_map_is_the_identity_in_state_coordinates(theta, norm, seed, order):
    # column j of the image's window basis C_W A_W^n is the Crofoot image of
    # the source's state basis function C (I - zA)^{-1} e_j, up to its tail
    cro = _crofoot_for(theta, norm, seed)
    image = crofoot_realization(theta.realization(), cro)
    basis, tails, _ = state_window(image, order)
    # Theta^W can have zeros near the circle (spectral radius of A_W up to
    # about 0.998 at the caps), so the grid grows until the quadrature of
    # the dropped tail stops aliasing: |A_W^N|_F <= 1e-14
    n_grid, power = oracle.N_GRID, np.linalg.matrix_power(image[0], oracle.N_GRID)
    while np.linalg.norm(power) > 1e-14:
        n_grid, power = 2 * n_grid, power @ power
    zs = oracle.nodes(n_grid)
    a, _, c, _ = theta.realization()
    resolvent = np.linalg.inv(np.eye(a.shape[0]) - zs[:, None, None] * a)
    want = _closed_form(theta, cro, zs)[1] @ c @ resolvent
    err = oracle.sample_series_fft(Laurent(basis, order), n_grid) - want
    for j in range(basis.shape[2]):
        assert np.sqrt(oracle.inner(err[:, :, j], err[:, :, j]).real) <= tails[j] + 1e-12, j
