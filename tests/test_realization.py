"""The unitary realization of a Blaschke-Potapov product against the
recursive convolution reference, and the refusal of a product that is not inner."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matholab import BlaschkePotapovProduct, ModelSpace, PotapovFactor, validate
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
    basis, _, series = theta.state_window(order)
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
    tails = theta.state_window(order)[1]
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
