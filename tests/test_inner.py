"""Blaschke-Potapov products: values, series, validation, serialization."""

import numpy as np
import pytest

from matholab import (
    BlaschkePotapovProduct,
    Conjugation,
    CrofootData,
    MAX_POLE_ABS,
    PotapovFactor,
    ScenarioError,
    crofoot_theta,
    diagonal_monomial,
    scalar_blaschke,
    validate,
)
from matholab.sampling import random_inner, random_symmetric_inner, random_unitary

import oracle


def test_factor_series_matches_closed_form():
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 3)
    factor = PotapovFactor(0.4 - 0.2j, u[:, :2], random_unitary(rng, 3))
    prod = BlaschkePotapovProduct(3, None, [factor])
    zs = oracle.nodes(64)
    series = prod.laurent(48)
    closed = oracle.theta_values(prod, zs)
    assert np.max(np.abs(oracle.sample_series(series, 64) - closed)) < series.tail_bound + 1e-12


def test_product_series_matches_closed_form():
    rng = np.random.default_rng(32)
    theta = random_inner(rng, 2, n_factors=3, max_abs=0.5)
    series = theta.laurent(64)
    zs = oracle.nodes(128)
    gap = oracle.sample_series(series, 128) - oracle.theta_values(theta, zs)
    assert np.max(np.abs(gap)) < series.tail_bound + 1e-10


def test_boundary_values_unitary():
    rng = np.random.default_rng(33)
    theta = random_inner(rng, 3, n_factors=2)
    vals = oracle.theta_values(theta, oracle.nodes(64))
    eye = np.eye(3)
    defect = np.max(np.linalg.norm(vals @ np.conj(np.transpose(vals, (0, 2, 1))) - eye,
                                   axis=(1, 2)))
    assert defect < 1e-12


def test_tail_bound_is_certified():
    rng = np.random.default_rng(34)
    theta = random_inner(rng, 2, n_factors=2, max_abs=0.6)
    for order in (16, 32, 64):
        series = theta.laurent(order)
        gap = (oracle.sample_series(series, 256)
               - oracle.theta_values(theta, oracle.nodes(256)))
        worst = np.max(np.linalg.norm(gap, ord=2, axis=(1, 2)))
        assert worst <= series.tail_bound + 1e-12


def test_purity_and_theta0():
    rng = np.random.default_rng(35)
    theta = random_inner(rng, 2)
    report = validate(theta)
    assert report.inner and report.pure
    assert abs(np.linalg.norm(theta.theta0(), 2) - report.theta0_norm) < 1e-13
    # a constant unitary product is inner but not pure
    flat = BlaschkePotapovProduct(2, random_unitary(rng, 2), [])
    rep = validate(flat)
    assert rep.inner and not rep.pure


def test_diagonal_monomial_values():
    theta = diagonal_monomial([1, 3])
    zs = oracle.nodes(32)
    vals = oracle.theta_values(theta, zs)
    expected = np.zeros((32, 2, 2), dtype=complex)
    expected[:, 0, 0] = zs
    expected[:, 1, 1] = zs ** 3
    assert np.max(np.abs(vals - expected)) < 1e-13
    assert theta.model_dim() == 4
    with pytest.raises(ValueError):
        diagonal_monomial([2, -1])


def test_scalar_blaschke_values():
    poles = [0.5, -0.3 + 0.2j]
    theta = scalar_blaschke(poles)
    zs = oracle.nodes(32)
    vals = oracle.theta_values(theta, zs)[:, 0, 0]
    direct = np.ones(32, dtype=complex)
    for a in poles:
        direct *= (zs - a) / (1.0 - np.conj(a) * zs)
    assert np.max(np.abs(vals - direct)) < 1e-13
    # the value at a pole parameter vanishes
    assert abs(theta.evaluate(np.array([0.5]))[0, 0, 0]) < 1e-13


def test_pole_cap_enforced():
    with pytest.raises(ValueError):
        PotapovFactor(0.95, np.eye(1), np.eye(1))
    with pytest.raises(ValueError):
        scalar_blaschke([MAX_POLE_ABS + 0.01])


def test_frame_must_be_orthonormal():
    with pytest.raises(ValueError):
        PotapovFactor(0.2, 2.0 * np.eye(2), np.eye(2))


def test_tilde_and_conjugated_values():
    rng = np.random.default_rng(36)
    theta = random_inner(rng, 2, n_factors=2)
    zs = oracle.nodes(64)
    idx = (-np.arange(64)) % 64
    vals = oracle.theta_values(theta, zs)
    tilde = oracle.theta_values(theta.tilde(), zs)
    assert np.max(np.abs(tilde - np.conj(np.transpose(vals[idx], (0, 2, 1))))) < 1e-11
    w = random_unitary(rng, 2)
    conj = Conjugation(w @ w.T)
    via = oracle.theta_values(theta.conjugated(conj), zs)
    expect = conj.U[None] @ np.conj(vals[idx]) @ np.conj(conj.U)[None]
    assert np.max(np.abs(via - expect)) < 1e-11


def test_transported_product():
    rng = np.random.default_rng(37)
    theta = random_inner(rng, 2)
    v = random_unitary(rng, 2)
    zs = oracle.nodes(32)
    moved = oracle.theta_values(theta.transported(v), zs)
    base = oracle.theta_values(theta, zs)
    assert np.max(np.abs(moved - v[None] @ base @ np.conj(v.T)[None])) < 1e-12


def test_random_symmetric_inner_is_j_symmetric():
    rng = np.random.default_rng(38)
    theta, conj = random_symmetric_inner(rng, 2)
    report = validate(theta)
    assert report.inner and report.pure
    assert oracle.jsymmetry_defect(theta.laurent(64), conj) < 1e-10


def test_crofoot_theta_is_inner_and_pure():
    rng = np.random.default_rng(39)
    theta = random_inner(rng, 2)
    cro = CrofootData(0.4 * random_unitary(rng, 2))
    series = crofoot_theta(theta, cro, 64)
    zs = oracle.nodes(256)
    vals = oracle.sample_series(series, 256)
    defect = np.max(np.linalg.norm(
        vals @ np.conj(np.transpose(vals, (0, 2, 1))) - np.eye(2), axis=(1, 2)))
    # the unitarity gap of the window is covered by the certified tail
    assert series.tail_bound < 1e-5
    assert defect < 3.0 * series.tail_bound + 1e-10
    assert np.linalg.norm(series.coeff(0), 2) < 1.0 - 1e-10
    # W = 0 leaves the function unchanged
    zero = crofoot_theta(theta, CrofootData(np.zeros((2, 2))), 48)
    assert zero.allclose(theta.laurent(48), tol=1e-10)


def test_json_roundtrip():
    rng = np.random.default_rng(40)
    theta = random_inner(rng, 2, n_factors=2)
    back = BlaschkePotapovProduct.from_json(theta.to_json())
    zs = oracle.nodes(32)
    assert np.max(np.abs(oracle.theta_values(theta, zs)
                         - oracle.theta_values(back, zs))) < 1e-13
    with pytest.raises(ScenarioError):
        BlaschkePotapovProduct.from_json({"factors": []})
    with pytest.raises(ScenarioError):
        PotapovFactor.from_json({"a": [0.0, 0.0], "frame": [[[2.0, 0.0]]],
                                 "post_unitary": [[[1.0, 0.0]]]})
