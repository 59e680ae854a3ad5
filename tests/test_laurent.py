"""Coefficient-window arithmetic against the sampled-values path."""

import numpy as np
import pytest

from matholab import (
    Laurent,
    MatrixLaurent,
    ModelSpace,
    ScenarioError,
    build_matho,
    build_matto,
    evaluate_many,
    inner_product,
    refit_on_circle,
)
from matholab.sampling import random_inner, random_symbol

import oracle


def _random_vector_series(rng, dim, order):
    coeffs = rng.standard_normal((2 * order + 1, dim)) + 1j * rng.standard_normal((2 * order + 1, dim))
    return Laurent(coeffs, order)


def _random_matrix_series(rng, dim, order):
    shape = (2 * order + 1, dim, dim)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return MatrixLaurent(coeffs, order)


def test_coeff_and_support():
    f = Laurent.from_coeff_map({-2: [1.0, 0.0], 3: [0.0, 2.0]}, 2)
    assert f.order == 3
    assert f.support() == (-2, 3)
    assert f.coeff(-2)[0] == 1.0
    assert f.coeff(0)[0] == 0.0
    assert np.all(f.coeff(7) == 0.0)


def test_trim_drops_zero_margins():
    f = Laurent.from_coeff_map({1: [1.0]}, 1).with_order(6)
    g = f.trim()
    assert g.order == 1
    assert g.allclose(f)


def test_linear_ops_match_values():
    rng = np.random.default_rng(11)
    f = _random_vector_series(rng, 2, 4)
    g = _random_vector_series(rng, 2, 6)
    zs = oracle.nodes(64)
    lhs = oracle.sample_series(f + g.scale(2.0 - 1j) - (-f), 64)
    rhs = 2 * oracle.sample_series(f, 64) + (2.0 - 1j) * oracle.sample_series(g, 64)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert len(zs) == 64


def test_mul_is_pointwise_product():
    rng = np.random.default_rng(12)
    a = _random_matrix_series(rng, 3, 3)
    f = _random_vector_series(rng, 3, 4)
    b = _random_matrix_series(rng, 3, 2)
    zs = oracle.nodes(128)
    a_vals = oracle.sample_series(a, 128)
    assert np.max(np.abs(oracle.sample_series(a.mul(f), 128)
                         - oracle.multiply(a_vals, oracle.sample_series(f, 128)))) < 1e-10
    prod = a.mul(b)
    direct = a_vals @ oracle.sample_series(b, 128)
    assert np.max(np.abs(oracle.sample_series(prod, 128) - direct)) < 1e-10
    assert prod.order == a.order + b.order
    assert len(zs) == 128


def test_shift_and_reflect_values():
    rng = np.random.default_rng(13)
    f = _random_vector_series(rng, 2, 5)
    zs = oracle.nodes(64)
    shifted = oracle.sample_series(f.shift(3), 64)
    assert np.max(np.abs(shifted - zs[:, None] ** 3 * oracle.sample_series(f, 64))) < 1e-12
    # reflect_z swaps z for conj(z) on the circle
    refl = oracle.sample_series(f.reflect_z(), 64)
    idx = (-np.arange(64)) % 64
    assert np.max(np.abs(refl - oracle.sample_series(f, 64)[idx])) < 1e-12


def test_flip_matches_value_formula():
    rng = np.random.default_rng(14)
    f = _random_vector_series(rng, 2, 5)
    flipped = oracle.sample_series(f.flip(), 64)
    expected = oracle.flip_values(oracle.sample_series(f, 64), oracle.nodes(64))
    assert np.max(np.abs(flipped - expected)) < 1e-12


def test_flip_is_an_involution_and_isometry():
    rng = np.random.default_rng(15)
    f = _random_vector_series(rng, 3, 6)
    assert f.flip().flip().allclose(f, tol=1e-13)
    assert abs(f.flip().norm() - f.norm()) < 1e-13


def test_conj_coeffs_values():
    rng = np.random.default_rng(16)
    f = _random_vector_series(rng, 2, 4)
    vals = oracle.sample_series(f.conj_coeffs(), 64)
    idx = (-np.arange(64)) % 64
    assert np.max(np.abs(vals - np.conj(oracle.sample_series(f, 64)[idx]))) < 1e-12


def test_adjoint_star_and_tilde_values():
    rng = np.random.default_rng(17)
    a = _random_matrix_series(rng, 2, 4)
    vals = oracle.sample_series(a, 64)
    adj = oracle.sample_series(a.adjoint_star(), 64)
    assert np.max(np.abs(adj - np.conj(np.transpose(vals, (0, 2, 1))))) < 1e-12
    idx = (-np.arange(64)) % 64
    tilde = oracle.sample_series(a.tilde(), 64)
    assert np.max(np.abs(tilde - np.conj(np.transpose(vals[idx], (0, 2, 1))))) < 1e-12


def test_norm_is_parseval():
    rng = np.random.default_rng(19)
    f = _random_vector_series(rng, 3, 5)
    vals = oracle.sample_series(f, 256)
    quad = np.sqrt(np.real(oracle.inner(vals, vals)))
    assert abs(f.norm() - quad) < 1e-11
    g = _random_vector_series(rng, 3, 3)
    pair = oracle.inner(vals, oracle.sample_series(g, 256))
    assert abs(inner_product(f, g) - pair) < 1e-11


def test_evaluate_on_and_inside_circle():
    rng = np.random.default_rng(20)
    f = _random_vector_series(rng, 2, 4)
    z0 = np.exp(0.7j)
    direct = sum(f.coeff(n) * z0 ** n for n in range(-4, 5))
    assert np.max(np.abs(f.evaluate(z0) - direct)) < 1e-12
    plus, _ = oracle.riesz_split(f)
    inside = sum(plus.coeff(n) * 0.3 ** n for n in range(0, 5))
    assert np.max(np.abs(plus.evaluate(0.3) - inside)) < 1e-12
    assert np.max(np.abs(plus.evaluate(0.0) - plus.coeff(0))) == 0.0
    with pytest.raises(ValueError):
        f.evaluate(0.5)  # anti-analytic part present


def test_truncate_moves_mass_to_tail():
    rng = np.random.default_rng(21)
    f = _random_vector_series(rng, 2, 6)
    g = f.truncate(3)
    dropped = np.sqrt(sum(np.sum(np.abs(f.coeff(n)) ** 2)
                          for n in range(-6, 7) if abs(n) > 3))
    assert g.order == 3
    assert abs(g.tail_bound - dropped) < 1e-12


def test_sup_bound_certifies_samples():
    rng = np.random.default_rng(22)
    a = _random_matrix_series(rng, 2, 4)
    vals = oracle.sample_series(a, 128)
    top = np.max(np.linalg.norm(vals, ord=2, axis=(1, 2)))
    assert top <= a.sup_bound() + 1e-12


def test_monomial_and_constant():
    e = MatrixLaurent.monomial(-2, np.eye(2))
    assert e.support() == (-2, -2)
    c = MatrixLaurent.constant([[1.0, 2.0], [3.0, 4.0]])
    assert c.order == 0
    assert c.mul(e).support() == (-2, -2)


def test_json_roundtrip():
    rng = np.random.default_rng(23)
    for make in (_random_vector_series, _random_matrix_series):
        f = make(rng, 2, 3)
        g = type(f).from_json(f.to_json())
        assert g.allclose(f, tol=0.0)
        assert g.order == f.order


def test_json_rejects_bad_payloads():
    with pytest.raises(ScenarioError):
        Laurent.from_json({"coeffs": {}})
    with pytest.raises(ScenarioError):
        Laurent.from_json({"dim": 1, "coeffs": {"x": [[1, 0]]}})
    with pytest.raises(ScenarioError):
        Laurent.from_json({"dim": 1, "coeffs": {"0": [[1, 0]]}, "trunc_order": -1})
    with pytest.raises(ScenarioError):
        MatrixLaurent.from_json({"dim": 2, "coeffs": {"0": [[[1, 0]]]}})


def test_refit_on_circle_recovers_window():
    rng = np.random.default_rng(24)
    f = _random_matrix_series(rng, 2, 5)
    g = refit_on_circle(lambda zs: evaluate_many(f, zs), 5)
    assert g.allclose(f, tol=1e-11)


def test_linearity_of_window_sum():
    # mul distributes over + exactly on polynomial coefficients
    a = MatrixLaurent.from_coeff_map({0: [[1.0]], 2: [[0.5]]}, 1)
    f = Laurent.from_coeff_map({-1: [2.0]}, 1)
    g = Laurent.from_coeff_map({1: [1.0 + 1j]}, 1)
    assert a.mul(f + g).allclose(a.mul(f) + a.mul(g), tol=0.0)


def _naive_mul(f, g):
    """Reference convolution: every pair of window slots, one at a time."""
    order = f.order + g.order
    first = f.coeffs[0] @ g.coeffs[0]
    out = np.zeros((2 * order + 1,) + first.shape, dtype=complex)
    for i in range(2 * f.order + 1):
        for j in range(2 * g.order + 1):
            out[i + j] += f.coeffs[i] @ g.coeffs[j]
    return out, order


def _integer_series(rng, shape, order):
    full = (2 * order + 1,) + shape
    coeffs = rng.integers(-4, 5, full) + 1j * rng.integers(-4, 5, full)
    coeffs[rng.random(2 * order + 1) < 0.3] = 0.0  # some empty slots
    return Laurent(coeffs, order)


def _gaussian_series(rng, shape, order):
    full = (2 * order + 1,) + shape
    return Laurent(rng.standard_normal(full) + 1j * rng.standard_normal(full), order)


def _check_mul(f, g, rel):
    want, order = _naive_mul(f, g)
    got = f.mul(g).with_order(order).coeffs
    if rel == 0.0:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_mul_matches_naive_convolution():
    # vector, square and (d, k) values, both loop directions (short side left or right)
    rng = np.random.default_rng(25)
    for shape in ((3,), (3, 3), (3, 4)):
        for orders in ((1, 6), (6, 1), (4, 4)):
            _check_mul(_integer_series(rng, (2, 3), orders[0]),
                       _integer_series(rng, shape, orders[1]), 0.0)
            _check_mul(_gaussian_series(rng, (2, 3), orders[0]),
                       _gaussian_series(rng, shape, orders[1]), 1e-14)


def test_mul_keeps_exact_zeros():
    rng = np.random.default_rng(26)
    analytic = oracle.riesz_split(_random_vector_series(rng, 2, 5))[0]
    for n in (0, 2, 7):
        prod = MatrixLaurent.monomial(n, rng.standard_normal((2, 2))).mul(analytic)
        assert prod.is_analytic(tol=0.0)
        assert prod.trim().support() == (n, n + 5)
        assert prod.trim().order == n + 5


def _per_basis_matrix(space1, space2, image):
    """Reference: one basis function at a time, paired by inner_product."""
    cols = [[inner_product(image(b), c) for c in oracle.basis_columns(space2)]
            for b in oracle.basis_columns(space1)]
    return np.array(cols).T


def test_batched_builds_match_per_basis_loop():
    rng = np.random.default_rng(27)
    s1 = ModelSpace.from_product(random_inner(rng, 2, n_factors=2, max_abs=0.6), 32)
    s2 = ModelSpace.from_product(random_inner(rng, 2, n_factors=3, max_abs=0.6), 32)
    phi = random_symbol(rng, 2)
    want = _per_basis_matrix(s1, s2, phi.mul)
    assert np.max(np.abs(build_matto(s1, s2, phi).matrix - want)) < 1e-14
    want = _per_basis_matrix(s1, s2, lambda b: oracle.riesz_split(phi.mul(b))[1].flip())
    assert np.max(np.abs(build_matho(s1, s2, phi).matrix - want)) < 1e-14
    # coords of a (d x k)-valued series: one column of coordinates per column
    f = Laurent(rng.standard_normal((41, 2, 3)) + 1j * rng.standard_normal((41, 2, 3)), 20)
    loop = np.stack([[inner_product(Laurent(f.coeffs[:, :, j], 20), b)
                      for b in oracle.basis_columns(s2)] for j in range(3)], axis=1)
    assert np.max(np.abs(s2.coords(f) - loop)) < 1e-14
