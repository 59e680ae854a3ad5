"""Model space bases, projections, kernels, shifts, defects."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matholab import (
    Conjugation,
    CrofootData,
    Laurent,
    MatrixLaurent,
    ModelSpace,
    crofoot_realization,
    diagonal_monomial,
    kernel_test,
    random_modifier,
    scalar_blaschke,
)
from matholab.blaschke import state_window
from matholab.jsonio import matrix_from_json
from matholab.sampling import random_inner

import oracle


def _space(rng_seed=0, dim=2, order=64):
    rng = np.random.default_rng(rng_seed)
    theta = random_inner(rng, dim, n_factors=2, max_abs=0.5)
    return ModelSpace.from_product(theta, order), theta


def test_dim_matches_factor_count():
    assert ModelSpace.from_product(diagonal_monomial([1, 2]), 16).dim_K == 3
    assert ModelSpace.from_product(scalar_blaschke([0.1, -0.2, 0.3j]), 48).dim_K == 3
    space, theta = _space(1)
    assert space.dim_K == theta.model_dim()


def test_space_keeps_the_requested_window():
    # a pole at 0 makes short series; the space must not shrink its window to them
    for theta in (diagonal_monomial([1]), diagonal_monomial([1, 1]),
                  diagonal_monomial([2]), scalar_blaschke([0.0])):
        space = ModelSpace.from_product(theta, 16)
        assert space.order == 16
        assert space.basis.order == 16
        assert space.describe()["trunc_order"] == 16


def test_kernel_test_inside_the_requested_window():
    # z^3 fits the window of 16 whatever the degree of Theta = z
    space = ModelSpace.from_product(diagonal_monomial([1]), 16)
    conj = Conjugation.identity(1)
    for family in ("toeplitz", "hankel"):
        res = kernel_test(MatrixLaurent.monomial(3, np.eye(1)), space, space, family, conj, conj)
        assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
    res = kernel_test(MatrixLaurent.monomial(0, np.eye(1)), space, space, "toeplitz")
    assert res["verdict"] == "not-in-kernel" and res["agreement"] == "confirmed"


def test_basis_orthonormal_by_quadrature():
    space, _ = _space(2)
    vals = [oracle.sample_series(b, oracle.N_GRID) for b in oracle.basis_columns(space)]
    for i, vi in enumerate(vals):
        for j, vj in enumerate(vals):
            got = oracle.inner(vi, vj)
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-9


def test_basis_lies_in_model_space():
    space, theta = _space(3)
    zs = oracle.nodes(oracle.N_GRID)
    tv = oracle.theta_values(theta, zs)
    for b in oracle.basis_columns(space):
        bv = oracle.sample_series(b, oracle.N_GRID)
        gap = bv - oracle.model_project(tv, bv)
        assert np.max(np.abs(gap)) < 1e-9


def test_projection_matches_quadrature():
    space, theta = _space(4)
    rng = np.random.default_rng(44)
    coeffs = rng.standard_normal((2 * 10 + 1, 2)) + 1j * rng.standard_normal((2 * 10 + 1, 2))
    f = Laurent(coeffs, 10)
    proj = oracle.project(space, f)
    zs = oracle.nodes(oracle.N_GRID)
    want = oracle.model_project(oracle.theta_values(theta, zs),
                                oracle.sample_series(f, oracle.N_GRID))
    assert np.max(np.abs(oracle.sample_series(proj, oracle.N_GRID) - want)) < 1e-8


def test_projection_is_idempotent_and_kills_theta_h2():
    space, theta = _space(5)
    rng = np.random.default_rng(45)
    coeffs = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    f = Laurent(coeffs, 4)
    once = oracle.project(space, f)
    assert oracle.membership_gap(space, once) < 1e-9
    # Theta times an analytic vector is orthogonal to the space
    g = space.theta_series.mul(oracle.riesz_split(f)[0])
    assert oracle.project(space, g).norm() < 1e-9


def _kernel(space, lam, x):
    # k_lam x = P_Theta (1 - conj(lam) z)^{-1} x from its state coordinates;
    # a d x k direction matrix gives the k kernels side by side
    x = np.asarray(x, dtype=complex)
    cols = x.reshape(space.dim, -1)
    coords = space.state_coords(cols, np.conj(lam) * np.eye(cols.shape[1]))
    return oracle.from_coords(space, coords.reshape((space.dim_K,) + x.shape[1:]))


def test_szego_kernel_norm():
    space = ModelSpace.from_product(scalar_blaschke([0.5]), 64)
    k = _kernel(space, 0.5, [1.0])
    vals = oracle.sample_series(k, oracle.N_GRID)
    assert abs(oracle.inner(vals, vals) - 4.0 / 3.0) < 1e-12


def test_kernel_reproduces_point_values():
    space, _ = _space(6)
    rng = np.random.default_rng(46)
    f = oracle.from_coords(space, rng.standard_normal(space.dim_K)
                           + 1j * rng.standard_normal(space.dim_K))
    lam = 0.3 - 0.2j
    for x in np.eye(2):
        k = _kernel(space, lam, x)
        assert oracle.membership_gap(space, k) < 1e-9
        pairing = oracle.inner(oracle.sample_series(f, oracle.N_GRID),
                               oracle.sample_series(k, oracle.N_GRID))
        point = f.evaluate(lam) @ np.conj(x)
        assert abs(pairing - point) < 1e-9


@settings(max_examples=30, deadline=None)
@example(dim=3, n_factors=3, max_abs=0.9, lam_abs=0.9, lam_arg=0.0, k=2, seed=0)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.0, 0.9),
       lam_abs=st.floats(0.0, 0.9), lam_arg=st.floats(-np.pi, np.pi), k=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_kernels_and_projection_match_the_series_formulas(dim, n_factors, max_abs, lam_abs,
                                                          lam_arg, k, seed):
    # the state-coordinate kernels, k_lam x from state_coords and ktilde_lam x
    # with the coordinates (I - lam A)^{-1} B x, and the projection against the
    # products with Theta's series, on a window whose basis tails are below rounding
    rng = np.random.default_rng(seed)
    theta = random_inner(rng, dim, n_factors=n_factors, max_abs=max_abs)
    space = oracle.exact_window(ModelSpace.from_product(theta, 32))
    order, lam = space.order, lam_abs * np.exp(1j * lam_arg)
    x = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    f = Laurent(rng.standard_normal((21, dim, k)) + 1j * rng.standard_normal((21, dim, k)), 10)
    a_mat, b_mat, _, _ = space.realization
    ktilde = oracle.from_coords(space, np.linalg.solve(np.eye(space.dim_K) - lam * a_mat,
                                                       b_mat @ x))
    for got, want in ((_kernel(space, lam, x), oracle.series_kernel(theta, order, lam, x, "k")),
                      (ktilde, oracle.series_kernel(theta, order, lam, x, "ktilde")),
                      (oracle.project(space, f), oracle.series_project(theta, order, f))):
        got = got.with_order(order).coeffs
        assert not got[:order].any()
        assert np.max(np.abs(got[order:] - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_compressed_shift_matches_quadrature():
    space, theta = _space(8)
    zs = oracle.nodes(oracle.N_GRID)
    tv = oracle.theta_values(theta, zs)
    bvals = [oracle.sample_series(b, oracle.N_GRID) for b in oracle.basis_columns(space)]
    for j, bj in enumerate(bvals):
        shifted = oracle.model_project(tv, zs[:, None] * bj)
        for i, bi in enumerate(bvals):
            assert abs(space.S[i, j] - oracle.inner(shifted, bi)) < 1e-8


def test_defect_operators_and_projections():
    space, _ = _space(9)
    eye = np.eye(space.dim_K)
    assert np.linalg.norm(space.D - (eye - space.S @ space.S.conj().T)) < 1e-12
    assert np.linalg.norm(space.D_tilde - (eye - space.S.conj().T @ space.S)) < 1e-12
    assert space.defect_dim == space.dim == space.defect_dim_tilde
    # the defect ranges are spanned by the k0 / ktilde0 coordinate columns
    assert np.linalg.norm(space.P_D @ space.k0_cols - space.k0_cols) < 1e-10
    assert np.linalg.norm(space.P_Dt @ space.kt0_cols - space.kt0_cols) < 1e-10
    for p in (space.P_D, space.P_Dt):
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12


def test_defect_matches_k0_gram():
    # D = I - S S^* acts as pairing against the k0 columns
    space, _ = _space(10)
    k0 = space.k0_cols
    d_alt = k0 @ np.linalg.pinv(k0.conj().T @ k0) @ k0.conj().T @ space.D
    assert np.linalg.norm(space.P_D @ space.D - space.D) < 1e-10
    assert np.linalg.norm(d_alt - space.D) < 1e-9


def test_modified_shift_rules():
    space, _ = _space(11)
    rng = np.random.default_rng(51)
    x = random_modifier(space, rng)
    s_mod = space.modified_shift(x)
    # the modification only changes the action on the tilde defect
    comp = np.eye(space.dim_K) - space.P_Dt
    assert np.linalg.norm((s_mod - space.S) @ comp) < 1e-12
    # a leaking modifier is rejected
    bad = np.eye(space.dim_K)
    if np.linalg.norm((np.eye(space.dim_K) - space.P_D) @ bad @ space.P_Dt) > 1e-6:
        with pytest.raises(ValueError):
            space.modified_shift(bad)
    with pytest.raises(ValueError):
        space.modified_shift(np.eye(space.dim_K + 1))


def test_realization_constructor_matches_from_product():
    # the Crofoot realization at W = 0 is Theta's own
    space, theta = _space(12)
    clone = ModelSpace.from_realization(
        crofoot_realization(theta.realization(), CrofootData(np.zeros((2, 2)))), space.order)
    assert clone.dim_K == space.dim_K
    assert np.linalg.norm(clone.S - space.S) < 1e-14
    assert np.linalg.norm(clone.D - space.D) < 1e-14
    assert np.max(np.abs(clone.basis.coeffs - space.basis.coeffs)) < 1e-14


def test_coords_roundtrip():
    space, _ = _space(13)
    rng = np.random.default_rng(53)
    c = rng.standard_normal(space.dim_K) + 1j * rng.standard_normal(space.dim_K)
    f = oracle.from_coords(space, c)
    assert np.max(np.abs(space.coords(f) - c)) < 1e-10
    assert oracle.membership_gap(space, f) < 1e-10


def test_describe_is_json_ready():
    space, _ = _space(14)
    doc = space.describe()
    text = json.dumps(doc)
    assert '"dim_K"' in text
    for key in ("dim", "trunc_order", "defect_dim", "defect_dim_tilde", "S",
                "realization", "tails"):
        assert key in doc


@example(dim=3, n_factors=4, max_abs=0.9, order=8, seed=0)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 4), max_abs=st.floats(0.0, 0.9),
       order=st.integers(8, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_describe_rebuilds_the_basis(dim, n_factors, max_abs, order, seed):
    # the report carries the realization instead of the window: the basis is
    # state_window(realization, trunc_order)[0]
    theta = random_inner(np.random.default_rng(seed), dim, n_factors=n_factors, max_abs=max_abs)
    space = ModelSpace.from_product(theta, order)
    doc = json.loads(json.dumps(space.describe()))
    realization = [matrix_from_json(doc["realization"][k], k) for k in "ABCD"]
    basis = state_window(realization, doc["trunc_order"])[0]
    for i, b in enumerate(oracle.basis_columns(space)):
        assert np.max(np.abs(basis[:, :, i] - b.coeffs)) <= 1e-13
    assert doc["tails"] == space.tails.tolist()


def test_purity_required():
    from matholab import BlaschkePotapovProduct

    flat = BlaschkePotapovProduct(2, np.eye(2), [])
    with pytest.raises(ValueError):
        ModelSpace.from_product(flat, 16)
