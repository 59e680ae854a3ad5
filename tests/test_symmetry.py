"""Conjugations and the unitary maps between model spaces."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matholab import (
    BlaschkePotapovProduct,
    Conjugation,
    CrofootData,
    CTheta,
    ModelSpace,
    PotapovFactor,
    crofoot_map,
    crofoot_realization,
    crofoot_theta,
    jstar,
    realization_jsymmetry_defect,
    sandwich_pointwise,
    sandwich_reflected,
    tau,
    verify_transform,
)
from matholab.blaschke import state_window
from matholab.conjugations import _coefficient_gap
from matholab.laurent import Laurent
from matholab.operators import _JSYM_TOL, TransformInputs, _commutator_defect
from matholab.sampling import random_inner, random_symbol, random_symmetric_inner, random_unitary

import oracle


def _random_member(space, rng):
    c = rng.standard_normal(space.dim_K) + 1j * rng.standard_normal(space.dim_K)
    return space.from_coords(c)


def test_conjugation_is_an_involution():
    rng = np.random.default_rng(61)
    w = random_unitary(rng, 3)
    conj = Conjugation(w @ w.T)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.max(np.abs(conj.apply(conj.apply(x)) - x)) < 1e-12
    assert np.max(np.abs(Conjugation.identity(3).apply(x) - np.conj(x))) < 1e-15


def test_conjugation_rejects_asymmetric_unitary():
    rng = np.random.default_rng(62)
    u = random_unitary(rng, 2)
    if np.max(np.abs(u - u.T)) > 1e-6:
        with pytest.raises(ValueError):
            Conjugation(u)
    with pytest.raises(ValueError):
        Conjugation(2.0 * np.eye(2))


def test_jstar_is_antilinear_isometry():
    rng = np.random.default_rng(63)
    w = random_unitary(rng, 2)
    conj = Conjugation(w @ w.T)
    coeffs = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    f = Laurent(coeffs, 4)
    jf = jstar(conj, f)
    assert abs(jf.norm() - f.norm()) < 1e-12
    scaled = jstar(conj, f.scale(2.0 + 1j))
    assert scaled.allclose(jf.scale(np.conj(2.0 + 1j)), tol=1e-12)
    assert jstar(conj, jf).allclose(f, tol=1e-12)


def test_jstar_maps_model_space_to_conjugated_space():
    rng = np.random.default_rng(64)
    theta = random_inner(rng, 2, max_abs=0.5)
    w = random_unitary(rng, 2)
    conj = Conjugation(w @ w.T)
    space = ModelSpace.from_product(theta, 64)
    target = ModelSpace.from_product(theta.conjugated(conj), 64)
    f = _random_member(space, rng)
    image = jstar(conj, f)
    assert target.membership_gap(image) < 1e-8


def test_tau_is_unitary_onto_tilde_space():
    rng = np.random.default_rng(65)
    theta = random_inner(rng, 2, max_abs=0.5)
    space = ModelSpace.from_product(theta, 64)
    target = ModelSpace.from_product(theta.tilde(), 64)
    for _ in range(3):
        f = _random_member(space, rng)
        g = _random_member(space, rng)
        tf, tg = tau(space.theta_series, f), tau(space.theta_series, g)
        assert target.membership_gap(tf) < 1e-8
        lhs = complex(np.vdot(target.coords(tg), target.coords(tf)))
        rhs = complex(np.vdot(space.coords(g), space.coords(f)))
        assert abs(lhs - rhs) < 1e-9


def test_tau_of_tilde_inverts_tau():
    rng = np.random.default_rng(66)
    theta = random_inner(rng, 2, max_abs=0.4)
    space = ModelSpace.from_product(theta, 64)
    tilde_series = theta.tilde().laurent(64)
    f = _random_member(space, rng)
    back = tau(tilde_series, tau(space.theta_series, f))
    assert space.membership_gap(back) < 1e-8
    gap = (back - f.with_order(back.order)).norm()
    assert gap < 1e-8


def test_ctheta_is_involution_for_symmetric_theta():
    rng = np.random.default_rng(67)
    theta, conj = random_symmetric_inner(rng, 2, max_abs=0.5)
    space = ModelSpace.from_product(theta, 64)
    c = CTheta(space.theta_series, conj)
    f = _random_member(space, rng)
    image = c.apply(f)
    assert space.membership_gap(image) < 1e-7
    twice = c.apply(space.project(image))
    assert (space.project(twice) - f.with_order(twice.order)).norm() < 1e-7
    assert abs(image.norm() - f.norm()) < 1e-7


def test_jsymmetry_defect_detects_asymmetry():
    rng = np.random.default_rng(68)
    theta, conj = random_symmetric_inner(rng, 2)
    assert oracle.jsymmetry_defect(theta.laurent(64), conj) < 1e-9
    assert realization_jsymmetry_defect(theta.realization(), 64, conj) < 1e-13
    plain = random_inner(rng, 2)
    assert oracle.jsymmetry_defect(plain.laurent(64), Conjugation.identity(2)) > 1e-3
    assert realization_jsymmetry_defect(plain.realization(), 64, Conjugation.identity(2)) > 1e-3


@settings(max_examples=60)
@example(symmetric=True, dim=3, n_factors=4, max_abs=0.9, order=8, seed=0)
@example(symmetric=False, dim=3, n_factors=4, max_abs=0.9, order=64, seed=0)
@given(symmetric=st.booleans(), dim=st.integers(1, 3), n_factors=st.integers(1, 4),
       max_abs=st.floats(0.0, 0.9), order=st.integers(8, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_coefficient_jsymmetry_gate_matches_sampled_reference(symmetric, dim, n_factors,
                                                              max_abs, order, seed):
    # the coefficient sum over t_0 .. t_max(M, 2n) against the 64-node sampled defect
    rng = np.random.default_rng(seed)
    theta, conj = random_symmetric_inner(rng, dim, n_poles=n_factors, max_abs=max_abs)
    if not symmetric:
        theta = random_inner(rng, dim, n_factors=n_factors, max_abs=max_abs)
    window = theta.laurent(order)
    exact = realization_jsymmetry_defect(theta.realization(), order, conj)
    reference = oracle.jsymmetry_defect(window, conj)
    if symmetric:
        assert exact <= 1e-13
    assert (exact > _JSYM_TOL) == (reference > _JSYM_TOL)


@settings(max_examples=60)
@example(dim=3, n_factors=4, max_abs=0.9, order=8, log_eps=-8.0, seed=0)
@given(dim=st.integers(2, 3), n_factors=st.integers(1, 4), max_abs=st.floats(0.0, 0.9),
       order=st.integers(8, 64), log_eps=st.floats(-10.0, -6.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coefficient_jsymmetry_gate_bounds_sampled_defect_near_tolerance(
        dim, n_factors, max_abs, order, log_eps, seed):
    # Theta V, with V = exp(i eps H) a constant unitary, is inner and misses
    # J-symmetry by O(eps); eps spans the gate's tolerance. The coefficient sum is
    # never below the sampled defect, so the gate admits no theta that sampling
    # the same window rejects.
    rng = np.random.default_rng(seed)
    theta, conj = random_symmetric_inner(rng, dim, n_poles=n_factors, max_abs=max_abs)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, q = np.linalg.eigh(h + h.conj().T)
    v = (q * np.exp(1j * 10 ** log_eps * w / np.abs(w).max())) @ q.conj().T
    a_mat, b_mat, c_mat, d_mat = theta.realization()
    window = theta.laurent(order)
    window = Laurent(window.coeffs @ v, window.order, window.tail_bound)
    exact = realization_jsymmetry_defect((a_mat, b_mat @ v, c_mat, d_mat @ v), order, conj)
    reference = oracle.jsymmetry_defect(window, conj)
    assert exact >= reference - 1e-14
    assert exact > _JSYM_TOL or reference <= _JSYM_TOL


# -- remark412's symbol hypotheses ---------------------------------------------------

def _j_symmetric_part(phi, conj):
    """(Phi + J Phi^* J) / 2 coefficientwise: Phi_n -> (Phi_n + U Phi_n^T U^*) / 2,
    a linear involution for symmetric U, whose fixed points are the J-symmetric symbols."""
    sym = conj.U @ np.swapaxes(phi.coeffs, 1, 2) @ conj.U.conj().T
    return Laurent((phi.coeffs + sym) / 2, phi.order)


@settings(max_examples=60)
@example(dim=3, log_eps=-8.0, seed=0)
@given(dim=st.integers(1, 3), log_eps=st.just(-np.inf) | st.floats(-10.0, -6.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_remark412_symbol_defect_bounds_the_sampled_defect(dim, log_eps, seed):
    # a J-symmetric symbol moved by eps off J-symmetry, eps spanning the
    # tolerance: the coefficient sum is never below the 64-node sampled value
    rng = np.random.default_rng(seed)
    _, conj = random_symmetric_inner(rng, dim)
    phi = _j_symmetric_part(random_symbol(rng, dim), conj)
    reference = oracle.jsymmetry_defect(phi, conj)
    assert reference <= 1e-13 and _coefficient_gap(phi.coeffs, conj) <= 1e-13
    phi = phi + random_symbol(rng, dim).with_order(phi.order).scale(10 ** log_eps)
    exact = _coefficient_gap(phi.coeffs, conj)
    assert exact >= oracle.jsymmetry_defect(phi, conj) - 1e-14


def _commuting_pair(rng, dim, v, n_poles=2, max_abs=0.9):
    """V diag(b_1 .. b_d) V* with scalar Blaschke products b_i, and a symbol
    V diag(phi_1 .. phi_d) V*: the two commute pointwise."""
    eye = np.eye(dim)
    factors = [PotapovFactor(max_abs * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
                             eye[:, [i]], eye)
               for i in range(dim) for _ in range(n_poles)]
    theta = BlaschkePotapovProduct(dim, None, factors).transported(v)
    diag = rng.standard_normal((7, dim)) + 1j * rng.standard_normal((7, dim))
    phi = Laurent(v @ (diag[:, :, None] * eye) @ v.conj().T, 3)
    return theta, phi


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_remark412_hypotheses_hold_for_a_commuting_j_symmetric_case(dim):
    # a real orthogonal V keeps both coefficient sequences symmetric, so both
    # are J-symmetric for J = conj; the scalar case is dim 1
    rng = np.random.default_rng([130, dim])
    orth = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    theta, phi = _commuting_pair(rng, dim, orth)
    conj, space = Conjugation.identity(dim), ModelSpace.from_product(theta, 32)
    assert _coefficient_gap(phi.coeffs, conj) <= 1e-13
    assert oracle.jsymmetry_defect(phi, conj) <= 1e-13
    assert _commutator_defect(space.realization, phi) <= 1e-13
    assert oracle.commutator_defect(theta, phi) <= 1e-13
    rep = verify_transform("remark412", TransformInputs(space, space, symbol=phi))
    assert rep.verdict == "accept" and rep.reason is None


@settings(max_examples=60)
@example(dim=3, n_factors=3, max_abs=0.9, order=8, commuting=False, seed=0)
@given(dim=st.integers(2, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.0, 0.9),
       order=st.integers(8, 64), commuting=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_remark412_commutator_check_agrees_with_sampling(dim, n_factors, max_abs, order,
                                                        commuting, seed):
    # a random matrix symbol, or one that commutes with Theta: the coefficients
    # at lags lo .. hi + 2n decide as the circle does
    rng = np.random.default_rng(seed)
    if commuting:
        theta, phi = _commuting_pair(rng, dim, random_unitary(rng, dim), n_factors, max_abs)
    else:
        theta = random_inner(rng, dim, n_factors=n_factors, max_abs=max_abs)
        phi = random_symbol(rng, dim)
    exact = _commutator_defect(ModelSpace.from_product(theta, order).realization, phi)
    reference = oracle.commutator_defect(theta, phi)
    if commuting:
        assert exact <= 1e-12 and reference <= 1e-12
    bound = _JSYM_TOL * (1.0 + phi.norm())
    assert (exact <= bound) == (reference <= bound)


def test_crofoot_map_is_unitary_with_inverse():
    rng = np.random.default_rng(69)
    theta = random_inner(rng, 2, max_abs=0.5)
    cro = CrofootData(0.35 * random_unitary(rng, 2))
    space = ModelSpace.from_product(theta, 64)
    image_series = crofoot_theta(theta, cro, 64)
    image = ModelSpace.from_realization(crofoot_realization(theta.realization(), cro), 64)
    f = _random_member(space, rng)
    jf = crofoot_map(space.theta_series, cro, f, "forward")
    assert abs(jf.norm() - f.norm()) < 1e-8
    assert image.membership_gap(jf) < 1e-7
    back = crofoot_map(image_series, cro, jf, "adjoint")
    assert (back - f.with_order(back.order)).norm() < 1e-7


def _crofoot_case(d):
    rng = np.random.default_rng(90 + d)
    theta = random_inner(rng, d)
    cro = CrofootData(0.35 * random_unitary(rng, d))
    return theta, cro, ModelSpace.from_product(theta, 64)


def _column(series, j):
    return Laurent(series.coeffs[:, :, j], series.order)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_crofoot_map_matches_per_column(d):
    theta, cro, space = _crofoot_case(d)
    image_series = crofoot_theta(theta, cro, 64)
    forward = crofoot_map(space.theta_series, cro, space.basis, "forward")
    adjoint = crofoot_map(image_series, cro, forward, "adjoint")
    for theta_series, stacked, direction, source in (
            (space.theta_series, forward, "forward", space.basis),
            (image_series, adjoint, "adjoint", forward)):
        assert stacked.coeffs.shape[2] == space.dim_K
        for j in range(space.dim_K):
            single = crofoot_map(theta_series, cro, _column(source, j), direction)
            order = max(single.order, stacked.order)
            gap = _column(stacked, j).with_order(order) - single.with_order(order)
            assert gap.norm() <= 1e-12, (direction, j)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_crofoot_map_matches_closed_form(d):
    theta, cro, space = _crofoot_case(d)
    mapped = crofoot_map(space.theta_series, cro, space.basis, "forward")
    zs = oracle.nodes()
    core = np.eye(d) - oracle.theta_values(theta, zs) @ cro.W.conj().T
    b_vals = oracle.sample_series(space.basis)
    want = cro.D_Wstar @ np.linalg.solve(core, b_vals)
    got = oracle.sample_series(mapped)
    for j in range(space.dim_K):
        err = got[:, :, j] - want[:, :, j]
        assert np.sqrt(oracle.inner(err, err).real) <= mapped.tail_bound + 1e-12, j


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_crofoot_image_matrix_matches_refit_map(d, order):
    # the forward Crofoot map is the identity in state coordinates: the
    # image's state basis is the refit map of the source's, even at short
    # windows, where neither basis is orthonormal on the window
    rng = np.random.default_rng(120 + d)
    theta = random_inner(rng, d, max_abs=0.8)
    cro = CrofootData(0.5 * random_unitary(rng, d))
    space = ModelSpace.from_product(theta, order)
    inputs = TransformInputs(space, space, crofoot1=cro, crofoot2=cro)
    image = inputs.crofoot_image(1)
    gram = image.coords(image.basis)
    assert np.max(np.abs(gram - np.eye(image.dim_K))) > 1e-6
    # the source state basis continued far past the window, mapped on the circle
    wide = 160
    basis = Laurent(state_window(theta.realization(), wide)[0], wide)
    mapped = crofoot_map(theta.laurent(wide), cro, basis, "forward").with_order(wide)
    want = mapped.coeffs[wide - order:wide + order + 1]
    assert np.max(np.abs(image.basis.coeffs - want)) <= 1e-10


def test_crofoot_data_validation():
    cro = CrofootData(np.zeros((2, 2)))
    assert np.linalg.norm(cro.D_W - np.eye(2)) < 1e-14
    with pytest.raises(ValueError):
        CrofootData(np.eye(2))
    with pytest.raises(ValueError):
        crofoot_map(None, cro, None, direction="sideways")


def test_sandwich_values():
    rng = np.random.default_rng(70)
    w1, w2 = random_unitary(rng, 2), random_unitary(rng, 2)
    j1, j2 = Conjugation(w1 @ w1.T), Conjugation(w2 @ w2.T)
    coeffs = rng.standard_normal((7, 2, 2)) + 1j * rng.standard_normal((7, 2, 2))
    from matholab import MatrixLaurent

    f = MatrixLaurent(coeffs, 3)
    zs = oracle.nodes(64)
    fv = oracle.sample_series(f, 64)
    point = oracle.sample_series(sandwich_pointwise(j2, f, j1), 64)
    want = j2.U[None] @ np.conj(fv) @ np.conj(j1.U)[None]
    assert np.max(np.abs(point - want)) < 1e-12
    refl = oracle.sample_series(sandwich_reflected(j2, f, j1), 64)
    idx = (-np.arange(64)) % 64
    want_r = j2.U[None] @ np.conj(fv[idx]) @ np.conj(j1.U)[None]
    assert np.max(np.abs(refl - want_r)) < 1e-12
    assert len(zs) == 64


def test_jstar_acts_columnwise():
    # a (d x k)-valued series is k vector functions side by side
    rng = np.random.default_rng(71)
    w = random_unitary(rng, 2)
    conj = Conjugation(w @ w.T)
    coeffs = rng.standard_normal((7, 2, 3)) + 1j * rng.standard_normal((7, 2, 3))
    stacked = jstar(conj, Laurent(coeffs, 3))
    assert stacked.coeffs.shape == (7, 2, 3)
    for j in range(3):
        column = jstar(conj, Laurent(coeffs[:, :, j], 3))
        assert np.max(np.abs(stacked.coeffs[:, :, j] - column.coeffs)) < 1e-15
