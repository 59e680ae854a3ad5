"""Operator builds, membership checks, recovery, kernels, and the registry."""

import numpy as np
import pytest

from matholab import (
    Check,
    Conjugation,
    CrofootData,
    MatrixLaurent,
    ModelOperator,
    ModelSpace,
    REGISTRY_NAMES,
    TransformInputs,
    Laurent,
    build_matho,
    build_matto,
    diagonal_monomial,
    displacement_check,
    kernel_test,
    random_modifier,
    recover_symbol,
    shift_invariance_check,
    tau,
    verify_transform,
)
from matholab.sampling import random_inner, random_symbol, random_symmetric_inner

import oracle

DISPLACEMENT_TOEPLITZ = ("T1", "T2", "T3", "T4")
DISPLACEMENT_HANKEL = ("H1", "H2", "H3", "H4")
MODIFIED_HANKEL = ("MH-a", "MH-b", "MH-c", "MH-d")


def _scalar_z2_pair(order=16):
    theta = diagonal_monomial([2])
    return (ModelSpace.from_product(theta, order),
            ModelSpace.from_product(theta, order))


def _scalar_symbol(entries, order=None):
    return MatrixLaurent.from_coeff_map({n: [[c]] for n, c in entries.items()}, 1)


def test_golden_matrices():
    s1, s2 = _scalar_z2_pair()
    cases = [
        (build_matto, {1: 1.0}, [[0.0, 0.0], [1.0, 0.0]]),
        (build_matho, {-1: 1.0}, [[1.0, 0.0], [0.0, 0.0]]),
        (build_matho, {-2: 1.0}, [[0.0, 1.0], [1.0, 0.0]]),
        (build_matho, {-3: 1.0}, [[0.0, 0.0], [0.0, 1.0]]),
    ]
    for build, entries, want in cases:
        op = build(s1, s2, _scalar_symbol(entries))
        assert np.max(np.abs(op.matrix - np.array(want))) < 1e-12


def test_build_is_linear_on_polynomials():
    s1, s2 = _scalar_z2_pair()
    f = _scalar_symbol({-1: 0.5, 1: 2.0})
    g = _scalar_symbol({0: 1.0 - 1j, -2: 3.0})
    for build in (build_matto, build_matho):
        lhs = build(s1, s2, (f + g).trim()).matrix
        rhs = build(s1, s2, f).matrix + build(s1, s2, g).matrix
        assert np.array_equal(lhs, rhs)


def test_symbol_dimension_checked():
    s1, s2 = _scalar_z2_pair()
    with pytest.raises(ValueError):
        build_matto(s1, s2, MatrixLaurent.identity(2))
    with pytest.raises(ValueError):
        ModelOperator(s1, s2, np.zeros((3, 2)))


def _random_instance(seed, dim=2, symmetric=False, order=64):
    rng = np.random.default_rng(seed)
    if symmetric:
        theta1, conj1 = random_symmetric_inner(rng, dim, max_abs=0.5)
        theta2, conj2 = random_symmetric_inner(rng, dim, max_abs=0.5)
    else:
        theta1 = random_inner(rng, dim, max_abs=0.5)
        theta2 = random_inner(rng, dim, max_abs=0.5)
        conj1 = conj2 = None
    s1 = ModelSpace.from_product(theta1, order)
    s2 = ModelSpace.from_product(theta2, order)
    phi = random_symbol(rng, dim)
    return rng, s1, s2, phi, conj1, conj2


def test_built_operators_pass_every_kind():
    rng, s1, s2, phi, _, _ = _random_instance(71)
    matto = build_matto(s1, s2, phi)
    matho = build_matho(s1, s2, phi)
    for kind in DISPLACEMENT_TOEPLITZ:
        rep = displacement_check(matto, kind)
        assert rep.accepted(), (kind, rep.residual)
    for kind in DISPLACEMENT_HANKEL:
        rep = displacement_check(matho, kind)
        assert rep.accepted(), (kind, rep.residual)
    m1, m2 = random_modifier(s1, rng), random_modifier(s2, rng)
    assert displacement_check(matto, "MT", modifier1=m1, modifier2=m2).accepted()
    for kind in MODIFIED_HANKEL:
        rep = displacement_check(matho, kind, modifier1=m1, modifier2=m2)
        assert rep.accepted(), (kind, rep.residual)
    for kind in "abcd":
        assert shift_invariance_check(matto, "toeplitz", kind).accepted()
        assert shift_invariance_check(matho, "hankel", kind).accepted()


def test_displacement_errors():
    s1, s2 = _scalar_z2_pair()
    op = build_matto(s1, s2, _scalar_symbol({1: 1.0}))
    with pytest.raises(ValueError):
        displacement_check(op, "Z9")
    with pytest.raises(ValueError):
        displacement_check(op, "MT")  # modifiers missing
    with pytest.raises(ValueError):
        shift_invariance_check(op, "toeplitz", "e")


def test_jordan_block_rejected_with_unit_residual():
    s1, s2 = _scalar_z2_pair()
    bad = ModelOperator(s1, s2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    for kind in ("H1", "H2", "H3", "H4"):
        rep = displacement_check(bad, kind)
        assert not rep.accepted()
    rep = displacement_check(bad, "H1")
    assert abs(rep.residual - 1.0) < 1e-12
    assert not shift_invariance_check(bad, "hankel", "a").accepted()


def test_verdicts_agree_across_characterizations():
    # same verdict from all four displacement kinds and all four
    # invariance kinds, on members and on perturbed non-members
    rng, s1, s2, phi, _, _ = _random_instance(72)
    matho = build_matho(s1, s2, phi)
    noise = rng.standard_normal(matho.matrix.shape)
    bad = ModelOperator(s1, s2, matho.matrix + 0.1 * noise)
    for op, expect in ((matho, True), (bad, False)):
        verdicts = [displacement_check(op, k).accepted() for k in DISPLACEMENT_HANKEL]
        verdicts += [shift_invariance_check(op, "hankel", k).accepted() for k in "abcd"]
        assert all(v == expect for v in verdicts), verdicts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_invariance_residual_is_the_paper_predicate(d):
    # the residual read off the displacement table equals the paper's form
    # <lhs f, g> = <rhs f, g> exactly: built toeplitz, built hankel and
    # Gaussian operators, ten random space pairs per dimension
    for seed in range(10):
        rng = np.random.default_rng(1000 * d + seed)
        s1 = ModelSpace.from_product(random_inner(rng, d, max_abs=0.7), 24)
        s2 = ModelSpace.from_product(random_inner(rng, d, max_abs=0.7), 24)
        phi = random_symbol(rng, d)
        shape = (s2.dim_K, s1.dim_K)
        gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for op in (build_matto(s1, s2, phi), build_matho(s1, s2, phi),
                   ModelOperator(s1, s2, gauss)):
            for family, kind in oracle.INVARIANCE_PREDICATES:
                rep = shift_invariance_check(op, family, kind)
                assert rep.residual == oracle.invariance_residual(op, family, kind), \
                    (seed, family, kind)


def test_toeplitz_recovery_roundtrip():
    for seed in (73, 74):
        _, s1, s2, phi, _, _ = _random_instance(seed)
        op = build_matto(s1, s2, phi)
        psi, resid = recover_symbol(op, "toeplitz")
        assert resid < 1e-10
        rebuilt = build_matto(s1, s2, psi)
        assert np.linalg.norm(rebuilt.matrix - op.matrix) < 1e-10


def test_hankel_recovery_roundtrip():
    for seed in (75, 76):
        _, s1, s2, phi, _, _ = _random_instance(seed, symmetric=True)
        op = build_matho(s1, s2, phi)
        psi, resid = recover_symbol(op, "hankel")
        assert resid < 1e-9
        rebuilt = build_matho(s1, s2, psi)
        assert np.linalg.norm(rebuilt.matrix - op.matrix) < 1e-9


def test_recovery_requires_membership():
    s1, s2 = _scalar_z2_pair()
    # the jordan block is a fine toeplitz (constant diagonals) but no hankel
    jordan = ModelOperator(s1, s2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        recover_symbol(jordan, "hankel")
    psi, resid = recover_symbol(jordan, "toeplitz")
    assert resid < 1e-12
    # diag(1, 0) has unequal diagonal entries, so it fails T1
    diag = ModelOperator(s1, s2, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        recover_symbol(diag, "toeplitz")


def test_hankel_recovery_without_j_symmetry():
    # random_inner thetas are not J-symmetric; recovery needs no conjugation
    _, s1, s2, phi, _, _ = _random_instance(77)
    op = build_matho(s1, s2, phi)
    psi, resid = recover_symbol(op, "hankel")
    assert resid < 1e-9
    assert np.linalg.norm(build_matho(s1, s2, psi).matrix - op.matrix) < 1e-9


def test_zero_operator_recovers_kernel_symbol():
    s1, s2 = _scalar_z2_pair()
    zero = ModelOperator(s1, s2, np.zeros((2, 2)))
    psi, resid = recover_symbol(zero, "toeplitz")
    assert resid < 1e-12
    assert np.linalg.norm(build_matto(s1, s2, psi).matrix) < 1e-12


def test_kernel_examples_scalar():
    s1, s2 = _scalar_z2_pair()
    conj = Conjugation.identity(1)
    res = kernel_test(_scalar_symbol({2: 1.0}), s1, s2, "toeplitz")
    assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
    res = kernel_test(_scalar_symbol({-4: 1.0}), s1, s2, "hankel", conj, conj)
    assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
    res = kernel_test(_scalar_symbol({-2: 1.0}), s1, s2, "hankel", conj, conj)
    assert res["verdict"] == "not-in-kernel"
    assert res["agreement"] == "confirmed"
    assert abs(res["matrix_norm"] - np.sqrt(2.0)) < 1e-12
    res = kernel_test(_scalar_symbol({-2: 1.0}), s1, s2, "toeplitz")
    assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"


def test_kernel_window_guards():
    theta = diagonal_monomial([2])
    s1 = ModelSpace.from_product(theta, 8)
    s2 = ModelSpace.from_product(theta, 8)
    # no window bounds the symbol: z^-9 lies in (z^2 H^2)^*, past lag -8
    res = kernel_test(_scalar_symbol({-9: 1.0}), s1, s2, "toeplitz")
    assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
    # the hankel kernel needs no room for deg(theta1) + deg(theta2): B maps
    # z^j to z^(2 - j) for j = 0, 1, 2, all inside K_{z^5}
    tight1 = ModelSpace.from_product(diagonal_monomial([5]), 8)
    tight2 = ModelSpace.from_product(diagonal_monomial([5]), 8)
    conj = Conjugation.identity(1)
    res = kernel_test(_scalar_symbol({-3: 1.0}), tight1, tight2, "hankel", conj, conj)
    assert res["verdict"] == "not-in-kernel" and res["agreement"] == "confirmed"
    assert abs(res["matrix_norm"] - np.sqrt(3.0)) < 1e-12


def test_kernel_random_class_combinations():
    rng = np.random.default_rng(78)
    theta1 = diagonal_monomial([2, 1])
    theta2 = diagonal_monomial([1, 2])
    s1 = ModelSpace.from_product(theta1, 24)
    s2 = ModelSpace.from_product(theta2, 24)
    t1s, t2s = s1.theta_series, s2.theta_series
    for _ in range(6):
        coef = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        k = int(rng.integers(0, 3))
        member = (t2s.mul(MatrixLaurent.monomial(k, coef))
                  + t1s.mul(MatrixLaurent.monomial(k, coef.T)).adjoint_star()).trim()
        res = kernel_test(member.truncate(24), s1, s2, "toeplitz")
        assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
        bumped = (member + MatrixLaurent.monomial(0, coef)).truncate(24)
        res = kernel_test(bumped, s1, s2, "toeplitz")
        assert res["agreement"] == "confirmed"


def test_tau_matrix_is_swap_on_z2():
    s1, _ = _scalar_z2_pair()
    cols = [s1.coords(tau(s1.theta_series, b)) for b in s1.basis_functions()]
    # K_{z^2} is its own tilde space; tau swaps the monomial basis
    tilde = ModelSpace.from_product(diagonal_monomial([2]), 16)
    mat = np.stack([tilde.coords(tau(s1.theta_series, b)) for b in s1.basis_functions()],
                   axis=1)
    assert np.max(np.abs(mat - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-12
    assert len(cols) == 2


def test_registry_hand_checks_scalar():
    theta = diagonal_monomial([2])
    space = ModelSpace.from_product(theta, 16)
    inputs = TransformInputs(space, space, symbol=_scalar_symbol({-1: 1.0}))
    tau_rep = verify_transform("tau", inputs)
    assert tau_rep.verdict == "accept" and tau_rep.residual <= 1e-12
    f_rep = verify_transform("prop61f", inputs)
    assert f_rep.verdict == "accept" and f_rep.residual <= 1e-12
    crof = verify_transform("crofoot", inputs)
    assert crof.verdict == "accept" and crof.residual <= 1e-12


def test_registry_full_sweep_blaschke():
    rng = np.random.default_rng(79)
    theta1, conj1 = random_symmetric_inner(rng, 2, max_abs=0.5)
    theta2, conj2 = random_symmetric_inner(rng, 2, max_abs=0.5)
    from matholab.sampling import random_crofoot

    inputs = TransformInputs(
        ModelSpace.from_product(theta1, 48), ModelSpace.from_product(theta2, 48),
        symbol=random_symbol(rng, 2),
        conj1=conj1, conj2=conj2,
        crofoot1=random_crofoot(rng, 2),
        crofoot2=random_crofoot(rng, 2))
    reports = verify_transform("all", inputs)
    assert [r.name for r in reports] == list(REGISTRY_NAMES)
    for rep in reports:
        if rep.verdict == "skipped":
            assert rep.name == "remark412"
            continue
        assert rep.verdict == "accept", (rep.name, rep.residual)


def test_registry_skips_without_j_symmetry():
    rng = np.random.default_rng(80)
    theta1 = random_inner(rng, 2, max_abs=0.5)
    theta2 = random_inner(rng, 2, max_abs=0.5)
    space1, space2 = ModelSpace.from_product(theta1, 48), ModelSpace.from_product(theta2, 48)
    inputs = TransformInputs(space1, space2, symbol=random_symbol(rng, 2))
    rep = verify_transform("ctheta", inputs)
    assert rep.verdict == "skipped"
    assert rep.reason is not None
    # identities that need no conjugation still run
    assert verify_transform("tau", inputs).verdict == "accept"
    assert verify_transform("eq_sz", inputs).verdict == "accept"
    assert verify_transform("eq_ddd", inputs).verdict == "accept"
    # the J-symmetry skip comes before the missing-symbol error
    bare = TransformInputs(space1, space2)
    assert verify_transform("ctheta", bare).verdict == "skipped"


def test_registry_errors():
    theta = diagonal_monomial([2])
    space = ModelSpace.from_product(theta, 16)
    inputs = TransformInputs(space, space)
    with pytest.raises(ValueError):
        verify_transform("nonsense", inputs)
    with pytest.raises(ValueError):
        verify_transform("tau", inputs)  # symbol missing


def test_check_serializes():
    s1, s2 = _scalar_z2_pair()
    op = build_matho(s1, s2, _scalar_symbol({-1: 1.0}))
    rep = displacement_check(op, "H1")
    doc = rep.to_json()
    assert doc["name"] == "H1" and doc["verdict"] == "accept"
    assert set(doc) == {"name", "residual", "threshold", "scale", "verdict"}
    assert doc["scale"] == pytest.approx(np.linalg.norm(op.matrix - s2.S @ op.matrix @ s1.S))
    # the scale makes the threshold relative: accept iff residual <= threshold * (1 + scale)
    assert Check.judge("x", 1.5e-8, 1e-8, 1.0).accepted()
    assert not Check.judge("x", 1.5e-8, 1e-8, 0.0).accepted()
    assert not Check.judge("x", 2.5e-8, 1e-8, 1.0).accepted()
    opdoc = op.to_json()
    assert "matrix" in opdoc and "theta1" in opdoc and "theta2" in opdoc
