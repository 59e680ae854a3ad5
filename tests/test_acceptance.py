"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every tolerance in here is the contract tolerance, not a softened one.
The suites share fixtures where a criterion reuses another's operators.
"""

import numpy as np
import pytest

from matholab import (
    Conjugation,
    CTheta,
    MatrixLaurent,
    ModelOperator,
    ModelSpace,
    TransformInputs,
    Laurent,
    build_matho,
    build_matto,
    crofoot_map,
    diagonal_monomial,
    displacement_check,
    jstar,
    kernel_test,
    random_modifier,
    recover_symbol,
    shift_invariance_check,
    tau,
    verify_transform,
)
from matholab.sampling import (
    random_crofoot,
    random_inner,
    random_symbol,
    random_symmetric_inner,
    random_unitary,
)

import oracle

TOEPLITZ_KINDS = ("T1", "T2", "T3", "T4")
HANKEL_KINDS = ("H1", "H2", "H3", "H4")
MODIFIED_HANKEL = ("MH-a", "MH-b", "MH-c", "MH-d")
REGISTRY_REQUIRED = ("crofoot", "tau", "jstar", "ctheta", "prop61a", "prop61b",
                     "prop61c", "prop61d", "prop61e", "prop61f", "eq_sz", "eq_ddd")


@pytest.fixture
def announce(capsys):
    def _report(num, name, ok, detail=""):
        tail = f"  ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nacceptance criterion {num} [{name}]: "
                  f"{'PASS' if ok else 'FAIL'}{tail}")
        assert ok, f"criterion {num} ({name}) {detail}"
    return _report


def _scalar_symbol(entries):
    return MatrixLaurent.from_coeff_map({n: [[c]] for n, c in entries.items()}, 1)


@pytest.fixture(scope="module")
def scalar_pair():
    theta = diagonal_monomial([2])
    return (ModelSpace.from_product(theta, 16),
            ModelSpace.from_product(theta, 16))


@pytest.fixture(scope="module")
def soundness_suite():
    """200 random (theta1, theta2, symbol) draws with both built operators."""
    rng = np.random.default_rng(20240501)
    out = []
    for i in range(200):
        d = int(rng.integers(1, 4))
        if i % 3 == 0:
            theta1 = diagonal_monomial(list(rng.integers(1, 4, size=d)))
            theta2 = diagonal_monomial(list(rng.integers(1, 4, size=d)))
            order = 32
        else:
            theta1 = random_inner(rng, d, n_factors=2, max_abs=0.6)
            theta2 = random_inner(rng, d, n_factors=2, max_abs=0.6)
            order = 64
        s1 = ModelSpace.from_product(theta1, order)
        s2 = ModelSpace.from_product(theta2, order)
        phi = random_symbol(rng, d)
        out.append((build_matto(s1, s2, phi), build_matho(s1, s2, phi),
                    random_modifier(s1, rng), random_modifier(s2, rng)))
    return out


@pytest.fixture(scope="module")
def gaussian_suite(scalar_pair):
    rng = np.random.default_rng(777)
    draws = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for _ in range(1000)]
    return draws


def test_criterion_1_golden_matrices(scalar_pair, announce):
    s1, s2 = scalar_pair
    goldens = [
        (build_matto, {1: 1.0}, [[0.0, 0.0], [1.0, 0.0]]),
        (build_matho, {-1: 1.0}, [[1.0, 0.0], [0.0, 0.0]]),
        (build_matho, {-2: 1.0}, [[0.0, 1.0], [1.0, 0.0]]),
        (build_matho, {-3: 1.0}, [[0.0, 0.0], [0.0, 1.0]]),
    ]
    worst = 0.0
    for build, entries, want in goldens:
        got = build(s1, s2, _scalar_symbol(entries)).matrix
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    announce(1, "golden matrices", worst <= 1e-12, f"worst gap {worst:.2e}")


def test_criterion_2_soundness(soundness_suite, announce):
    worst = 0.0
    for matto, matho, m1, m2 in soundness_suite:
        for kind in TOEPLITZ_KINDS:
            worst = max(worst, displacement_check(matto, kind).residual)
        worst = max(worst, displacement_check(
            matto, "MT", modifier1=m1, modifier2=m2).residual)
        for kind in "abcd":
            worst = max(worst, shift_invariance_check(matto, "toeplitz", kind).residual)
        for kind in HANKEL_KINDS:
            worst = max(worst, displacement_check(matho, kind).residual)
        for kind in MODIFIED_HANKEL:
            worst = max(worst, displacement_check(
                matho, kind, modifier1=m1, modifier2=m2).residual)
        for kind in "abcd":
            worst = max(worst, shift_invariance_check(matho, "hankel", kind).residual)
    announce(2, "soundness, 200 draws", worst <= 1e-8,
             f"worst residual {worst:.2e}")


def test_criterion_3_discrimination(scalar_pair, gaussian_suite, announce):
    s1, s2 = scalar_pair
    hits = 0
    for x in gaussian_suite:
        rep = displacement_check(ModelOperator(s1, s2, x), "H1")
        if not rep.accepted() and rep.residual >= 0.1 * np.linalg.norm(x):
            hits += 1
    jordan = ModelOperator(s1, s2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    gap = abs(displacement_check(jordan, "H1").residual - 1.0)
    ok = hits >= 950 and gap <= 1e-12
    announce(3, "discrimination", ok,
             f"{hits}/1000 rejected strongly, counterexample gap {gap:.2e}")


def test_criterion_4_round_trip(soundness_suite, announce):
    rng = np.random.default_rng(20240502)
    worst = 0.0
    for matto, _, _, _ in soundness_suite[:50]:
        psi, _ = recover_symbol(matto, "toeplitz")
        rebuilt = build_matto(matto.domain, matto.codomain, psi)
        worst = max(worst, float(np.linalg.norm(rebuilt.matrix - matto.matrix)))
    for _ in range(50):
        d = int(rng.integers(1, 3))
        theta1, _ = random_symmetric_inner(rng, d, max_abs=0.5)
        theta2, _ = random_symmetric_inner(rng, d, max_abs=0.5)
        s1 = ModelSpace.from_product(theta1, 64)
        s2 = ModelSpace.from_product(theta2, 64)
        op = build_matho(s1, s2, random_symbol(rng, d))
        psi, _ = recover_symbol(op, "hankel")
        rebuilt = build_matho(s1, s2, psi)
        worst = max(worst, float(np.linalg.norm(rebuilt.matrix - op.matrix)))
    announce(4, "round trip, 100 operators", worst <= 1e-8,
             f"worst rebuild error {worst:.2e}")


def test_criterion_5_transform_registry(announce):
    rng = np.random.default_rng(20240503)
    worst = 0.0
    failed = []
    for i in range(50):
        d = 1 + (i % 2)
        theta1, conj1 = random_symmetric_inner(rng, d, max_abs=0.5)
        theta2, conj2 = random_symmetric_inner(rng, d, max_abs=0.5)
        inputs = TransformInputs(
            ModelSpace.from_product(theta1, 48), ModelSpace.from_product(theta2, 48),
            symbol=random_symbol(rng, d),
            conj1=conj1, conj2=conj2,
            crofoot1=random_crofoot(rng, d), crofoot2=random_crofoot(rng, d))
        reports = {r.name: r for r in verify_transform("all", inputs)}
        for name in REGISTRY_REQUIRED:
            rep = reports[name]
            if rep.verdict == "skipped" or rep.residual > 1e-8:
                failed.append((i, name, rep.residual))
            else:
                worst = max(worst, rep.residual)
    # hand-checked scalar instances
    z2 = ModelSpace.from_product(diagonal_monomial([2]), 16)
    hand = TransformInputs(z2, z2, symbol=_scalar_symbol({-1: 1.0}))
    tau_resid = verify_transform("tau", hand).residual
    f_resid = verify_transform("prop61f", hand).residual
    ok = not failed and tau_resid <= 1e-12 and f_resid <= 1e-12
    announce(5, "transform registry, 50 instances", ok,
             f"worst residual {worst:.2e}, hand checks {tau_resid:.1e}/{f_resid:.1e}"
             + (f", failures {failed[:3]}" if failed else ""))


def test_criterion_6_kernel_tests(scalar_pair, announce):
    rng = np.random.default_rng(20240504)
    bad = []

    # toeplitz: every generator and 50 random combinations
    t1 = diagonal_monomial([2, 1])
    t2 = diagonal_monomial([1, 2])
    s1 = ModelSpace.from_product(t1, 24)
    s2 = ModelSpace.from_product(t2, 24)
    t1s, t2s = s1.theta_series, s2.theta_series
    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :] for i in range(2) for j in range(2)]
    toeplitz_gens = []
    for k in range(3):
        for e in units:
            toeplitz_gens.append(t2s.mul(MatrixLaurent.monomial(k, e)))
            toeplitz_gens.append(t1s.mul(MatrixLaurent.monomial(k, e)).adjoint_star())
    for g in toeplitz_gens:
        res = kernel_test(g.truncate(24), s1, s2, "toeplitz")
        if res["verdict"] != "in-kernel" or res["agreement"] != "confirmed":
            bad.append(("toeplitz-gen", res))
    for _ in range(50):
        w = rng.standard_normal(len(toeplitz_gens))
        combo = MatrixLaurent.zeros((2, 2), 24)
        for c, g in zip(w, toeplitz_gens):
            combo = combo + g.truncate(24).scale(c)
        res = kernel_test(combo, s1, s2, "toeplitz")
        if res["verdict"] != "in-kernel" or res["agreement"] != "confirmed":
            bad.append(("toeplitz-combo", res))

    # hankel: generators and 50 combinations over small-pole symmetric thetas
    theta1, conj1 = random_symmetric_inner(rng, 2, max_abs=0.25)
    theta2, conj2 = random_symmetric_inner(rng, 2, max_abs=0.25)
    h1 = ModelSpace.from_product(theta1, 48)
    h2 = ModelSpace.from_product(theta2, 48)
    hankel_gens = []
    for k in range(2):
        for e in units:
            hankel_gens.append(MatrixLaurent.monomial(
                k, conj2.U @ e.T @ np.conj(conj1.U)))
            inner = h2.theta_series.tilde().mul(MatrixLaurent.monomial(k, e)) \
                .mul(h1.theta_series).truncate(48)
            hankel_gens.append(oracle.sandwich_pointwise(conj2, inner, conj1))
    for g in hankel_gens:
        res = kernel_test(g.truncate(48), h1, h2, "hankel", conj1, conj2)
        if res["verdict"] != "in-kernel" or res["agreement"] != "confirmed":
            bad.append(("hankel-gen", res))
    for _ in range(50):
        w = rng.standard_normal(len(hankel_gens))
        combo = MatrixLaurent.zeros((2, 2), 48)
        for c, g in zip(w, hankel_gens):
            combo = combo + g.truncate(48).scale(c)
        res = kernel_test(combo, h1, h2, "hankel", conj1, conj2)
        if res["verdict"] != "in-kernel" or res["agreement"] != "confirmed":
            bad.append(("hankel-combo", res))

    # the conjugate z^2 non-example must be flagged
    s1z, s2z = scalar_pair
    conj = Conjugation.identity(1)
    res = kernel_test(_scalar_symbol({-2: 1.0}), s1z, s2z, "hankel", conj, conj)
    if res["verdict"] != "not-in-kernel" or res["agreement"] != "confirmed":
        bad.append(("zbar2", res))

    announce(6, "kernel tests", not bad,
             f"generators + 100 combos, problems {bad[:2]}" if bad
             else "generators + 100 combos + flagged non-member")


def test_criterion_7_unitarity(announce):
    rng = np.random.default_rng(20240505)
    worst = 0.0

    theta = random_inner(rng, 2, max_abs=0.5)
    space = ModelSpace.from_product(theta, 64)
    sym_theta, sym_conj = random_symmetric_inner(rng, 2, max_abs=0.5)
    sym_space = ModelSpace.from_product(sym_theta, 64)
    ctheta = CTheta(sym_space.theta_series, sym_conj)
    cro = random_crofoot(rng, 2)
    w = random_unitary(rng, 2)
    conj = Conjugation(w @ w.T)

    def member(sp):
        c = rng.standard_normal(sp.dim_K) + 1j * rng.standard_normal(sp.dim_K)
        return oracle.from_coords(sp, c)

    for _ in range(20):
        f = member(space)
        worst = max(worst, abs(tau(space.theta_series, f).norm() - f.norm()))
        worst = max(worst, abs(f.flip().norm() - f.norm()))
        worst = max(worst, abs(jstar(conj, f).norm() - f.norm()))
        g = member(sym_space)
        worst = max(worst, abs(ctheta.apply(g).norm() - g.norm()))
        worst = max(worst, abs(
            crofoot_map(space.theta_series, cro, f, "forward").norm() - f.norm()))

    eq_worst = 0.0
    for _ in range(5):
        t1 = random_inner(rng, 2, max_abs=0.5)
        t2 = random_inner(rng, 2, max_abs=0.5)
        inputs = TransformInputs(ModelSpace.from_product(t1, 48),
                                 ModelSpace.from_product(t2, 48))
        eq_worst = max(eq_worst, verify_transform("eq_sz", inputs).residual)
        eq_worst = max(eq_worst, verify_transform("eq_ddd", inputs).residual)

    ok = worst <= 1e-9 and eq_worst <= 1e-8
    announce(7, "unitarity and shift identities", ok,
             f"worst norm drift {worst:.2e}, worst identity residual {eq_worst:.2e}")


def test_criterion_8_oracle_equivalence(scalar_pair, announce):
    rng = np.random.default_rng(20240506)
    s1, s2 = scalar_pair
    zs = oracle.nodes(oracle.N_GRID)
    tv = oracle.theta_values(diagonal_monomial([2]), zs)
    bvals = [oracle.sample_series(b, oracle.N_GRID) for b in oracle.basis_columns(s1)]
    worst = 0.0

    # compressed shift
    for j, bj in enumerate(bvals):
        shifted = oracle.model_project(tv, zs[:, None] * bj)
        for i, bi in enumerate(bvals):
            worst = max(worst, abs(s1.S[i, j] - oracle.inner(shifted, bi)))

    # projection on a random window function
    coeffs = rng.standard_normal((13, 1)) + 1j * rng.standard_normal((13, 1))
    f = Laurent(coeffs, 6)
    proj = oracle.sample_series(oracle.project(s1, f), oracle.N_GRID)
    direct = oracle.model_project(tv, oracle.sample_series(f, oracle.N_GRID))
    worst = max(worst, float(np.max(np.abs(proj - direct))))

    # golden operators entry by entry
    goldens = [
        ("toeplitz", {1: 1.0}), ("hankel", {-1: 1.0}),
        ("hankel", {-2: 1.0}), ("hankel", {-3: 1.0}),
    ]
    for family, entries in goldens:
        phi = _scalar_symbol(entries)
        build = build_matto if family == "toeplitz" else build_matho
        op = build(s1, s2, phi)
        pv = oracle.sample_series(phi, oracle.N_GRID)
        for j, bj in enumerate(bvals):
            prod = oracle.multiply(pv, bj)
            if family == "toeplitz":
                image = oracle.model_project(tv, prod)
            else:
                image = oracle.flip_values(oracle.co_analytic_part(prod), zs)
            for i, bi in enumerate(bvals):
                worst = max(worst, abs(op.matrix[i, j] - oracle.inner(image, bi)))

    announce(8, "quadrature oracle equivalence", worst <= 1e-8,
             f"worst series/values gap {worst:.2e}")


def test_criterion_9_verdict_equivalence(soundness_suite, gaussian_suite,
                                         scalar_pair, announce):
    def family_verdicts(op, family, m1, m2):
        out = []
        if family == "toeplitz":
            out += [displacement_check(op, k).accepted() for k in TOEPLITZ_KINDS]
            out.append(displacement_check(op, "MT", modifier1=m1,
                                          modifier2=m2).accepted())
        else:
            out += [displacement_check(op, k).accepted() for k in HANKEL_KINDS]
            out += [displacement_check(op, k, modifier1=m1, modifier2=m2).accepted()
                    for k in MODIFIED_HANKEL]
        out += [shift_invariance_check(op, family, k).accepted() for k in "abcd"]
        return out

    disagreements = 0
    for matto, matho, m1, m2 in soundness_suite:
        if len(set(family_verdicts(matto, "toeplitz", m1, m2))) != 1:
            disagreements += 1
        if len(set(family_verdicts(matho, "hankel", m1, m2))) != 1:
            disagreements += 1

    s1, s2 = scalar_pair
    rng = np.random.default_rng(20240507)
    m1, m2 = random_modifier(s1, rng), random_modifier(s2, rng)
    for x in gaussian_suite:
        op = ModelOperator(s1, s2, x)
        for family in ("toeplitz", "hankel"):
            if len(set(family_verdicts(op, family, m1, m2))) != 1:
                disagreements += 1

    announce(9, "verdict equivalence", disagreements == 0,
             f"{disagreements} disagreements over suites 2 and 3")
