"""The exact core: the Stein solver, builds and maps from the realization
against the window references, the documented input range, and recovery at
the Cayley-Hamilton reach."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from matholab import (Conjugation, CrofootData, CTheta, Laurent, ModelOperator, ModelSpace,
                      TransformInputs, build_matho, build_matto, cli, crofoot_realization,
                      diagonal_monomial, displacement_check, jstar, kernel_test, random_modifier,
                      recover_symbol, scalar_blaschke, shift_invariance_check, tau,
                      verify_transform)
from matholab import modelspace, operators
from matholab.modelspace import stein
from matholab.operators import _ctheta, _jstar, _symbol_map, _tau
from matholab.sampling import (random_crofoot, random_inner, random_symbol,
                               random_symmetric_inner, random_unitary)

import oracle

FAMILIES = {
    "toeplitz": (build_matto, "T1", ("T1", "T2", "T3", "T4", "MT")),
    "hankel": (build_matho, "H1", ("H1", "H2", "H3", "H4", "MH-a", "MH-b", "MH-c", "MH-d")),
}


# -- the Stein solver ------------------------------------------------------------

def _gramian_gap(realization):
    """|X - I| for X = A* X A + C* C: an output-normal realization's Gramian is I."""
    a_mat, _, c_mat, _ = realization
    gram = stein(a_mat.conj().T, c_mat.conj().T @ c_mat, a_mat)
    return float(np.max(np.abs(gram - np.eye(len(a_mat)))))


def test_stein_on_a_nilpotent_state_matrix():
    # diagonal monomials put every pole at 0: A is nilpotent, the sum finite
    realization = diagonal_monomial([3, 1]).realization()
    assert np.all(np.linalg.matrix_power(realization[0], 3) == 0)
    assert _gramian_gap(realization) <= 1e-15


def test_stein_on_a_crofoot_image_near_the_unit_circle():
    # three poles and W at the 0.9 cap: A_W is dense with spectral radius ~0.998
    theta = scalar_blaschke([0.8999999] * 3)
    realization = crofoot_realization(theta.realization(), CrofootData(np.array([[0.8999999]])))
    assert max(abs(np.linalg.eigvals(realization[0]))) > 0.997
    assert _gramian_gap(realization) <= 1e-12


def test_stein_is_batched_over_leading_axes():
    rng = np.random.default_rng(3)
    a1, a2 = (random_inner(rng, 2, 2, 0.8).realization()[0] for _ in range(2))
    q = rng.standard_normal((2, 3) + (len(a2), len(a1))) + 0j
    batched = stein(a2.conj().T, q, a1)
    for idx in np.ndindex(2, 3):
        single = stein(a2.conj().T, q[idx], a1)
        assert np.max(np.abs(batched[idx] - single)) <= 1e-15
        assert np.max(np.abs(single - a2.conj().T @ single @ a1 - q[idx])) <= 1e-13


def test_stein_refuses_a_state_matrix_that_is_not_stable():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="not stable"):
        stein(rotation, np.eye(2), np.eye(2))


# -- exact builds and maps against the window references --------------------------

@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.0, 0.6),
       seed=st.integers(0, 2 ** 16))
def test_builds_match_the_window_builds_on_exact_windows(dim, n_factors, max_abs, seed):
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), 96)
    s2 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), 96)
    assert max(s1.tails.max(), s2.tails.max()) < 1e-13
    phi = random_symbol(rng, dim)
    for build, window in ((build_matto, oracle.window_matto), (build_matho, oracle.window_matho)):
        gap = np.max(np.abs(build(s1, s2, phi).matrix - window(s1, s2, phi)))
        assert gap <= 1e-12 * (1.0 + phi.norm()), (build.__name__, gap)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_state_maps_match_the_window_maps_on_exact_windows(dim):
    rng = np.random.default_rng([90, dim])
    theta, conj = random_symmetric_inner(rng, dim, max_abs=0.6)
    space = ModelSpace.from_product(theta, 96)
    tilde = ModelSpace.from_product(theta.tilde(), 96)
    conjugated = ModelSpace.from_product(theta.conjugated(conj), 96)
    pairs = [
        (_tau(space, tilde), oracle.window_map(lambda f: tau(space.theta_series, f), space, tilde)),
        (_tau(tilde, space), oracle.window_map(lambda f: tau(tilde.theta_series, f), tilde, space)),
        (_jstar(conj, space, conjugated),
         oracle.window_map(lambda f: jstar(conj, f), space, conjugated)),
        (_jstar(conj, space, tilde), oracle.window_map(lambda f: jstar(conj, f), space, tilde)),
        (_ctheta(space, conj),
         oracle.window_map(CTheta(space.theta_series, conj).apply, space, space)),
    ]
    for exact, window in pairs:
        assert np.max(np.abs(exact - window)) <= 1e-12


def test_ctheta_is_compressed_for_thetas_that_are_not_symmetric():
    # without J-symmetry C_Theta leaves K_Theta; both sides keep its projection
    rng = np.random.default_rng(91)
    space = ModelSpace.from_product(random_inner(rng, 2, 2, 0.6), 96)
    conj = Conjugation.identity(2)
    window = oracle.window_map(CTheta(space.theta_series, conj).apply, space, space)
    assert np.max(np.abs(_ctheta(space, conj) - window)) <= 1e-12



# -- direct builds, windows on first read, derived spaces from the realization ------

def _map_build(space1, space2, symbol, family):
    """``_symbol_map`` over the symbol's support applied to its coefficients."""
    lo, hi = symbol.support()
    reach = max(-lo, hi) if family == "toeplitz" else max(-lo, 0)
    lags, mat = _symbol_map(space1, space2, family, reach)
    coeffs = np.stack([symbol.coeff(k) for k in lags])
    return (mat @ coeffs.ravel()).reshape(space2.dim_K, space1.dim_K)


@example(dim=3, n_factors=3, max_abs=0.8999999, order=64, seed=0, psi=True)
@example(dim=1, n_factors=1, max_abs=0.0, order=8, seed=0, psi=False)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.0, 0.8999999),
       order=st.sampled_from([8, 16, 32, 64]), seed=st.integers(0, 2 ** 16), psi=st.booleans())
def test_direct_builds_equal_the_symbol_map(dim, n_factors, max_abs, order, seed, psi):
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), order)
    s2 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), order)
    phi = random_symbol(rng, dim)
    if psi:
        # prop61a's Psi = Theta2^* Phi Theta1: every lag of the window, unless
        # the poles sit at 0 and Theta is a polynomial
        phi = s2.theta_series.adjoint_star().mul(phi).mul(s1.theta_series).truncate(order)
    for family, (build, _, _) in FAMILIES.items():
        built = build(s1, s2, phi).matrix
        gap = np.max(np.abs(built - _map_build(s1, s2, phi, family)))
        assert gap <= 1e-13 * (1.0 + np.linalg.norm(built)), (family, gap)


@example(dim=1, n_factors=1, extra=2, max_abs=0.8999999, reach=0, swap=False, seed=0)
@example(dim=2, n_factors=2, extra=1, max_abs=0.8999999, reach=1, swap=True, seed=1)
@example(dim=3, n_factors=2, extra=2, max_abs=0.8999999, reach=70, swap=False, seed=2)
@example(dim=1, n_factors=3, extra=1, max_abs=0.5, reach=37, swap=True, seed=3)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), extra=st.integers(1, 2),
       max_abs=st.floats(0.0, 0.8999999), reach=st.integers(0, 70), swap=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_hankel_build_matches_the_horner_reference(dim, n_factors, extra, max_abs, reach, swap,
                                                   seed):
    # theta2 has more factors, so the two state dimensions mostly differ;
    # swap puts the larger space on either side
    rng = np.random.default_rng(seed)
    spaces = [ModelSpace.from_product(random_inner(rng, dim, n, max_abs), 8)
              for n in (n_factors, n_factors + extra)]
    s1, s2 = spaces[::-1] if swap else spaces
    phi = random_symbol(rng, dim, reach, 2 * reach + 1)
    gap = np.linalg.norm(build_matho(s1, s2, phi).matrix - oracle.horner_matho(s1, s2, phi))
    assert gap <= 1e-12 * (1.0 + phi.norm()), gap


@pytest.mark.parametrize("reaches", [(2, 37), (37, 2)])
@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_builds_on_warm_spaces_equal_builds_on_fresh_ones(family, reaches):
    # the kept powers grow by the same steps however they are asked for, so a
    # build reads the same bits whichever reach a pair served first
    build = FAMILIES[family][0]
    rng = np.random.default_rng(12)
    thetas = random_inner(rng, 2, 2, 0.8999999), random_inner(rng, 2, 3, 0.8999999)
    warm = [ModelSpace.from_product(theta, 8) for theta in thetas]
    for reach in reaches:
        phi = random_symbol(rng, 2, reach, 2 * reach + 1)
        fresh = [ModelSpace.from_product(theta, 8) for theta in thetas]
        assert np.array_equal(build(*warm, phi).matrix, build(*fresh, phi).matrix), reach
    # the warm codomain kept the stack its longest build asked for
    assert len(warm[1].ah_powers.stack) >= max(reaches)


def _random_conjugation(rng, dim):
    """J x = U conj(x) with U = V V^T, symmetric and unitary for a unitary V."""
    v = random_unitary(rng, dim)
    return Conjugation(v @ v.T)


def _requests(rng):
    """(command, scenario document) for every command: none reads a window."""
    base = {"trunc_order": 16, "theta1": random_inner(rng, 2, 2, 0.8).to_json(),
            "theta2": random_inner(rng, 2, 2, 0.8).to_json(),
            "symbol": random_symbol(rng, 2).to_json()}
    conj = _random_conjugation(rng, 2).to_json()
    (theta1, conj1), (theta2, conj2) = (random_symmetric_inner(rng, 2, max_abs=0.9)
                                        for _ in range(2))
    symmetric = {"theta1": theta1.to_json(), "theta2": theta2.to_json(),
                 "j1": conj1.to_json(), "j2": conj2.to_json(),
                 "w1": random_crofoot(rng, 2).to_json(), "w2": random_crofoot(rng, 2).to_json()}
    extras = [("space", {}), ("build", {"family": "toeplitz"}), ("build", {"family": "hankel"}),
              ("check", {"kind": "T3"}), ("check", {"kind": "MH-b"}),
              ("check", {"kind": "hankel-c"}), ("recover", {"family": "toeplitz"}),
              ("recover", {"family": "hankel"}), ("kernel", {"family": "toeplitz"}),
              ("kernel", {"family": "hankel"}), ("verify", {"name": "jstar", "j1": conj,
                                                            "j2": conj}),
              ("verify", {"name": "all", **symmetric})]
    return [(command, {**base, **extra}) for command, extra in extras]


def test_requests_that_read_no_window_compute_none(monkeypatch):
    # no command reads a window: a space report's tails are one matrix power,
    # and the registry builds every right side exactly, with no series product
    calls, state_window, mul = [], modelspace.state_window, Laurent.mul
    monkeypatch.setattr(modelspace, "state_window",
                        lambda *args: calls.append(args) or state_window(*args))
    monkeypatch.setattr(Laurent, "mul", lambda *args: calls.append(args) or mul(*args))
    for command, doc in _requests(np.random.default_rng(94)):
        report = cli.run_command(cli.parse_scenario(doc, command))
        assert report["overall"] == "accept" or command in ("check", "kernel"), (command, doc)
        assert not calls, (command, doc)
    assert [c["verdict"] for c in report["checks"]] == ["accept"] * 12 + ["skipped"]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derived_spaces_have_the_derived_theta(dim):
    rng = np.random.default_rng([95, dim])
    theta1, theta2 = random_inner(rng, dim, 2, 0.6), random_inner(rng, dim, 3, 0.6)
    conj1, conj2 = _random_conjugation(rng, dim), _random_conjugation(rng, dim)
    inputs = TransformInputs(ModelSpace.from_product(theta1, 96),
                             ModelSpace.from_product(theta2, 96), conj1=conj1, conj2=conj2)
    for key, theta, conj in (("1", theta1, conj1), ("2", theta2, conj2)):
        for suffix, derived in (("t", theta.tilde()), ("j", theta.conjugated(conj))):
            space = inputs.space(key + suffix)
            product = ModelSpace.from_product(derived, 96)
            assert max(space.tails.max(), product.tails.max()) < 1e-13
            gap = np.max(np.abs(space.theta_series.coeffs - product.theta_series.coeffs))
            assert gap <= 1e-13, (key + suffix, gap)
            assert space.theta_series.tail_bound < 1e-13


# -- the registry's exact right sides --------------------------------------------------

WINDOW_SIDES = tuple(oracle.WINDOW_RIGHT_SIDES)


def _registry_inputs(rng, dim, n_factors, max_abs, order, symmetric, shift=0, reach=3):
    """TransformInputs on two thetas (J-symmetric with their conjugations, or
    not, with random ones), a symbol on [-reach, reach] moved by z^shift and
    two Crofoot parameters of norm up to 0.5."""
    if symmetric:
        (theta1, conj1), (theta2, conj2) = (random_symmetric_inner(rng, dim, n_factors, max_abs)
                                            for _ in range(2))
    else:
        theta1, theta2 = (random_inner(rng, dim, n_factors, max_abs) for _ in range(2))
        conj1, conj2 = _random_conjugation(rng, dim), _random_conjugation(rng, dim)
    return TransformInputs(ModelSpace.from_product(theta1, order),
                           ModelSpace.from_product(theta2, order),
                           symbol=random_symbol(rng, dim, reach).shift(shift),
                           conj1=conj1, conj2=conj2,
                           crofoot1=random_crofoot(rng, dim), crofoot2=random_crofoot(rng, dim))


@example(dim=3, n_factors=3, max_abs=0.8999999, shift=0, reach=3, symmetric=False, seed=0)
@example(dim=2, n_factors=2, max_abs=0.8999999, shift=-6, reach=12, symmetric=True, seed=1)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.0, 0.8999999),
       shift=st.sampled_from([-6, -2, 0, 2, 6]), reach=st.sampled_from([3, 12]),
       symmetric=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_exact_right_sides_match_the_window_right_sides(dim, n_factors, max_abs, shift, reach,
                                                        symmetric, seed):
    # shifts of +-6 move a symbol on [-3, 3] to lo > 0 and to hi < 0; a reach
    # of 12 gives Phi a long shift register
    inp = _registry_inputs(np.random.default_rng(seed), dim, n_factors, max_abs, 600,
                           symmetric, shift, reach)
    for key in "12":
        space = inp.space(key)
        assert max(space.tails.max(), space.theta_series.tail_bound) < 1e-13
    for name in WINDOW_SIDES:
        exact = operators._REGISTRY[name].sides(inp)[1]
        window = oracle.window_right_side(name, inp)
        gap = np.max(np.abs(exact - window))
        assert gap <= 1e-12 * (1.0 + np.linalg.norm(window)), (name, gap)


def _random_chain(rng, dim, kinds):
    """A chain of stable dense realizations ("a", spectral norm 0.5) and
    block shift registers of polynomials ("s", degree 0-3)."""
    chain = []
    for kind in kinds:
        if kind == "s":
            coeffs = rng.standard_normal((rng.integers(1, 5), dim, dim)) + 0j
            chain.append(operators._fir(coeffs))
        else:
            n = int(rng.integers(1, 4))
            a_mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            chain.append((0.5 * a_mat / np.linalg.norm(a_mat, 2), rng.standard_normal((n, dim)),
                          rng.standard_normal((dim, n)), rng.standard_normal((dim, dim))))
    return chain


@given(dim=st.integers(1, 3), co=st.text("as", min_size=1, max_size=4),
       an=st.text("as", min_size=1, max_size=4), seed=st.integers(0, 2 ** 16))
def test_chain_solves_match_the_written_out_realization(dim, co, an, seed):
    # the registry's chains have at most three blocks; longer ones reach the
    # carries between blocks that those leave at zero
    rng = np.random.default_rng(seed)
    co_chain, an_chain = _random_chain(rng, dim, co), _random_chain(rng, dim, an)
    a_co, b_co, c_co, d_co = oracle.series_realization(co_chain)
    a_an = oracle.series_realization(an_chain)[0]
    p_mat, r_mat = (0.5 * random_unitary(rng, dim) for _ in range(2))
    y_an = rng.standard_normal((dim, len(a_an))) + 0j
    y_co = rng.standard_normal((len(a_co), dim)) + 0j
    q = rng.standard_normal((len(a_co), len(a_an))) + 0j
    pairs = [
        (operators._chain_times(y_an, an_chain), y_an @ a_an),
        (operators._times_chain(co_chain, y_co), a_co @ y_co),
        (operators._chain_times(y_an, an_chain, p_mat), stein(p_mat, y_an, a_an)),
        (operators._times_chain(co_chain, y_co, r_mat), stein(a_co, y_co, r_mat)),
        (operators._chain_stein(co_chain, q, an_chain), stein(a_co, q, a_an)),
    ] + list(zip(operators._chain_bcd(co_chain), (b_co, c_co, d_co)))
    for got, want in pairs:
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (1.0 + np.linalg.norm(want))


@pytest.mark.parametrize("window", [8, 16, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_every_identity_accepts_symmetric_inputs_at_small_windows(dim, window):
    # the window right sides, Psi cut at the window, fail these at every
    # window here; the exact sides sit at rounding level
    rng = np.random.default_rng([96, dim, window])
    for _ in range(3):
        inp = _registry_inputs(rng, dim, 2, 0.8999999, window, symmetric=True)
        for rep in verify_transform("all", inp):
            if rep.name == "remark412" and rep.verdict == "skipped":
                continue
            assert rep.verdict == "accept", (rep.name, rep.residual)
            assert rep.residual <= 1e-12 * (1.0 + rep.scale), (rep.name, rep.residual)


# -- the documented input range ------------------------------------------------------

@pytest.mark.parametrize("window", [8, 16, 32, 64, 128])
def test_live_false_reject_is_accepted(window):
    # rejected by the window builds at windows 8 to 64 (T1 residuals 3e-1 to 7e-6)
    poles = {"poles": [[0.9, 0.0], [0.0, -0.9], [0.85, 0.0]]}
    doc = {"theta1": poles, "theta2": poles, "trunc_order": window, "family": "toeplitz",
           "symbol": {"dim": 1, "coeffs": {"-1": [[[1.0, 0.0]]], "0": [[[0.5, 0.0]]],
                                           "2": [[[0.0, 1.0]]]}}}
    report = cli.run_command(cli.parse_scenario(doc, "build"))
    assert report["overall"] == "accept"
    assert report["checks"][0]["name"] == "T1" and report["checks"][0]["residual"] <= 1e-14


@example(dim=3, n_factors=3, max_abs=0.8999999, order=8, seed=0)
@example(dim=2, n_factors=2, max_abs=0.0, order=256, seed=0)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3),
       max_abs=st.just(0.0) | st.floats(0.01, 0.8999999), order=st.integers(8, 256),
       seed=st.integers(0, 2 ** 16))
def test_built_operators_pass_every_kind_of_their_family(dim, n_factors, max_abs, order, seed):
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), order)
    s2 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), order)
    phi = random_symbol(rng, dim)
    m1, m2 = random_modifier(s1, rng), random_modifier(s2, rng)
    for family, (build, _, kinds) in FAMILIES.items():
        op = build(s1, s2, phi)
        for kind in kinds:
            rep = displacement_check(op, kind, modifier1=m1, modifier2=m2)
            assert rep.accepted(), (kind, rep.residual)
        for variant in "abcd":
            rep = shift_invariance_check(op, family, variant)
            assert rep.accepted(), (family, variant, rep.residual)


# -- recovery at the Cayley-Hamilton reach ----------------------------------------------

# kind -> (form of its displacement, L on space2, R on space1, right defect
# projection on space1, left on space2): X - L X R ("sandwich") or L X - X R
KINDS = {
    "T1": ("sandwich", "S", "S_star", "P_D", "P_D"),
    "T2": ("sandwich", "S_star", "S", "P_Dt", "P_Dt"),
    "T3": ("commutator", "S_star", "S_star", "P_D", "P_Dt"),
    "T4": ("commutator", "S", "S", "P_Dt", "P_D"),
    "H1": ("sandwich", "S", "S", "P_Dt", "P_D"),
    "H2": ("commutator", "S_star", "S", "P_Dt", "P_Dt"),
    "H3": ("sandwich", "S_star", "S_star", "P_D", "P_Dt"),
    "H4": ("commutator", "S", "S_star", "P_D", "P_D"),
}
_DEFECT_DIMS = {"P_D": "defect_dim", "P_Dt": "defect_dim_tilde"}


def _solution_space(kind, s1, s2):
    """Orthonormal basis (columns) of the row-major vectorized X with X in the
    kind's class: the displacement compressed to the complements of the
    kind's defect pair, Q2 (X - L X R) Q1 or Q2 (L X - X R) Q1, vanishes."""
    form, left, right, p1, p2 = KINDS[kind]
    n1, n2 = s1.dim_K, s2.dim_K
    # row-major: vec(L X R) = kron(L, R^T) vec(X)
    lx = np.kron(getattr(s2, left), np.eye(n1))
    xr = np.kron(np.eye(n2), getattr(s1, right).T)
    displacement = np.eye(n1 * n2) - lx @ xr if form == "sandwich" else lx - xr
    compress = np.kron(np.eye(n2) - getattr(s2, p2), (np.eye(n1) - getattr(s1, p1)).T)
    # the cut is absolute: the map has norm at most 2, and it may vanish up to
    # rounding (a one-dimensional space is all defect)
    _, sv, vh = np.linalg.svd(compress @ displacement)
    return vh[int(np.sum(sv > 1e-8)):].conj().T


def _defects(kind, s1, s2):
    """The dimensions of the kind's defect pair: (right on space1, left on space2)."""
    _, _, _, p1, p2 = KINDS[kind]
    return getattr(s1, _DEFECT_DIMS[p1]), getattr(s2, _DEFECT_DIMS[p2])


@pytest.mark.parametrize("seed", range(4))
def test_solution_space_members_recover_at_window_8(seed):
    # generic class members, not built operators: the window caps of the
    # old reach loop failed these
    rng = np.random.default_rng([92, seed])
    s1 = ModelSpace.from_product(random_inner(rng, 3, 3, 0.5), 8)
    s2 = ModelSpace.from_product(random_inner(rng, 3, 3, 0.5), 8)
    for family, (_, kind, _) in FAMILIES.items():
        null = _solution_space(kind, s1, s2)
        coeffs = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
        op = ModelOperator(s1, s2, (null @ coeffs).reshape(s2.dim_K, s1.dim_K))
        phi, gap = recover_symbol(op, family)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(op.matrix)), (family, gap)
        reach = max(s1.dim_K, s2.dim_K) - 1 if family == "toeplitz" else s1.dim_K + s2.dim_K - 1
        assert phi.order <= reach


def test_recovered_symbols_meet_the_kernel_window():
    # a recovered symbol is not cut at the window: the hankel one reaches lag
    # -(n1 + n2 - 1) past -8, and kernel_test classifies it all the same. A
    # recovered symbol is the minimum-norm symbol with its build, so its
    # class distance is its norm; it differs from the built symbol by a
    # kernel member
    rng = np.random.default_rng(93)
    s1 = ModelSpace.from_product(random_inner(rng, 3, 3, 0.5), 8)
    s2 = ModelSpace.from_product(random_inner(rng, 3, 3, 0.5), 8)
    phi = random_symbol(rng, 3)
    assert s1.dim_K + s2.dim_K - 1 > 8
    toeplitz, _ = recover_symbol(build_matto(s1, s2, phi), "toeplitz")
    assert -8 <= toeplitz.support()[0] and toeplitz.support()[1] <= 8
    res = kernel_test(toeplitz - phi.with_order(toeplitz.order), s1, s2, "toeplitz")
    assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
    hankel, _ = recover_symbol(build_matho(s1, s2, phi), "hankel")
    assert hankel.support()[0] == -(s1.dim_K + s2.dim_K - 1)
    for symbol, family in ((toeplitz, "toeplitz"), (hankel, "hankel")):
        res = kernel_test(symbol, s1, s2, family)
        assert res["verdict"] == "not-in-kernel" and res["agreement"] == "confirmed"
        assert abs(res["distance"] - symbol.norm()) <= 1e-12 * (1.0 + symbol.norm())


@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.01, 0.85),
       symmetric=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_symbol_map_rank_is_the_class_dimension(dim, n_factors, max_abs, symmetric, seed):
    rng = np.random.default_rng(seed)
    if symmetric:
        thetas = [random_symmetric_inner(rng, dim, n_factors, max_abs)[0] for _ in range(2)]
    else:
        thetas = [random_inner(rng, dim, n_factors, max_abs) for _ in range(2)]
    s1, s2 = (ModelSpace.from_product(theta, 16) for theta in thetas)
    n1, n2 = s1.dim_K, s2.dim_K
    for family, (_, kind, _) in FAMILIES.items():
        d1, d2 = _defects(kind, s1, s2)
        want = n1 * n2 - (n1 - d1) * (n2 - d2)
        reach = max(n1, n2) - 1 if family == "toeplitz" else n1 + n2 - 1
        sv = np.linalg.svd(_symbol_map(s1, s2, family, reach)[1], compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == want == _solution_space(kind, s1, s2).shape[1]


@example(dim=3, n_factors=3, max_abs=0.85, seed=0)
@given(dim=st.integers(1, 3), n_factors=st.integers(1, 3), max_abs=st.floats(0.01, 0.85),
       seed=st.integers(0, 2 ** 16))
def test_every_kind_is_its_family_class_without_j_symmetry(dim, n_factors, max_abs, seed):
    # the paper's characterizations assume J-symmetric thetas; on pairs that
    # are not, each of the eight kinds still has the class dimension
    # n1 n2 - (n1 - d1)(n2 - d2) of its own defect pair, that dimension is
    # the rank of its family's symbol map, and a generic member recovers
    rng = np.random.default_rng(seed)
    s1, s2 = (ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), 8)
              for _ in range(2))
    n1, n2 = s1.dim_K, s2.dim_K
    for family, (_, _, kinds) in FAMILIES.items():
        reach = max(n1, n2) - 1 if family == "toeplitz" else n1 + n2 - 1
        sv = np.linalg.svd(_symbol_map(s1, s2, family, reach)[1], compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        for kind in kinds[:4]:
            d1, d2 = _defects(kind, s1, s2)
            null = _solution_space(kind, s1, s2)
            assert null.shape[1] == n1 * n2 - (n1 - d1) * (n2 - d2) == rank, kind
            coeffs = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
            op = ModelOperator(s1, s2, (null @ coeffs).reshape(n2, n1))
            _, gap = recover_symbol(op, family)
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(op.matrix)), (kind, gap)
