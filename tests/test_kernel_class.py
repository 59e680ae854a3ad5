"""The kernel test against the dense symbol-map reference, the J-symmetric
generator span on exact windows, the per-pair cache, the window's absence,
and edges."""

import gc
import itertools
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matholab import Conjugation, ModelSpace, diagonal_monomial, operators
from matholab.blaschke import BlaschkePotapovProduct, PotapovFactor
from matholab.cli import parse_scenario
from matholab.laurent import Laurent
from matholab.operators import kernel_check, kernel_test
from matholab.sampling import random_inner, random_symbol, random_unitary
from oracle import (_effective_reach, dense_kernel_distance, exact_symbol_map, full_reach,
                    kernel_generators, map_kernel_distance, map_nullspace, riesz_split)

ROOT = Path(__file__).resolve().parent.parent
THRESHOLD = 1e-8


def _symmetric_theta(rng, dim, modulus, per_slot=1):
    """(Theta, J) with J Theta J = Theta^* and every pole at this modulus.

    The modulus is lowered by 1e-12 so that round-off in the phase cannot push
    a pole past the 0.9 cap."""
    w = random_unitary(rng, dim)
    eye = np.eye(dim)
    factors = [PotapovFactor((modulus - 1e-12) * np.exp(2j * np.pi * rng.uniform()),
                             w[:, [i]], eye)
               for i in range(dim) for _ in range(per_slot)]
    last = factors[-1]
    factors[-1] = PotapovFactor(last.a, last.frame, w @ w.T)
    v = random_unitary(rng, dim)
    return BlaschkePotapovProduct(dim, None, factors).transported(v), Conjugation(v @ v.T)


def _member(rng, gens, order, dim):
    """A random combination of up to four generators (zero if there are none)."""
    total = Laurent.zeros((dim, dim), order)
    if gens:
        for g in rng.choice(len(gens), size=min(4, len(gens)), replace=False):
            total = total + gens[g].scale(complex(*rng.standard_normal(2)))
    return total


def _bumped(rng, member, family):
    """member plus a random coefficient at c_0 (toeplitz) or c_-1 (hankel)."""
    dim = member.dim
    slot = 0 if family == "toeplitz" else -1
    bump = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return member + Laurent.monomial(slot, bump).with_order(member.order)


def _reference_map(s1, s2, family):
    """(lags, M, reach): the window builds of the unit symbols on exact windows
    of both spaces, over the lags kernel_test factors (those within reach) and
    out to the pair's window, which holds every symbol drawn here."""
    reach = full_reach(s1, s2, family)
    return (*exact_symbol_map(s1, s2, family, max(reach, s1.order, s2.order)), reach)


def _null_member(rng, ref_map, dim):
    """A random symbol from the exact nullspace of the reference map: on the
    pair's window, or out to the reach where that is wider."""
    lags, mat, _ = ref_map
    null = map_nullspace(mat)
    x = null @ (rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1]))
    return Laurent.from_coeff_map(dict(zip(lags, x.reshape(-1, dim, dim))), dim)


def _exact(s1, s2):
    """True when both windows hold their basis functions up to 1e-13."""
    return max(s1.tails.max(), s2.tails.max()) < 1e-13


def _hankel_guarded(symbol, s1, s2):
    """True when the hankel generators cannot fit the window for this symbol."""
    needs = (_effective_reach(s1.theta_series)[1] + _effective_reach(s2.theta_series)[1])
    return _effective_reach(symbol)[0] < 0 and max(s1.order, s2.order) < needs


def _assert_matches_oracle(symbol, s1, s2, family, ref_map=None, conj1=None, conj2=None):
    """kernel_test equals the dense map reference: distance to 1e-12 (1 + |Phi|),
    same verdicts; with conj1 and conj2 (J-symmetric thetas) and an exact
    window, the generator span gives the same verdict. Its distance is taken
    on the window, where the class is cut, so only the verdicts compare."""
    res = kernel_test(symbol, s1, s2, family, conj1, conj2)
    ref = map_kernel_distance(symbol, *(ref_map or _reference_map(s1, s2, family)))
    scale = symbol.norm()
    assert abs(res["distance"] - ref) <= 1e-12 * (1.0 + scale), (res, ref)
    ref_in = ref <= THRESHOLD * (1.0 + scale)
    assert res["verdict"] == ("in-kernel" if ref_in else "not-in-kernel")
    is_zero = res["matrix_norm"] <= THRESHOLD * (1.0 + scale)
    ref_agreement = ("confirmed" if ref_in == is_zero
                     else "conflict" if ref_in else "class-gap")
    assert res["agreement"] == ref_agreement
    if conj1 is not None and _exact(s1, s2) and not (
            family == "hankel" and _hankel_guarded(symbol, s1, s2)):
        span = dense_kernel_distance(symbol, s1, s2, family, conj1, conj2)
        assert (span <= THRESHOLD * (1.0 + scale)) == ref_in, (res, span)
    return res


def _check_pair(rng, s1, s2, family, conj1, conj2):
    order, dim = max(s1.order, s2.order), s1.dim
    gens = kernel_generators(s1, s2, family, conj1, conj2)
    member = _member(rng, gens, order, dim)
    ref_map = _reference_map(s1, s2, family)
    for symbol in (member, _bumped(rng, member, family)):
        _assert_matches_oracle(symbol, s1, s2, family, ref_map, conj1, conj2)


def _check_random_pair(rng, family, dim, order, modulus):
    theta1, conj1 = _symmetric_theta(rng, dim, modulus)
    theta2, conj2 = _symmetric_theta(rng, dim, modulus)
    s1 = ModelSpace.from_product(theta1, order)
    s2 = ModelSpace.from_product(theta2, order)
    _check_pair(rng, s1, s2, family, conj1, conj2)


@pytest.mark.parametrize("modulus", [0.25, 0.6, 0.9])
@pytest.mark.parametrize("order", [8, 33, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_grid_matches_dense_oracle(family, dim, order, modulus):
    _check_random_pair(np.random.default_rng([dim, order, int(100 * modulus)]),
                       family, dim, order, modulus)


@given(family=st.sampled_from(["toeplitz", "hankel"]), dim=st.integers(1, 3),
       order=st.integers(8, 64), modulus=st.sampled_from([0.25, 0.6, 0.9]),
       seed=st.integers(0, 2 ** 16))
def test_structured_distance_matches_dense_oracle(family, dim, order, modulus, seed):
    _check_random_pair(np.random.default_rng(seed), family, dim, order, modulus)


@given(family=st.sampled_from(["toeplitz", "hankel"]),
       powers1=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       powers2=st.lists(st.integers(1, 3), min_size=3, max_size=3),
       order=st.integers(8, 16), seed=st.integers(0, 2 ** 16))
def test_diagonal_monomials_match_dense_oracle(family, powers1, powers2, order, seed):
    rng = np.random.default_rng(seed)
    dim = len(powers1)
    conj = Conjugation.identity(dim)
    s1 = ModelSpace.from_product(diagonal_monomial(powers1), order)
    s2 = ModelSpace.from_product(diagonal_monomial(powers2[:dim]), order)
    _check_pair(rng, s1, s2, family, conj, conj)


def test_benchmark_symbols_match_dense_oracle(monkeypatch):
    # one cycle of each workload's generated kernel symbols, read off the
    # requests the benchmark would run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    prefix, cycle = workloads.SCHEDULE["kernel_classify"]
    stream = workloads.kernel_classify(3, workloads.MEASURED)
    for req in itertools.islice(stream, prefix):
        req.run()
    ref_maps = {}
    for req in itertools.islice(stream, cycle):
        pair, symbol, family, conj1, conj2 = req.run.args
        spaces = pair["spaces"]
        if id(pair) not in ref_maps:
            ref_maps[id(pair)] = _reference_map(*spaces, family)
        res = _assert_matches_oracle(symbol, *spaces, family, ref_maps[id(pair)], conj1, conj2)
        assert res["verdict"] == req.expected["class"]

    kernel_cells = 0
    for req in itertools.islice(workloads.scenario_mix(3, workloads.MEASURED),
                                len(workloads.SCENARIO_CELLS)):
        command, doc = req.run.args
        if command != "kernel":
            continue
        sc = parse_scenario(doc, command)
        conj = Conjugation.identity(sc.space1.dim)
        res = _assert_matches_oracle(sc.symbol, sc.space1, sc.space2, sc.params["family"], None,
                                     conj, conj)
        assert res["verdict"] == req.expected["class"]
        kernel_cells += 1
    assert kernel_cells == 4


# -- pairs that are not J-symmetric ---------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["toeplitz", "hankel"])
def test_exact_kernel_members_without_j_symmetry(family, dim):
    # random_inner thetas are not J-symmetric; poles up to 0.4 make window 40
    # exact, so no class-gap may occur
    rng = np.random.default_rng([46, dim])
    for _ in range(2):
        s1 = ModelSpace.from_product(random_inner(rng, dim, 2, 0.4), 40)
        s2 = ModelSpace.from_product(random_inner(rng, dim, 2, 0.4), 40)
        assert _exact(s1, s2)
        ref_map = _reference_map(s1, s2, family)
        member = _null_member(rng, ref_map, s1.dim)
        res = _assert_matches_oracle(member, s1, s2, family, ref_map)
        assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
        res = _assert_matches_oracle(_bumped(rng, member, family), s1, s2, family, ref_map)
        assert res["verdict"] == "not-in-kernel" and res["agreement"] == "confirmed"


@pytest.mark.parametrize("order", [8, 64])
def test_caps_never_confirm_a_wrong_verdict(order):
    # poles at the 0.9 cap, d = 3 and four factors per theta: the widest
    # spread of singular values in the documented range
    rng = np.random.default_rng([47, order])
    s1 = ModelSpace.from_product(random_inner(rng, 3, 4, 0.8999999), order)
    s2 = ModelSpace.from_product(random_inner(rng, 3, 4, 0.8999999), order)
    for family in ("toeplitz", "hankel"):
        ref_map = _reference_map(s1, s2, family)
        member = _null_member(rng, ref_map, s1.dim)
        for symbol, truth in ((member, "in-kernel"),
                              (_bumped(rng, member, family), "not-in-kernel")):
            res = kernel_test(symbol, s1, s2, family)
            assert res["agreement"] != "confirmed" or res["verdict"] == truth, res


# -- the per-pair cache --------------------------------------------------------

def _counting(monkeypatch):
    """Record every SVD: kernel_test factors each symbol map with one."""
    factored = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        factored.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return factored


def test_second_query_on_a_pair_builds_nothing(monkeypatch):
    # builds apply the symbol map too; what a second query must not repeat
    # is the factorization
    s1 = ModelSpace.from_product(diagonal_monomial([2, 1]), 16)
    s2 = ModelSpace.from_product(diagonal_monomial([1, 2]), 16)
    factored = _counting(monkeypatch)
    first = kernel_test(Laurent.monomial(-2, np.eye(2)), s1, s2, "toeplitz")
    second = kernel_test(Laurent.monomial(0, np.eye(2)), s1, s2, "toeplitz")
    assert len(factored) == 1
    assert first["verdict"] == "in-kernel" and second["verdict"] == "not-in-kernel"
    kernel_test(Laurent.monomial(-2, np.eye(2)), s1, s2, "hankel")
    kernel_test(Laurent.monomial(-3, np.eye(2)), s1, s2, "hankel")
    assert len(factored) == 2
    kernel_test(Laurent.monomial(-2, np.eye(2)), s2, s1, "toeplitz")
    assert len(factored) == 3


def _power_state(mats):
    """How far each kept ``Powers`` has grown; None for a plain matrix."""
    return [None if isinstance(m, np.ndarray)
            else (len(m.squarings), len(m.norms), 0 if m.stack is None else len(m.stack))
            for m in mats]


def _power_work(monkeypatch):
    """Wrap ``stein`` and ``matrix_powers`` where ``operators`` calls them and
    record, per call, whether it computed any power: a plain matrix argument
    has all its powers computed anew, a kept ``Powers`` only when it grows."""
    work = []

    def wrap(fn, positions):
        def counted(*args):
            before = _power_state([args[i] for i in positions])
            out = fn(*args)
            work.append(None in before or before != _power_state([args[i] for i in positions]))
            return out
        return counted

    monkeypatch.setattr(operators, "stein", wrap(operators.stein, (0, 2)))
    monkeypatch.setattr(operators, "matrix_powers", wrap(operators.matrix_powers, (0,)))
    return work


def test_second_query_on_a_pair_squares_nothing(monkeypatch):
    # the first query of each family factors the pair's symbol map at the
    # Cayley-Hamilton reach, past the symbols' reach 3: the powers it leaves
    # on the two spaces (A1 and A2*) serve every later build
    rng = np.random.default_rng(23)
    s1 = ModelSpace.from_product(random_inner(rng, 2, 2, 0.8), 16)
    s2 = ModelSpace.from_product(random_inner(rng, 2, 3, 0.8), 16)
    for family in ("toeplitz", "hankel"):
        kernel_test(random_symbol(rng, 2, 3, 7), s1, s2, family)
        before = _power_state([s1.a_powers, s2.ah_powers])
        work = _power_work(monkeypatch)
        kernel_test(random_symbol(rng, 2, 3, 7), s1, s2, family)
        monkeypatch.undo()
        assert work and not any(work), (family, work)
        assert _power_state([s1.a_powers, s2.ah_powers]) == before


def test_conjugations_do_not_change_the_result():
    # fresh spaces per conjugation pair, so each result is factored anew
    rng = np.random.default_rng(41)
    theta1 = random_inner(rng, 2, 2, 0.5)
    theta2 = random_inner(rng, 2, 2, 0.5)
    symbol = Laurent(rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2)), 4)
    w = random_unitary(rng, 2)
    conjugations = (None, Conjugation.identity(2), Conjugation(np.diag([1j, -1.0])),
                    Conjugation(w @ w.T))
    for family in ("toeplitz", "hankel"):
        results = []
        for conj1, conj2 in itertools.product(conjugations, repeat=2):
            s1 = ModelSpace.from_product(theta1, 16)
            s2 = ModelSpace.from_product(theta2, 16)
            results.append(kernel_test(symbol, s1, s2, family, conj1, conj2))
        assert all(res == results[0] for res in results)


def test_cache_holds_no_strong_reference_to_the_spaces():
    s1 = ModelSpace.from_product(diagonal_monomial([2]), 16)
    s2 = ModelSpace.from_product(diagonal_monomial([3]), 16)
    for family in ("toeplitz", "hankel"):
        kernel_test(Laurent.monomial(2, np.eye(1)), s1, s2, family)
        kernel_test(Laurent.monomial(2, np.eye(1)), s2, s2, family)
    assert len(s2.kernel_classes) == 2
    refs = [weakref.ref(s1), weakref.ref(s2)]
    del s1, s2
    gc.collect()
    assert [r() for r in refs] == [None, None]


# -- the window ----------------------------------------------------------------

def test_the_window_changes_no_result():
    # kernel_test reads no window order: the same thetas at windows 8 and 256
    # give the same results to the last bit, for symbols inside lag 8 and past it
    rng = np.random.default_rng(48)
    thetas = [random_inner(rng, 2, 2, 0.6) for _ in range(2)]
    pairs = [[ModelSpace.from_product(theta, order) for theta in thetas] for order in (8, 256)]
    gens = kernel_generators(*pairs[0], "toeplitz", None, None)
    symbols = [Laurent(rng.standard_normal((25, 2, 2)) + 1j * rng.standard_normal((25, 2, 2)), 12),
               _member(rng, gens, 8, 2), Laurent.monomial(-11, np.eye(2))]
    for family, symbol in itertools.product(("toeplitz", "hankel"), symbols):
        narrow, wide = (kernel_test(symbol, s1, s2, family) for s1, s2 in pairs)
        assert narrow == wide, (family, narrow, wide)


# -- numerical edges -----------------------------------------------------------

def test_large_member_stays_in_kernel():
    # the distance is the norm of |W^* a| for the member's own build a; a
    # difference of squared norms would lose about sqrt(eps) |Phi|, as large
    # as the threshold itself
    rng = np.random.default_rng(42)
    for family in ("toeplitz", "hankel"):
        theta1, conj1 = _symmetric_theta(rng, 2, 0.25)
        theta2, conj2 = _symmetric_theta(rng, 2, 0.25)
        s1 = ModelSpace.from_product(theta1, 64)
        s2 = ModelSpace.from_product(theta2, 64)
        gens = kernel_generators(s1, s2, family, conj1, conj2)
        member = _member(rng, gens[len(gens) // 2:], 64, 2)
        member = member.scale(1e4 / member.norm())
        res = _assert_matches_oracle(member, s1, s2, family, None, conj1, conj2)
        assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
        assert res["distance"] <= 1e-10 * member.norm()


@pytest.mark.parametrize("eps", [1e-10, 1e-9, 3e-9])
def test_near_member_is_judged_at_one_threshold(eps):
    # a unit kernel member plus eps times a constant of norm 3: the class
    # distance (3 eps) and the built operator (about 3 eps) sit in the band
    # where a stricter zero test on the operator would read "conflict"; at
    # one threshold both measurements agree, and the record accepts
    s1 = ModelSpace.from_product(diagonal_monomial([2, 1]), 16)
    s2 = ModelSpace.from_product(diagonal_monomial([1, 3]), 16)
    rng = np.random.default_rng(0)
    member = _null_member(rng, _reference_map(s1, s2, "toeplitz"), 2)
    outsider = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    outsider *= 3.0 / np.linalg.norm(outsider)
    symbol = (member.scale(1.0 / member.norm())
              + Laurent.monomial(0, eps * outsider).with_order(member.order))
    res = _assert_matches_oracle(symbol, s1, s2, "toeplitz")
    assert 2.5 * eps < res["distance"] and 2.5 * eps < res["matrix_norm"]
    assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
    assert kernel_check(symbol, res, THRESHOLD).accepted()


def test_empty_generator_blocks():
    # poles at 0.9 reach the whole window 8: each toeplitz side keeps only
    # its k = 0 generators, and the hankel sandwich block is empty; the map
    # has no such limit, so a symbol with negative lags still gets an answer
    rng = np.random.default_rng(43)
    theta1, conj1 = _symmetric_theta(rng, 2, 0.9)
    theta2, conj2 = _symmetric_theta(rng, 2, 0.9)
    s1 = ModelSpace.from_product(theta1, 8)
    s2 = ModelSpace.from_product(theta2, 8)
    assert len(kernel_generators(s1, s2, "toeplitz", conj1, conj2)) == 2 * 4
    assert len(kernel_generators(s1, s2, "hankel", conj1, conj2)) == 9 * 4
    symbol = Laurent(rng.standard_normal((17, 2, 2)) + 0j, 8)
    res = _assert_matches_oracle(symbol, s1, s2, "toeplitz", None, conj1, conj2)
    assert res["verdict"] == "not-in-kernel"
    analytic = riesz_split(symbol)[0].with_order(8)
    res = _assert_matches_oracle(analytic, s1, s2, "hankel", None, conj1, conj2)
    assert res["verdict"] == "in-kernel" and res["distance"] == 0.0
    res = _assert_matches_oracle(symbol, s1, s2, "hankel", None, conj1, conj2)
    assert res["verdict"] == "not-in-kernel" and res["agreement"] == "confirmed"


def test_spaces_of_different_orders():
    # at poles 0.9 the lags past the smaller window still build nonzero columns
    rng = np.random.default_rng(44)
    for family in ("toeplitz", "hankel"):
        for modulus, orders in ((0.25, (40, 56)), (0.9, (8, 16))):
            theta1, conj1 = _symmetric_theta(rng, 2, modulus)
            theta2, conj2 = _symmetric_theta(rng, 2, modulus)
            for o1, o2 in (orders, orders[::-1]):
                s1 = ModelSpace.from_product(theta1, o1)
                s2 = ModelSpace.from_product(theta2, o2)
                _check_pair(rng, s1, s2, family, conj1, conj2)


def test_scalar_pair():
    rng = np.random.default_rng(45)
    theta1, conj1 = _symmetric_theta(rng, 1, 0.25, per_slot=3)
    theta2, conj2 = _symmetric_theta(rng, 1, 0.6, per_slot=2)
    s1 = ModelSpace.from_product(theta1, 64)
    s2 = ModelSpace.from_product(theta2, 64)
    for family in ("toeplitz", "hankel"):
        _check_pair(rng, s1, s2, family, conj1, conj2)
