"""The factored kernel class against the dense generator-stack oracle, its cache, and edges."""

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
from matholab.kernelclass import _effective_reach
from matholab.laurent import Laurent
from matholab.operators import KernelClass, kernel_test
from matholab.sampling import random_unitary
from oracle import dense_kernel_distance, kernel_generators

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


def _assert_matches_oracle(symbol, s1, s2, family, conj1, conj2):
    """kernel_test equals the dense oracle: distance to 1e-12 (1 + |Phi|), same verdicts."""
    res = kernel_test(symbol, s1, s2, family, conj1, conj2)
    ref = dense_kernel_distance(symbol, s1, s2, family, conj1, conj2)
    scale = symbol.norm()
    assert abs(res["distance"] - ref) <= 1e-12 * (1.0 + scale), (res, ref)
    ref_in = ref <= THRESHOLD * (1.0 + scale)
    assert res["verdict"] == ("in-kernel" if ref_in else "not-in-kernel")
    is_zero = res["matrix_norm"] <= 1e-10 * (1.0 + scale)
    ref_agreement = ("confirmed" if ref_in == is_zero
                     else "conflict" if ref_in else "class-gap")
    assert res["agreement"] == ref_agreement
    return res


def _hankel_guarded(symbol, s1, s2):
    """True when the hankel generators cannot fit the window for this symbol."""
    needs = (_effective_reach(s1.theta_series)[1] + _effective_reach(s2.theta_series)[1])
    return _effective_reach(symbol)[0] < 0 and max(s1.order, s2.order) < needs


def _check_pair(rng, s1, s2, family, conj1, conj2):
    order, dim = max(s1.order, s2.order), s1.dim
    gens = kernel_generators(s1, s2, family, conj1, conj2)
    member = _member(rng, gens, order, dim)
    for symbol in (member, _bumped(rng, member, family)):
        if family == "hankel" and _hankel_guarded(symbol, s1, s2):
            with pytest.raises(ValueError, match="cannot hold the hankel kernel generators"):
                kernel_test(symbol, s1, s2, family, conj1, conj2)
            continue
        _assert_matches_oracle(symbol, s1, s2, family, conj1, conj2)


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
    for req in itertools.islice(stream, cycle):
        pair, symbol, family, conj1, conj2 = req.run.args
        res = _assert_matches_oracle(symbol, *pair["spaces"], family, conj1, conj2)
        assert res["verdict"] == req.expected["class"]

    kernel_cells = 0
    for req in itertools.islice(workloads.scenario_mix(3, workloads.MEASURED),
                                len(workloads.SCENARIO_CELLS)):
        command, doc = req.run.args
        if command != "kernel":
            continue
        sc = parse_scenario(doc, command)
        spaces = [ModelSpace.from_product(t, sc.trunc_order) for t in (sc.theta1, sc.theta2)]
        res = _assert_matches_oracle(sc.symbol, *spaces, sc.params["family"], sc.conj1, sc.conj2)
        assert res["verdict"] == req.expected["class"]
        kernel_cells += 1
    assert kernel_cells == 4


# -- the per-pair cache --------------------------------------------------------

def _counting(monkeypatch):
    built = []

    class Counting(KernelClass):
        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(operators, "KernelClass", Counting)
    return built


def test_second_query_on_a_pair_builds_nothing(monkeypatch):
    built = _counting(monkeypatch)
    s1 = ModelSpace.from_product(diagonal_monomial([2, 1]), 16)
    s2 = ModelSpace.from_product(diagonal_monomial([1, 2]), 16)
    first = kernel_test(Laurent.monomial(-2, np.eye(2)), s1, s2, "toeplitz")
    second = kernel_test(Laurent.monomial(0, np.eye(2)), s1, s2, "toeplitz")
    assert built == ["toeplitz"]
    assert first["verdict"] == "in-kernel" and second["verdict"] == "not-in-kernel"
    kernel_test(Laurent.monomial(-2, np.eye(2)), s2, s1, "toeplitz")
    assert built == ["toeplitz", "toeplitz"]


def test_each_conjugation_pair_gets_its_own_hankel_class(monkeypatch):
    # diagonal thetas are J-symmetric for every diagonal J, so both pairs
    # have a hankel class that the built operators confirm
    built = _counting(monkeypatch)
    rng = np.random.default_rng(41)
    s1 = ModelSpace.from_product(diagonal_monomial([2, 1]), 16)
    s2 = ModelSpace.from_product(diagonal_monomial([1, 2]), 16)
    ident = Conjugation.identity(2)
    phased = Conjugation(np.diag([1j, -1.0]))
    for j1, j2 in ((ident, ident), (phased, ident), (ident, ident), (phased, ident)):
        gens = kernel_generators(s1, s2, "hankel", j1, j2)
        member = _member(rng, gens[17 * 4:], 16, 2)   # past the 17 x 4 monomials
        res = _assert_matches_oracle(member, s1, s2, "hankel", j1, j2)
        assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
        res = _assert_matches_oracle(_bumped(rng, member, "hankel"), s1, s2, "hankel", j1, j2)
        assert res["verdict"] == "not-in-kernel" and res["agreement"] == "confirmed"
    assert built == ["hankel", "hankel"]


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


# -- numerical edges -----------------------------------------------------------

def test_large_member_stays_in_kernel():
    # the distance is the norm of an explicit residual; a difference of squared
    # norms would lose about sqrt(eps) |Phi|, as large as the threshold itself
    rng = np.random.default_rng(42)
    for family in ("toeplitz", "hankel"):
        theta1, conj1 = _symmetric_theta(rng, 2, 0.25)
        theta2, conj2 = _symmetric_theta(rng, 2, 0.25)
        s1 = ModelSpace.from_product(theta1, 64)
        s2 = ModelSpace.from_product(theta2, 64)
        gens = kernel_generators(s1, s2, family, conj1, conj2)
        member = _member(rng, gens[len(gens) // 2:], 64, 2)
        member = member.scale(1e4 / member.norm())
        res = _assert_matches_oracle(member, s1, s2, family, conj1, conj2)
        assert res["verdict"] == "in-kernel" and res["agreement"] == "confirmed"
        assert res["distance"] <= 1e-10 * member.norm()


def test_empty_generator_blocks():
    # poles at 0.9 reach the whole window 8: each toeplitz side keeps only
    # its k = 0 generators, and the hankel sandwich block is empty
    rng = np.random.default_rng(43)
    theta1, conj1 = _symmetric_theta(rng, 2, 0.9)
    theta2, conj2 = _symmetric_theta(rng, 2, 0.9)
    s1 = ModelSpace.from_product(theta1, 8)
    s2 = ModelSpace.from_product(theta2, 8)
    assert len(kernel_generators(s1, s2, "toeplitz", conj1, conj2)) == 2 * 4
    assert len(kernel_generators(s1, s2, "hankel", conj1, conj2)) == 9 * 4
    symbol = Laurent(rng.standard_normal((17, 2, 2)) + 0j, 8)
    res = _assert_matches_oracle(symbol, s1, s2, "toeplitz", conj1, conj2)
    assert res["verdict"] == "not-in-kernel"
    analytic = symbol.riesz_split()[0].with_order(8)
    res = _assert_matches_oracle(analytic, s1, s2, "hankel", conj1, conj2)
    assert res["verdict"] == "in-kernel" and res["distance"] == 0.0
    with pytest.raises(ValueError, match="cannot hold the hankel kernel generators"):
        kernel_test(symbol, s1, s2, "hankel", conj1, conj2)


def test_spaces_of_different_orders():
    rng = np.random.default_rng(44)
    for family in ("toeplitz", "hankel"):
        theta1, conj1 = _symmetric_theta(rng, 2, 0.25)
        theta2, conj2 = _symmetric_theta(rng, 2, 0.25)
        for o1, o2 in ((40, 56), (56, 40)):
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


def test_hankel_guard_message_is_unchanged():
    tight = ModelSpace.from_product(diagonal_monomial([5]), 8)
    conj = Conjugation.identity(1)
    with pytest.raises(ValueError, match=r"^window order 8 cannot hold the hankel kernel "
                                         r"generators \(needs at least 10\)$"):
        kernel_test(Laurent.monomial(-3, np.eye(1)), tight, tight, "hankel", conj, conj)
