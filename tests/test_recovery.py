"""Symbol recovery: the linear map Phi -> built matrix against the window
builds of unit symbols, and round trips over the documented input range."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from matholab import ModelSpace, build_matho, build_matto, displacement_check, recover_symbol
from matholab.laurent import Laurent
from matholab.operators import _symbol_map
from matholab.sampling import random_inner, random_symbol, random_symmetric_inner

import oracle

families = st.sampled_from(["toeplitz", "hankel"])


def _unit_symbol_builds(s1, s2, family, reach):
    """The window build of every unit symbol E_ab z^k, one at a time."""
    build = oracle.window_matto if family == "toeplitz" else oracle.window_matho
    lags = range(-reach, reach + 1) if family == "toeplitz" else range(-reach, 0)
    units = [np.outer(a, b) for a in np.eye(s1.dim) for b in np.eye(s1.dim)]
    return np.stack([build(s1, s2, Laurent.monomial(k, e)).ravel()
                     for k in lags for e in units], axis=1)


# unequal windows past full reach: the window builds give zero columns at the
# lags past either window (toeplitz) or past both together (hankel)
@example(family="toeplitz", dim=2, order1=13, order2=8, reach=15, seed=0)
@example(family="toeplitz", dim=2, order1=8, order2=13, reach=15, seed=0)
@example(family="hankel", dim=2, order1=13, order2=8, reach=24, seed=0)
@given(family=families, dim=st.integers(1, 3), order1=st.integers(8, 24),
       order2=st.integers(8, 24), reach=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_window_symbol_map_is_the_window_builds_of_unit_symbols(family, dim, order1, order2,
                                                                reach, seed):
    # the reference against the reference it is written from, on any window
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, max_abs=0.9), order1)
    s2 = ModelSpace.from_product(random_inner(rng, dim, max_abs=0.9), order2)
    lags, mat = oracle.symbol_map(s1, s2, family, reach)
    ref = _unit_symbol_builds(s1, s2, family, reach)
    assert mat.shape == ref.shape
    assert np.max(np.abs(mat - ref)) <= 1e-15
    past = [k > order2 or k < -order1 if family == "toeplitz" else k < -(order1 + order2 + 1)
            for k in lags]
    assert not np.any(mat[:, np.repeat(past, dim * dim)])


@example(family="toeplitz", dim=2, order1=128, order2=96, reach=140, seed=0)
@example(family="hankel", dim=2, order1=96, order2=128, reach=230, seed=0)
@given(family=families, dim=st.integers(1, 3), order1=st.integers(96, 128),
       order2=st.integers(96, 128), reach=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_symbol_map_matches_unit_symbol_builds(family, dim, order1, order2, reach, seed):
    # poles up to 0.6 and windows from 96 hold the basis functions to 1e-13
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, max_abs=0.6), order1)
    s2 = ModelSpace.from_product(random_inner(rng, dim, max_abs=0.6), order2)
    assert max(s1.tails.max(), s2.tails.max()) < 1e-13
    lags, mat = _symbol_map(s1, s2, family, reach)
    ref_lags, ref = oracle.symbol_map(s1, s2, family, reach)
    assert lags == ref_lags
    assert mat.shape == ref.shape
    assert np.max(np.abs(mat - ref)) <= 1e-13


@given(family=families, dim=st.integers(1, 3), n_factors=st.integers(1, 4),
       max_abs=st.floats(0.0, 0.8999999), order1=st.integers(8, 64), order2=st.integers(8, 64),
       seed=st.integers(0, 2 ** 16))
def test_symbol_map_matches_the_window_map_of_an_exact_window(family, dim, n_factors, max_abs,
                                                              order1, order2, seed):
    # the map does not depend on the spaces' windows: at every window it is
    # the window map of the same realizations on an exact window, over the
    # lags operators.kernel_test factors and out to the larger window
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), order1)
    s2 = ModelSpace.from_product(random_inner(rng, dim, n_factors, max_abs), order2)
    reach = max(oracle.full_reach(s1, s2, family), order1, order2)
    mat = _symbol_map(s1, s2, family, reach)[1]
    assert np.max(np.abs(mat - oracle.exact_symbol_map(s1, s2, family, reach)[1])) <= 1e-13


def _theta(kind, rng, dim, n_factors, max_abs):
    if kind == "random_inner":
        return random_inner(rng, dim, n_factors, max_abs)
    return random_symmetric_inner(rng, dim, n_factors, max_abs)[0]


# max_abs 0 puts every pole at the origin; 0.8999999 keeps them under the 0.9 cap
@settings(max_examples=100)
@example(kind="random_inner", dim=3, n_factors=4, max_abs=0.8999999, order=8, seed=0)
@example(kind="random_symmetric_inner", dim=3, n_factors=4, max_abs=0.8999999, order=8, seed=0)
@given(kind=st.sampled_from(["random_inner", "random_symmetric_inner"]), dim=st.integers(1, 3),
       n_factors=st.integers(1, 4), max_abs=st.just(0.0) | st.floats(0.01, 0.8999999),
       order=st.integers(8, 64), seed=st.integers(0, 2 ** 16))
def test_accepted_operators_rebuild_within_threshold(kind, dim, n_factors, max_abs, order, seed):
    threshold = 1e-8
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(_theta(kind, rng, dim, n_factors, max_abs), order)
    s2 = ModelSpace.from_product(_theta(kind, rng, dim, n_factors, max_abs), order)
    phi = random_symbol(rng, dim)
    for family, build, member in (("toeplitz", build_matto, "T1"), ("hankel", build_matho, "H1")):
        op = build(s1, s2, phi)
        if not displacement_check(op, member, threshold).accepted():
            continue
        psi, gap = recover_symbol(op, family, threshold)
        assert gap <= threshold * (1.0 + np.linalg.norm(op.matrix)), (family, gap)
        assert psi.tail_bound == 0.0
        # the recovered polynomial spans exactly the lags of the stopping reach
        assert psi.order <= s1.dim_K + s2.dim_K, (family, psi.order)
