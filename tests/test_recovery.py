"""Symbol recovery: the linear map Phi -> built matrix against the builds of
unit symbols, and round trips over the documented input range."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from matholab import ModelSpace, build_matho, build_matto, displacement_check, recover_symbol
from matholab.operators import _symbol_map
from matholab.sampling import random_inner, random_symbol, random_symmetric_inner

import oracle

families = st.sampled_from(["toeplitz", "hankel"])


# unequal windows at full reach: lags past either window give zero columns
@example(family="toeplitz", dim=2, order1=13, order2=8, reach=13, seed=0)
@example(family="toeplitz", dim=2, order1=8, order2=13, reach=13, seed=0)
@example(family="hankel", dim=2, order1=13, order2=8, reach=22, seed=0)
@given(family=families, dim=st.integers(1, 3), order1=st.integers(8, 64),
       order2=st.integers(8, 64), reach=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_symbol_map_matches_unit_symbol_builds(family, dim, order1, order2, reach, seed):
    rng = np.random.default_rng(seed)
    s1 = ModelSpace.from_product(random_inner(rng, dim, max_abs=0.6), order1)
    s2 = ModelSpace.from_product(random_inner(rng, dim, max_abs=0.6), order2)
    lags, mat = _symbol_map(s1, s2, family, reach)
    ref_lags, ref = oracle.symbol_map(s1, s2, family, reach)
    assert lags == ref_lags
    assert mat.shape == ref.shape
    assert np.max(np.abs(mat - ref)) <= 1e-13


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
