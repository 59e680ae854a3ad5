"""Whole-array JSON encoders against the per-element reference in oracle.py,
and the decoders' refusals.

Equal objects are not enough: 1 == 1.0 and -0.0 == 0.0 in Python, so every
comparison also asserts identical JSON text, which spells each float by its
repr.
"""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matholab import (BlaschkePotapovProduct, Conjugation, CrofootData, Laurent, ModelSpace,
                      PotapovFactor, cli, diagonal_monomial, scalar_blaschke)
from matholab.jsonio import ScenarioError, matrix_from_json, matrix_to_json, vector_to_json
from matholab.sampling import random_crofoot, random_inner, random_symbol

import oracle

# signed zeros, subnormals and the extremes of the normal range next to ordinary floats
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1.7976931348623157e308, 1.0, -1.5]
floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)


def _same(got, want):
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def _complex_array(shape, data):
    parts = [np.array(data.draw(st.lists(floats, min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape)))), dtype=float)
             for _ in range(2)]
    out = np.empty(shape, dtype=complex)
    # assigned part by part: re + 1j * im would lose the sign of an imaginary zero
    out.real, out.imag = (p.reshape(shape) for p in parts)
    return out


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))


@given(shape=shapes, data=st.data())
def test_vector_and_matrix_encoders_match_reference(shape, data):
    a = _complex_array(shape, data)
    _same(matrix_to_json(a), oracle.matrix_to_json(a))
    _same(vector_to_json(a[0]), oracle.vector_to_json(a[0]))
    _same(vector_to_json(a), oracle.vector_to_json(a))


def test_encoders_keep_real_and_integer_inputs_as_floats():
    for a in (np.array([[1, -2], [0, 3]]), np.array([[-0.0, 5e-324]])):
        _same(matrix_to_json(a), oracle.matrix_to_json(a))
        _same(vector_to_json(a), oracle.vector_to_json(a))


@given(dim=st.integers(1, 3), order=st.integers(0, 4), matrix=st.booleans(),
       zero_slots=st.sets(st.integers(0, 8)), data=st.data())
def test_laurent_to_json_matches_reference(dim, order, matrix, zero_slots, data):
    shape = (2 * order + 1, dim, dim) if matrix else (2 * order + 1, dim)
    coeffs = _complex_array(shape, data)
    # whole slots of exact zeros (of either sign) are left out of the payload
    for slot in zero_slots & set(range(2 * order + 1)):
        coeffs[slot] = -0.0 if slot % 2 else 0.0
    series = Laurent(coeffs, order, data.draw(floats.map(abs)))
    _same(series.to_json(), oracle.laurent_to_json(series))


@pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 3)])
def test_all_zero_window_encodes_like_reference(shape):
    series = Laurent.zeros(shape, 4)
    _same(series.to_json(), oracle.laurent_to_json(series))
    assert series.to_json()["coeffs"] == {}


@pytest.mark.parametrize("theta", [
    diagonal_monomial([1, 2]), diagonal_monomial([3]), scalar_blaschke([0.0, 0.5, -0.3j]),
    random_inner(np.random.default_rng(7), 3, n_factors=3, max_abs=0.9)],
    ids=["diag12", "diag3", "scalar", "random3"])
def test_describe_matches_reference(theta):
    space = ModelSpace.from_product(theta, 12)
    _same(space.describe(), oracle.describe(space))


# -- decoding: every refusal names the offending entry ----------------------------

def _verify_doc():
    """A valid verify scenario whose theta1, j1, w1 and symbol carry 2 x 2 matrices."""
    rng = np.random.default_rng(8)
    v = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    return {"theta1": random_inner(rng, 2, 1, 0.5).to_json(),
            "theta2": random_inner(rng, 2, 1, 0.5).to_json(),
            "j1": Conjugation(v @ v.T).to_json(), "w1": random_crofoot(rng, 2).to_json(),
            "symbol": random_symbol(rng, 2, reach=0, n_terms=1).to_json(), "name": "crofoot"}


# field name in the refusal -> the matrix payload in _verify_doc
MATRIX_FIELDS = {
    "theta1.factors[0].frame": lambda doc: doc["theta1"]["factors"][0]["frame"],
    "theta1.factors[0].post_unitary": lambda doc: doc["theta1"]["factors"][0]["post_unitary"],
    "j1.unitary": lambda doc: doc["j1"]["unitary"],
    "w1.w": lambda doc: doc["w1"]["w"],
    "symbol.coeffs[0]": lambda doc: doc["symbol"]["coeffs"]["0"],
}
BAD_ENTRIES = {"boolean": [True, 0.0], "string": ["0.5", 0.0], "none": None,
               "bare-boolean": False, "three-element": [0.5, 0.0, 0.0]}


def test_verify_doc_decodes():
    assert cli.parse_scenario(_verify_doc(), "verify").symbol.dim == 2


@pytest.mark.parametrize("bad", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
@pytest.mark.parametrize("field", MATRIX_FIELDS)
def test_bad_entries_are_refused_by_name(field, bad):
    doc = copy.deepcopy(_verify_doc())
    MATRIX_FIELDS[field](doc)[1][0] = bad
    want = f"{field}[1][0]: expected an [re, im] pair, got {bad!r}"
    with pytest.raises(ScenarioError, match=re.escape(want)):
        cli.parse_scenario(doc, "verify")


@pytest.mark.parametrize("field", MATRIX_FIELDS)
def test_ragged_rows_are_refused_by_name(field):
    doc = copy.deepcopy(_verify_doc())
    MATRIX_FIELDS[field](doc)[1].pop()
    want = f"{field}[1]: ragged row (expected 2 entries)"
    with pytest.raises(ScenarioError, match=re.escape(want)):
        cli.parse_scenario(doc, "verify")


def test_matrix_decoder_takes_ints_tuples_and_numpy_floats():
    want = np.array([[1 + 2j, -0.5], [0.0, 3j]])
    assert np.array_equal(matrix_from_json([[[1, 2], [-0.5, 0]], [[0, 0], [0, 3]]], "m"), want)
    assert np.array_equal(matrix_from_json([[(1.0, 2.0), [np.float64(-0.5), 0.0]],
                                            [[0.0, 0.0], [0.0, 3.0]]], "m"), want)
    assert matrix_from_json([[], []], "m").shape == (2, 0)


# -- theta documents decode factor by factor, each refusal by name -------------------

def _theta_doc():
    """A verify scenario whose theta1 has three factors of mixed rank."""
    doc = _verify_doc()
    doc["theta1"] = random_inner(np.random.default_rng(9), 2, 3, 0.5).to_json()
    return doc


def _spoil(where, value):
    def spoil(doc):
        factor = doc["theta1"]["factors"][2]
        if where == "a":
            factor["a"] = value
        else:
            factor[where][1][0] = value
    return spoil


def _pop_entry(doc):
    doc["theta1"]["factors"][2]["frame"][1].pop()


FACTOR_REFUSALS = {
    "bad-frame": (_spoil("frame", [0.5, 0.0]),
                  "theta1.factors[2]: frame columns are not orthonormal"),
    "non-unitary-post": (_spoil("post_unitary", [0.5, 0.0]),
                         "theta1.factors[2]: post_unitary is not unitary"),
    "pole-over-cap": (_spoil("a", [0.95, 0.0]),
                      "theta1.factors[2]: pole parameter |a| = 0.950 exceeds the 0.9 cap"),
    "ragged-row": (_pop_entry, "theta1.factors[2].frame[1]: ragged row (expected 2 entries)"),
    "bool-entry": (_spoil("post_unitary", [True, 0.0]),
                   "theta1.factors[2].post_unitary[1][0]: expected an [re, im] pair, "
                   "got [True, 0.0]"),
}


def test_mixed_rank_theta_doc_decodes_to_its_realization():
    doc = _theta_doc()
    ranks = [len(f["frame"][0]) for f in doc["theta1"]["factors"]]
    assert len(set(ranks)) == 2
    space = cli.parse_scenario(doc, "verify").space1
    want = random_inner(np.random.default_rng(9), 2, 3, 0.5).realization()
    assert all(np.array_equal(got, m) for got, m in zip(space.realization, want))


@pytest.mark.parametrize("spoil, want", FACTOR_REFUSALS.values(), ids=FACTOR_REFUSALS.keys())
def test_bad_factors_are_refused_by_name(spoil, want):
    doc = copy.deepcopy(_theta_doc())
    spoil(doc)
    with pytest.raises(ScenarioError, match=re.escape(want)):
        cli.parse_scenario(doc, "verify")


# -- sizes are bounded at parse ------------------------------------------------------

def _zeros(rows, cols):
    return [[[0.0, 0.0]] * cols for _ in range(rows)]


def _factor(rows):
    """A rank-1 factor document whose frame and post_unitary have this many rows."""
    eye = np.eye(rows)
    return {"a": [0.5, 0.0], "frame": matrix_to_json(eye[:, :1]),
            "post_unitary": matrix_to_json(eye)}


def _space(theta1, **fields):
    return cli.parse_scenario({"theta1": theta1, **fields}, "space")


# per input: a document of a given size, the bound on that size, and the refusal one past it
D, N = cli.MAX_DIM, cli.MAX_STATE_DIM
SIZE_BOUNDS = {
    "symbol-dim": (lambda n: Laurent.from_json({"dim": n, "coeffs": {}}, "symbol"),
                   D, f"symbol.dim: expected an integer in [1, {D}]"),
    "theta-dim": (lambda n: BlaschkePotapovProduct.from_json({"dim": n}, "theta1"),
                  D, f"theta1.dim: expected an integer in [1, {D}]"),
    "powers-count": (lambda n: _space({"powers": [1] * n}), D, "theta1.powers: expected at most"),
    "powers-sum": (lambda n: _space({"powers": [n]}), N, "theta1.powers: expected at most"),
    "poles": (lambda n: _space({"poles": [[0.5, 0.0]] * n}), N,
              f"theta1.poles: expected a list of 1 to {N}"),
    "factor-ranks": (lambda n: _space({"dim": 1, "factors": [_factor(1)] * n}), N,
                     f"theta1.factors: the ranks sum past the largest state dimension {N}"),
    "frame": (lambda n: PotapovFactor.from_json(_factor(n), "factors[0]"),
              D, f"factors[0].frame: more than {D} rows or columns"),
    "j": (lambda n: Conjugation.from_json({"unitary": matrix_to_json(np.eye(n))}, "j1"),
          D, f"j1.unitary: more than {D} rows or columns"),
    "w": (lambda n: CrofootData.from_json({"w": _zeros(n, n)}, "w1"),
          D, f"w1.w: more than {D} rows or columns"),
    "w-matrix": (lambda n: _space({"powers": [1] * min(n, D)}, w1=_zeros(n, n)),
                 D, f"w1: more than {D} rows or columns"),
    "operator": (lambda n: _space({"powers": [1]}, operator=_zeros(n, n)),
                 N, f"operator: more than {N} rows or columns"),
}


@pytest.mark.parametrize("build, bound, refusal", SIZE_BOUNDS.values(), ids=SIZE_BOUNDS.keys())
def test_sizes_are_bounded_at_parse(build, bound, refusal):
    # the bound itself is read; one past it is refused by name, before
    # anything of that size is allocated
    build(bound)
    with pytest.raises(ScenarioError, match=re.escape(refusal)):
        build(bound + 1)
