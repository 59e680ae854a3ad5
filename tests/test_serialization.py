"""Whole-array JSON encoders against the per-element reference in oracle.py.

Equal objects are not enough: 1 == 1.0 and -0.0 == 0.0 in Python, so every
comparison also asserts identical JSON text, which spells each float by its
repr.
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matholab import Laurent, ModelSpace, diagonal_monomial, scalar_blaschke
from matholab.jsonio import matrix_to_json, vector_to_json
from matholab.sampling import random_inner

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
