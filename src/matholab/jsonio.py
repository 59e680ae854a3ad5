"""Wire encoding for complex data: every complex scalar travels as [re, im].

The input boundary's shared rules live here: every number decoded must be
finite, and ``construct`` is the one place a constructor's refusal becomes a
``ScenarioError`` naming the field.
"""

import math
import sys

import numpy as np

__all__ = [
    "ScenarioError",
    "complex_to_pair",
    "pair_to_complex",
    "array_to_json",
    "vector_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "refuse_unknown_keys",
    "is_number",
    "construct",
]


class ScenarioError(ValueError):
    """A JSON payload failed validation. The message names the offending field."""


def is_number(x):
    """An int or float in the finite float range; a bool is not a number here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def construct(field, make, *args):
    """make(*args), with a plain ValueError from it (an input the constructor
    refuses) reported as ScenarioError("<field>: <message>"). A ScenarioError
    already names its field, and np.linalg.LinAlgError (a ValueError) is a
    numeric failure, not bad input: both pass as raised."""
    try:
        return make(*args)
    except (ScenarioError, np.linalg.LinAlgError):
        raise
    except ValueError as exc:
        raise ScenarioError(f"{field}: {exc}") from None


def refuse_unknown_keys(obj, known, field):
    """Refuse the first key of a document outside its known set, before any
    of its values is read."""
    for key in obj:
        if key not in known:
            raise ScenarioError(f"{field}.{key}: unknown field")


def complex_to_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(obj, field):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(is_number(t) for t in obj):
        raise ScenarioError(f"{field}: expected an [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def array_to_json(a):
    """Nested lists in the array's shape with each entry an [re, im] pair,
    encoded in one pass."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def vector_to_json(v):
    return array_to_json(np.ravel(v))


def _plain_pairs(pairs):
    """The complex values of a list of [re, im] lists of finite floats, by one
    type pass and one conversion; None if any entry is anything else (an int
    among them, which may be past the float range), which the caller then
    decodes entry by entry (``pair_to_complex``) for its value or message."""
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        return None
    flat = [t for p in pairs for t in p]
    # a NaN or an infinity makes the sum non-finite (a sum that overflows
    # from finite values only sends the list down the per-entry path)
    if set(map(type, flat)) - {float} or not math.isfinite(sum(flat)):
        return None
    return np.array(flat, dtype=float).view(complex)


def matrix_to_json(a):
    return array_to_json(a)


def matrix_from_json(obj, field, shape=None, limit=None):
    """The complex matrix of a list of rows; with limit, more rows or columns
    than that are refused before any entry is read."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ScenarioError(f"{field}: expected a list of rows of [re, im] pairs")
    width = len(obj[0])
    if limit is not None and max(len(obj), width) > limit:
        raise ScenarioError(f"{field}: more than {limit} rows or columns")
    out = None
    if set(map(len, obj)) == {width}:
        out = _plain_pairs([p for row in obj for p in row])
    if out is None:
        rows = []
        for i, row in enumerate(obj):
            if len(row) != width:
                raise ScenarioError(f"{field}[{i}]: ragged row (expected {width} entries)")
            rows.append([pair_to_complex(p, f"{field}[{i}][{j}]") for j, p in enumerate(row)])
        out = np.array(rows, dtype=complex)
    out = out.reshape(len(obj), width)
    if shape is not None and out.shape != shape:
        raise ScenarioError(f"{field}: expected shape {shape}, got {out.shape}")
    return out
