"""Wire encoding for complex data: every complex scalar travels as [re, im]."""

import numpy as np

__all__ = [
    "ScenarioError",
    "complex_to_pair",
    "pair_to_complex",
    "array_to_json",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "refuse_unknown_keys",
]


class ScenarioError(ValueError):
    """A JSON payload failed validation. The message names the offending field."""


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(_is_number(t) for t in obj):
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
    """The complex values of a list of [re, im] lists of ints and floats, by one
    type pass and one conversion; None if any entry is anything else, which
    the caller then decodes entry by entry (``pair_to_complex``) for its message."""
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        return None
    flat = [t for p in pairs for t in p]
    if set(map(type, flat)) - {int, float}:
        return None
    return np.array(flat, dtype=float).view(complex)


def vector_from_json(obj, field, length=None):
    if not isinstance(obj, list):
        raise ScenarioError(f"{field}: expected a list of [re, im] pairs")
    out = _plain_pairs(obj)
    if out is None:
        out = np.array([pair_to_complex(p, f"{field}[{i}]") for i, p in enumerate(obj)],
                       dtype=complex)
    if length is not None and out.size != length:
        raise ScenarioError(f"{field}: expected length {length}, got {out.size}")
    return out


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
