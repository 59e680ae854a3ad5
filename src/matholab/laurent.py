"""Truncated Laurent series with values of any shape: one window type.

A series f(z) = sum_n c_n z^n is stored on the symmetric index window
[-M, M]; ``order`` is M and ``coeffs[n + M]`` holds c_n. The value shape
``coeffs.shape[1:]`` is data, not type: ``(d,)`` for a vector function,
``(d, d)`` for a symbol or an inner function, ``(d, k)`` for k vector
functions side by side (a model-space basis is one such series). ``dim``
is always d, the row count. Alongside the stored coefficients each series
carries ``tail_bound``, a certified upper bound on the L^2 (Hilbert-Schmidt)
norm of everything that has ever been discarded, so a truncated object
still says how far it can be trusted.

Multiplication of stored windows is exact direct convolution (Laurent
polynomials multiply exactly, and a slot no pair of nonzero coefficients
reaches stays exactly zero); the tail propagates by the rule

    tail(F g) <= sup|F| * tail(g) + tail(F) * sup|g|,

where sup|.| is bounded by the l^1 sum of coefficient norms plus the tail.
Truncation folds the exact L^2 mass of dropped coefficients into the bound.
"""

from __future__ import annotations

import numpy as np

from .jsonio import (ScenarioError, array_to_json, matrix_from_json, refuse_unknown_keys,
                     vector_from_json)

__all__ = [
    "Laurent",
    "MatrixLaurent",
    "inner_product",
    "evaluate_many",
    "refit_on_circle",
]

# refit_on_circle folds coefficients below this share of the largest into tail_bound
_REFIT_DROP_TOL = 1e-13
# the largest window: a series read from JSON reaching past it, or declaring a
# larger trunc_order, is refused before its coefficients are allocated; a
# scenario's trunc_order has the same cap (a gated verify asks for
# max(trunc_order, 2n) matrix powers)
MAX_TRUNC_ORDER = 4096
# the largest matrix dimension d (of a symbol, a theta, J or W) and the largest
# state dimension n (of a theta's model space, so of an operator's rows and
# columns) that a document may declare, refused at parse before anything of
# that size is allocated; at both caps a symbol's largest window takes 34 MB
# and a gated verify's 4096 matrix powers 268 MB
MAX_DIM = 16
MAX_STATE_DIM = 64


class Laurent:
    """A coefficient window with vector or matrix values. Instances are immutable."""

    __slots__ = ("coeffs", "order", "tail_bound", "dim")

    def __init__(self, coeffs, order, tail_bound=0.0):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim not in (2, 3):
            raise ValueError("coefficients must have shape (2M+1, d) or (2M+1, d, k)")
        if coeffs.shape[0] != 2 * order + 1:
            raise ValueError(f"window length {coeffs.shape[0]} does not match order {order}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "tail_bound", float(tail_bound))
        object.__setattr__(self, "dim", int(coeffs.shape[1]))

    def __setattr__(self, name, value):
        raise AttributeError("Laurent objects are immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, shape, order=0):
        """The zero series whose values have the given shape tuple."""
        return cls(np.zeros((2 * order + 1, *shape), dtype=complex), order)

    @classmethod
    def constant(cls, value):
        return cls(np.asarray(value, dtype=complex)[None], 0)

    @classmethod
    def identity(cls, dim):
        return cls.constant(np.eye(dim))

    @classmethod
    def monomial(cls, n, value):
        """value * z^n."""
        value = np.asarray(value, dtype=complex)
        order = abs(int(n))
        out = np.zeros((2 * order + 1,) + value.shape, dtype=complex)
        out[n + order] = value
        return cls(out, order)

    @classmethod
    def from_coeff_map(cls, entries, dim, tail_bound=0.0):
        """Series from {n: c_n}; the c_n share one shape with ``dim`` rows."""
        values = {int(n): np.asarray(v, dtype=complex) for n, v in entries.items()}
        shape = next(iter(values.values())).shape if values else (dim, dim)
        if shape[0] != dim:
            raise ValueError(f"coefficients have {shape[0]} rows, expected {dim}")
        order = max([abs(n) for n in values], default=0)
        out = np.zeros((2 * order + 1,) + shape, dtype=complex)
        for n, v in values.items():
            out[n + order] = v
        return cls(out, order, tail_bound)

    # -- window access ---------------------------------------------------

    def coeff(self, n):
        """Coefficient c_n (zero outside the stored window)."""
        if abs(n) > self.order:
            return np.zeros(self.coeffs.shape[1:], dtype=complex)
        return self.coeffs[n + self.order]

    def _nonzero(self):
        """Window slots holding a nonzero coefficient (exact test, no tolerance)."""
        flat = self.coeffs.reshape(self.coeffs.shape[0], -1)
        return np.flatnonzero(np.any(flat != 0, axis=1))

    def support(self):
        """(nmin, nmax) of the nonzero stored coefficients; (0, 0) if zero."""
        nz = self._nonzero()
        if nz.size == 0:
            return (0, 0)
        return (int(nz[0]) - self.order, int(nz[-1]) - self.order)

    def _coeff_norms(self):
        flat = self.coeffs.reshape(self.coeffs.shape[0], -1)
        return np.linalg.norm(flat, axis=1)

    def with_order(self, order):
        """Re-embed in a window of at least the current order."""
        if order == self.order:
            return self
        if order < self.order:
            return self.truncate(order)
        pad = order - self.order
        out = np.zeros((2 * order + 1,) + self.coeffs.shape[1:], dtype=complex)
        out[pad:pad + 2 * self.order + 1] = self.coeffs
        return Laurent(out, order, self.tail_bound)

    def truncate(self, order):
        """Shrink the window to [-order, order]; dropped L^2 mass joins tail_bound."""
        if order >= self.order:
            return self.with_order(order)
        lo = self.order - order
        kept = self.coeffs[lo:lo + 2 * order + 1]
        norms = self._coeff_norms()
        extra = float(np.linalg.norm(np.concatenate([norms[:lo], norms[lo + 2 * order + 1:]])))
        return Laurent(kept, order, self.tail_bound + extra)

    def trim(self):
        """Smallest symmetric window holding all nonzero coefficients."""
        nmin, nmax = self.support()
        order = max(abs(nmin), abs(nmax))
        if order >= self.order:
            return self
        lo = self.order - order
        return Laurent(self.coeffs[lo:lo + 2 * order + 1], order, self.tail_bound)

    # -- linear structure ------------------------------------------------

    def _binary(self, other, op):
        if other.coeffs.shape[1:] != self.coeffs.shape[1:]:
            raise ValueError("operands have mismatched value shapes")
        order = max(self.order, other.order)
        a = self.with_order(order)
        b = other.with_order(order)
        return Laurent(op(a.coeffs, b.coeffs), order, self.tail_bound + other.tail_bound)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scale(self, c):
        return Laurent(self.coeffs * complex(c), self.order, abs(complex(c)) * self.tail_bound)

    def __neg__(self):
        return self.scale(-1.0)

    def left_const(self, a):
        """Apply a constant matrix to every coefficient: (A f)(z)."""
        a = np.asarray(a, dtype=complex)
        out = np.einsum("ab,nb...->na...", a, self.coeffs)
        return Laurent(out, self.order, float(np.linalg.norm(a, 2)) * self.tail_bound)

    def right_const(self, b):
        """Multiply every (matrix) coefficient on the right: (F B)(z)."""
        b = np.asarray(b, dtype=complex)
        return Laurent(self.coeffs @ b, self.order, float(np.linalg.norm(b, 2)) * self.tail_bound)

    def mul(self, other):
        """Exact convolution product F g of a (d x k)-valued F and a g with k rows.

        A direct convolution that loops over the nonzero coefficients of
        whichever factor has fewer, each step one product against the
        other factor's whole window.
        """
        a = self.coeffs
        if a.ndim != 3 or a.shape[2] != other.dim:
            raise ValueError("dimension mismatch in series product")
        # vector values ride along as a single column
        b = other.coeffs.reshape(other.coeffs.shape[:2] + (-1,))
        (n_a, rows, k), (n_b, _, cols) = a.shape, b.shape
        order = self.order + other.order
        out = np.zeros((2 * order + 1, rows, cols), dtype=complex)
        nz_a, nz_b = self._nonzero(), other._nonzero()
        # slot i of F and slot j of g land in result slot i + j. The other
        # factor's window is laid out flat, so each step is one matrix product.
        if nz_a.size < nz_b.size:
            b_flat = np.swapaxes(b, 1, 2).reshape(-1, k)
            for i in nz_a:
                out[i:i + n_b] += np.swapaxes((b_flat @ a[i].T).reshape(n_b, cols, rows), 1, 2)
        else:
            a_flat = a.reshape(-1, k)
            for j in nz_b:
                out[j:j + n_a] += (a_flat @ b[j]).reshape(n_a, rows, cols)
        tail = self.sup_bound() * other.tail_bound + self.tail_bound * other.sup_bound()
        shape = out.shape[:2] + other.coeffs.shape[2:]
        return Laurent(out.reshape(shape), order, tail).trim()

    # -- index games -----------------------------------------------------

    def shift(self, k):
        """Multiply by z^k."""
        if k == 0:
            return self
        order = self.order + abs(k)
        out = np.zeros((2 * order + 1,) + self.coeffs.shape[1:], dtype=complex)
        lo = (order - self.order) + k
        out[lo:lo + 2 * self.order + 1] = self.coeffs
        return Laurent(out, order, self.tail_bound).trim()

    def reflect_z(self):
        """The series of z -> f(conj(z)) on the circle: c_n -> c_{-n}."""
        return Laurent(self.coeffs[::-1], self.order, self.tail_bound)

    def flip(self):
        """The flip J: (Jf)(z) = conj(z) * f(conj(z)); coefficient m picks up c_{-m-1}."""
        return self.reflect_z().shift(-1)

    def conj_coeffs(self):
        """Entrywise conjugate of every coefficient, same index."""
        return Laurent(np.conj(self.coeffs), self.order, self.tail_bound)

    def adjoint_star(self):
        """F*(z) = sum_n F_n^* z^{-n}: pointwise adjoint of the boundary values."""
        return Laurent(np.conj(np.swapaxes(self.coeffs[::-1], 1, 2)), self.order, self.tail_bound)

    def tilde(self):
        """The reflected function F~(z) = F(conj(z))^*: coefficientwise adjoint."""
        return Laurent(np.conj(np.swapaxes(self.coeffs, 1, 2)), self.order, self.tail_bound)

    # -- size ------------------------------------------------------------

    def norm(self):
        """L^2 norm of the stored coefficients."""
        return float(np.linalg.norm(self.coeffs))

    def sup_bound(self):
        """Certified bound on sup_{|z|=1} |f(z)| (l^1 of coefficient norms plus tail)."""
        return float(np.sum(self._coeff_norms())) + self.tail_bound

    def is_analytic(self, tol=0.0):
        neg = self._coeff_norms()[:self.order]
        return bool(np.all(neg <= tol))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, z0):
        """Value at z0. |z0| must be 1 unless the series is analytic (then |z0| <= 1).

        On the circle the stored-part error is at most tail_bound; inside the
        disk it is at most tail_bound as well for analytic series (|z0^n| <= 1).
        """
        z0 = complex(z0)
        r = abs(z0)
        if abs(r - 1.0) <= 1e-12:
            powers = z0 ** np.arange(-self.order, self.order + 1)
            return np.tensordot(powers, self.coeffs, axes=(0, 0))
        if not (r < 1.0 and self.is_analytic()):
            raise ValueError("evaluation off the unit circle needs an analytic series inside the disk")
        # sum the analytic half only; z0 = 0 would poison the window sum
        powers = z0 ** np.arange(self.order + 1)
        return np.tensordot(powers, self.coeffs[self.order:], axes=(0, 0))

    def sample_circle(self, n_grid):
        """Values at the n_grid-th roots of unity, exact (indices fold mod n_grid)."""
        bins = np.zeros((n_grid,) + self.coeffs.shape[1:], dtype=complex)
        np.add.at(bins, np.arange(-self.order, self.order + 1) % n_grid, self.coeffs)
        return np.fft.ifft(bins, axis=0) * n_grid

    def allclose(self, other, tol=1e-12):
        order = max(self.order, other.order)
        a = self.with_order(order)
        b = other.with_order(order)
        return bool(np.max(np.abs(a.coeffs - b.coeffs)) <= tol)

    # -- JSON --------------------------------------------------------------

    def to_json(self):
        nz = self._nonzero()
        doc = dict(zip((str(n) for n in nz - self.order), array_to_json(self.coeffs[nz])))
        return {"dim": self.dim, "coeffs": doc, "trunc_order": self.order,
                "tail_bound": self.tail_bound}

    @classmethod
    def from_json(cls, obj, field="laurent"):
        """Read ``to_json`` output: vector or square-matrix values, as the payload nests."""
        dim, order, tail, raw = _laurent_header(obj, field)
        matrix = not raw or _rows_of_pairs(next(iter(raw.values())))
        shape = (dim, dim) if matrix else (dim,)
        out = np.zeros((2 * order + 1,) + shape, dtype=complex)
        for key, val in raw.items():
            n = int(key)
            where = f"{field}.coeffs[{key}]"
            out[n + order] = (matrix_from_json(val, where, shape=shape) if matrix
                              else vector_from_json(val, where, length=dim))
        return cls(out, order, tail)


# the matrix-valued name predates the single window type
MatrixLaurent = Laurent


def read_dim(dim, field):
    """A matrix dimension from a document, refused unless in [1, MAX_DIM]."""
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
        raise ScenarioError(f"{field}: expected an integer in [1, {MAX_DIM}]")
    return dim


def _laurent_header(obj, field):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{field}: expected an object")
    refuse_unknown_keys(obj, ("dim", "coeffs", "trunc_order", "tail_bound"), field)
    for key in ("dim", "coeffs"):
        if key not in obj:
            raise ScenarioError(f"{field}.{key}: missing")
    dim = read_dim(obj["dim"], f"{field}.dim")
    raw = obj["coeffs"]
    if not isinstance(raw, dict):
        raise ScenarioError(f"{field}.coeffs: expected an object keyed by index")
    declared = obj.get("trunc_order")
    order = 0
    for key in raw:
        try:
            n = abs(int(key))
        except ValueError:
            raise ScenarioError(f"{field}.coeffs[{key!r}]: key is not an integer index") from None
        if n > MAX_TRUNC_ORDER:
            raise ScenarioError(f"{field}.coeffs[{key}]: index beyond the largest window "
                                f"{MAX_TRUNC_ORDER}")
        order = max(order, n)
    if declared is not None:
        if (not isinstance(declared, int) or isinstance(declared, bool)
                or not order <= declared <= MAX_TRUNC_ORDER):
            raise ScenarioError(f"{field}.trunc_order: must be an integer in "
                                f"[{order}, {MAX_TRUNC_ORDER}]")
        order = declared
    tail = obj.get("tail_bound", 0.0)
    if not isinstance(tail, (int, float)) or isinstance(tail, bool) or tail < 0:
        raise ScenarioError(f"{field}.tail_bound: expected a nonnegative number")
    return dim, order, float(tail), raw


def _rows_of_pairs(val):
    """True for a matrix payload (rows of [re, im] pairs), False for a vector one."""
    return (isinstance(val, list) and bool(val) and isinstance(val[0], list)
            and bool(val[0]) and isinstance(val[0][0], list))


def evaluate_many(f, zs):
    """Values at an array of unimodular points (stored part only; the error
    is bounded by tail_bound at each point)."""
    zs = np.asarray(zs, dtype=complex).ravel()
    powers = zs[:, None] ** np.arange(-f.order, f.order + 1)[None, :]
    return np.tensordot(powers, f.coeffs, axes=(1, 0))


def inner_product(f, g):
    """L^2 pairing <f, g>, linear in f, conjugate-linear in g.

    By Parseval this is the sum over the common window of <c_n(f), c_n(g)>;
    for matrix values the coefficient pairing is Hilbert-Schmidt.
    """
    if f.coeffs.shape[1:] != g.coeffs.shape[1:]:
        raise ValueError("inner_product needs two series with the same value shape")
    order = min(f.order, g.order)
    lo_f = f.order - order
    lo_g = g.order - order
    a = f.coeffs[lo_f:lo_f + 2 * order + 1]
    b = g.coeffs[lo_g:lo_g + 2 * order + 1]
    return complex(np.sum(a * np.conj(b)))


def refit_on_circle(fn, order):
    """Fit fn (a vectorized map from circle points to values) to a Laurent window.

    Samples at max(512, 4 (order + 1)) roots of unity and projects onto
    [-order, order]. The discrete-Fourier mass outside the window, every
    coefficient below _REFIT_DROP_TOL times the largest, and the residual at
    half-offset points are folded into tail_bound, not silently discarded.
    This is the honest route for functions only available pointwise (the
    Crofoot map of an arbitrary series).
    """
    n_grid = max(512, 4 * (order + 1))
    nodes = np.exp(2j * np.pi * np.arange(n_grid) / n_grid)
    bins = np.fft.fft(fn(nodes), axis=0) / n_grid
    inside = np.arange(-order, order + 1) % n_grid
    out = bins[inside]
    norms = np.linalg.norm(out.reshape(out.shape[0], -1), axis=1)
    small = norms <= _REFIT_DROP_TOL * norms.max()
    out[small] = 0.0
    tail = float(np.linalg.norm(np.delete(bins, inside, axis=0)))
    tail += float(np.linalg.norm(norms[small]))
    fitted = Laurent(out, order, tail).trim()
    half = np.exp(1j * np.pi / n_grid)
    twist = half ** np.arange(-fitted.order, fitted.order + 1)
    shape = twist.shape + (1,) * (fitted.coeffs.ndim - 1)
    twisted = Laurent(fitted.coeffs * twist.reshape(shape), fitted.order)
    resid = twisted.sample_circle(n_grid) - fn(nodes * half)
    rms = float(np.sqrt(np.mean(np.sum(np.abs(resid.reshape(n_grid, -1)) ** 2, axis=1))))
    return Laurent(fitted.coeffs, fitted.order, fitted.tail_bound + rms)
