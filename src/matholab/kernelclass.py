"""The kernel class of a truncated Toeplitz or Hankel compression, factored once.

The symbols that compress to the zero operator between K_Theta1 and K_Theta2
form the kernel class; a recovered symbol is unique only modulo it. For
toeplitz it is Theta2 H^2 + (Theta1 H^2)^* (Sarason, "Algebraic properties of
truncated Toeplitz operators", 2007); for hankel it contains the analytic
symbols twisted by the conjugations and the reflected sandwiches of
Theta2~ z^k E Theta1. ``KernelClass`` holds orthonormal bases of the
within-window generator span, split along that structure, so a symbol's
distance to the class is a few projections.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelClass"]


def _effective_reach(series, rel=1e-12):
    """(most negative, most positive) index with non-negligible coefficient."""
    norms = np.linalg.norm(series.coeffs.reshape(series.coeffs.shape[0], -1), axis=1)
    top = norms.max()
    if top == 0.0:
        return 0, 0
    idx = np.nonzero(norms > rel * top)[0]
    return int(idx.min() - series.order), int(idx.max() - series.order)


def _analytic_coeffs(series, count):
    """Coefficients 0 .. count-1 of a series window, zero past its order."""
    out = np.zeros((count,) + series.coeffs.shape[1:], dtype=complex)
    n = min(count, series.order + 1)
    out[:n] = series.coeffs[series.order:series.order + n]
    return out


def _convolution_matrix(blocks, rows, n_cols):
    """Matrix of (x_k)_{k < n_cols} -> (sum_k blocks[n - k] x_k)_{n in rows}.

    blocks is an (L, p, q) array holding lags 0 .. L-1 (zero elsewhere); the
    matrix has rows (n, a) and columns (k, b).
    """
    size, p, q = blocks.shape
    lag = np.asarray(rows)[:, None] - np.arange(n_cols)[None, :]
    lag = np.where((lag >= 0) & (lag < size), lag, size)
    padded = np.concatenate([blocks, np.zeros((1, p, q), dtype=complex)])
    return padded[lag].transpose(0, 2, 1, 3).reshape(len(rows) * p, n_cols * q)


def _rank_tol(shape, s_max):
    """numpy.linalg.lstsq's default cut for a matrix of this shape and top singular value."""
    return np.finfo(float).eps * max(shape) * s_max


def _residual(basis, t):
    """t minus its orthogonal projection onto the span of basis's columns."""
    return t - basis @ (basis.conj().T @ t)


class KernelClass:
    """The kernel class of one (space pair, family, J1, J2), factored once.

    The class is the within-window span of the generators: for toeplitz
    Theta2 z^k E (k <= M - d2) and (Theta1 z^k E)^* (k <= M - d1); for hankel
    z^k U2 E^T conj(U1) (k <= M) and the sandwiches J2 (Theta2~ z^k E Theta1) J1
    (k <= M - d1 - d2), with E the d x d matrix units, M the window order
    and d_i the effective reach of Theta_i. ``distance(symbol)`` is the L^2
    distance of the symbol's window to that span. Instead of one dense
    generator stack, each family's span is split along its structure:

    toeplitz: the analytic generators fill coefficients 0..M column by
    column through one block shared by all d columns; the co-analytic ones
    fill -M..0 row by row through one block shared by all d rows. They meet
    only in c_0. Projecting the analytic block out leaves, per column, the
    c_0 rows seen past its span (the d columns of ``shared``); its SVD
    U S W^* turns the coupled row problems into d independent ones, the
    l-th carrying the c_0 rows with weight s_l.

    hankel: the monomials span every analytic coefficient, so the distance
    is that of the strictly negative coefficients to the negative parts of
    the sandwiches. Undoing the constant J2 (.) J1 on the symbol leaves the
    z^k shifts of the d^2 base products Theta2~ E Theta1.

    Ranks follow numpy.linalg.lstsq's cut on the dense stack (eps times its
    larger side times its top singular value), and the distance is always
    the norm of an explicit residual vector. The thetas are analytic, so
    only their coefficients 0..M enter.
    """

    def __init__(self, space1, space2, family, conj1, conj2):
        if family not in ("toeplitz", "hankel"):
            raise ValueError(f"unknown kernel family {family!r}")
        self.family = family
        self.order = max(space1.order, space2.order)
        self.dim = space1.dim
        reach = (_effective_reach(space1.theta_series)[1],
                 _effective_reach(space2.theta_series)[1])
        t1 = _analytic_coeffs(space1.theta_series, self.order + 1)
        t2 = _analytic_coeffs(space2.theta_series, self.order + 1)
        if family == "toeplitz":
            self._factor_toeplitz(t1, t2, *reach)
        else:
            self._factor_hankel(t1, t2, *reach)
            self._u2h = conj2.U.conj().T
            self._u1t = conj1.U.T

    def _factor_toeplitz(self, t1, t2, d1, d2):
        order, dim = self.order, self.dim
        n1, n2 = max(order - d1 + 1, 0), max(order - d2 + 1, 0)
        rows = np.arange(order + 1)
        # analytic: rows (n, i) of one column, against the P_k[:, j];
        # co-analytic at n = -m: rows (m, j) of one row, against the conj(Q_k[:, i])
        analytic = _convolution_matrix(t2, rows, n2)
        co_analytic = _convolution_matrix(np.conj(t1), rows, n1)
        ua, sa, _ = np.linalg.svd(analytic, full_matrices=False)
        s_max = max(sa.max(initial=0.0),
                    np.linalg.norm(co_analytic, 2) if co_analytic.size else 0.0)
        tol = _rank_tol(((2 * order + 1) * dim * dim, (n1 + n2) * dim * dim), s_max)
        self._ua = ua[:, sa > tol]
        # the c_0 rows (the first d) past the analytic span: shared = U S W^*
        shared = -self._ua @ self._ua[:dim].conj().T
        shared[:dim] += np.eye(dim)
        self._uf, weights, wh = np.linalg.svd(shared, full_matrices=False)
        self._w_conj = wh.T
        self._ub = []
        for weight in weights:
            ub, sb, _ = np.linalg.svd(np.vstack([weight * co_analytic[:dim], co_analytic[dim:]]),
                                      full_matrices=False)
            self._ub.append(ub[:, sb > tol])

    def _factor_hankel(self, t1, t2, d1, d2):
        order, dim = self.order, self.dim
        self._needs = d1 + d2
        n_gen = max(order - d1 - d2 + 1, 0)
        # the d^2 base products pi[q][(x, y), (b, c)] = (Theta2~ e_b e_c^T Theta1)_q[x, y]
        pi = np.zeros((order + 1, dim, dim, dim, dim), dtype=complex)
        for a in np.flatnonzero(np.any(t2.reshape(order + 1, -1) != 0, axis=1)):
            pi[a:] += np.einsum("bx,ncy->nxybc", np.conj(t2[a]), t1[:order + 1 - a])
        pi = pi.reshape(order + 1, dim * dim, dim * dim)
        # their z^k shifts at n = -m, m = 1..M, once J2 (.) J1 is undone
        u, s, _ = np.linalg.svd(_convolution_matrix(pi, np.arange(1, order + 1), n_gen),
                                full_matrices=False)
        dense = ((2 * order + 1) * dim * dim, (order + 1 + n_gen) * dim * dim)
        self._u = u[:, s > _rank_tol(dense, max(1.0, s.max(initial=0.0)))]

    def distance(self, symbol):
        """L^2 distance of the symbol's window [-M, M] to the class."""
        order, dim = self.order, self.dim
        lo, hi = _effective_reach(symbol)
        if lo < -order or hi > order:
            raise ValueError(f"symbol support [{lo}, {hi}] exceeds the window [{-order}, {order}]")
        c = symbol.with_order(order).coeffs
        if self.family == "hankel":
            if lo < 0 and order < self._needs:
                raise ValueError(
                    f"window order {order} cannot hold the hankel kernel generators "
                    f"(needs at least {self._needs})")
            negative = np.conj(self._u2h @ c[:order][::-1] @ self._u1t)
            return float(np.linalg.norm(_residual(self._u, negative.ravel())))
        # analytic rows (n, i), one column per j; c_0 is in the first d rows
        r = _residual(self._ua, c[order:].reshape(-1, dim))
        h = self._uf.conj().T @ r
        parts = [(r - self._uf @ h).ravel()]
        # co-analytic rows (m, j), m >= 1, one column per row i, turned by conj(W)
        tb = np.swapaxes(c[:order][::-1], 1, 2).reshape(-1, dim) @ self._w_conj
        for l, ub in enumerate(self._ub):
            parts.append(_residual(ub, np.concatenate([h[l], tb[:, l]])))
        return float(np.linalg.norm(np.concatenate(parts)))
