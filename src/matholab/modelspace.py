"""Finite-dimensional model spaces K_Theta and their shift structure.

For a pure rational inner Theta with output-normal realization (A, B, C, D)
(``BlaschkePotapovProduct.realization``, or ``crofoot_realization`` for a
Crofoot transform), K_Theta = H^2 ominus Theta H^2 has the state basis
F(z) e_j, F(z) = C (I - z A)^{-1}, orthonormal because A* A + C* C = I.
In that basis every operator datum is a small exact matrix read off the
realization: the compressed shift S[i, j] = <z b_j, b_i> is A*, the
defect operators D = I - S S* and Dtilde = I - S* S are C* C and B B*, and
the kernels k_lam x and ktilde_lam x have the coordinates
(I - conj(lam) A*)^{-1} C* x and (I - lam A)^{-1} B x (C* x and B x at 0).
The coordinates of a function c (I - z a)^{-1} solve one Stein equation.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .blaschke import _norms, check_colligation, state_window
from .laurent import Laurent
from .jsonio import matrix_to_json

__all__ = ["ModelSpace", "random_modifier", "stein"]

_RANK_TOL = 1e-8
# squarings in ``stein``: 2^40 terms, far past any stable contraction's need
_STEIN_SQUARINGS = 40
_EPS_SQ = np.finfo(float).eps ** 2
# largest leak of a modifier's range out of the defect space, relative to 1 + |X|
_MODIFIER_TOL = 1e-8


def stein(p, q, r):
    """Y = sum_{m >= 0} P^m Q R^m solves Y = P Y R + Q (Q may carry leading batch
    axes), by squared Smith iteration: Y += P Y R, then P <- P^2 and R <- R^2.
    After k steps the rest is P Y R for the current P and R, so it stops once
    |P| |R| is below rounding: about 9 steps at spectral radius 0.9 and 14 at
    0.997. A P or R that is not stable raises ValueError."""
    y = np.array(q, dtype=complex)
    for _ in range(_STEIN_SQUARINGS):
        # |P|_F |R|_F <= eps, by squared norms
        if np.vdot(p, p).real * np.vdot(r, r).real <= _EPS_SQ:
            return y
        y = y + p @ y @ r
        p, r = p @ p, r @ r
    raise ValueError("Stein equation: the state matrix is not stable")


class ModelSpace:
    """K_Theta in the state basis of its checked realization.

    ``realization`` is the colligation (A, B, C, D); ``S``, ``S_star``,
    ``D``, ``D_tilde``, ``k0_cols`` and ``kt0_cols`` are read off it. The
    basis read on the space's window is one series B(z) = [b_1 ... b_n] with
    values in the d x n matrices (``basis``), with one certified tail per
    basis function (``tails``, one matrix power, no window); ``theta_series``
    is Theta on the same window. The window, the tails and the defect
    projections (``P_D``, ``P_Dt``, ``defect_dim``, ``defect_dim_tilde``)
    are computed when first read: builds, displacement checks and the whole
    registry need only the realization.
    """

    def __init__(self, checked, order=64, theta=None):
        """K_Theta from a ``check_colligation`` report, refused unless inner and pure."""
        if not checked.inner:
            raise ValueError(f"not inner, the colligation is not unitary "
                             f"(defect {checked.max_unitary_defect:.2e})")
        if not checked.pure:
            # a constant (unitary) Theta lands here too: norm(Theta(0)) = 1
            raise ValueError(f"not pure, the value at 0 has norm {checked.theta0_norm:.6f}")
        self.realization = a_mat, b_mat, c_mat, _ = checked.realization
        self.unitary_defect = checked.max_unitary_defect
        self.theta = theta
        self.dim, self.dim_K = c_mat.shape
        self.order = order
        self.S, self.S_star = a_mat.conj().T, a_mat
        self.D = c_mat.conj().T @ c_mat
        self.D_tilde = b_mat @ b_mat.conj().T
        self.k0_cols, self.kt0_cols = c_mat.conj().T, b_mat
        # operators.kernel_test's kernel classes (one SVD of the symbol map
        # at its Cayley-Hamilton reach each, which no window order enters)
        # with this space as codomain, keyed by the domain space, then by
        # family; they die with either space
        self.kernel_classes = weakref.WeakKeyDictionary()

    # -- the window and the defect projections, on first read ----------------

    _window = cached_property(lambda self: state_window(self.realization, self.order))
    basis = cached_property(lambda self: Laurent(self._window[0], self.order,
                                                 float(np.linalg.norm(self.tails))))
    # |A^(order+1) e_j|, as ``state_window`` has them, from one matrix power
    tails = cached_property(lambda self: _norms(
        np.linalg.matrix_power(self.realization[0], self.order + 1).T))
    theta_series = cached_property(lambda self: self._window[2])

    _defect = cached_property(lambda self: _span_projection(self.k0_cols))
    _defect_tilde = cached_property(lambda self: _span_projection(self.kt0_cols))
    P_D = cached_property(lambda self: self._defect[0])
    defect_dim = cached_property(lambda self: self._defect[1])
    P_Dt = cached_property(lambda self: self._defect_tilde[0])
    defect_dim_tilde = cached_property(lambda self: self._defect_tilde[1])

    # -- construction ------------------------------------------------------

    @classmethod
    def from_realization(cls, realization, order=64, theta=None):
        """K_Theta for the Theta of a colligation (A, B, C, D), checked to be
        unitary and pure; the basis on the window is read off it when first
        asked for (``state_window``)."""
        return cls(check_colligation(realization), order, theta)

    @classmethod
    def from_product(cls, theta, order=64):
        return cls.from_realization(theta.realization(), order, theta)

    def basis_functions(self):
        """The basis functions b_1 ... b_n as separate vector series."""
        return [Laurent(self.basis.coeffs[:, :, i], self.order, t)
                for i, t in enumerate(self.tails)]

    def state_coords(self, c, a):
        """The matrix X with X x the coordinates of P_Theta c (I - z a)^{-1} x,
        for a stable a: the solution of the Stein equation X = A* X a + C* c."""
        a_mat, _, c_mat, _ = self.realization
        return stein(a_mat.conj().T, c_mat.conj().T @ c, a)

    # -- coordinates -------------------------------------------------------

    def coords(self, f):
        """The pairings <f, b_i>: coordinates of f when f is a member, and of
        its projection P_Theta f in general. A (d x k)-valued f gives the
        dim_K x k matrix of its columns' coordinates."""
        order = min(f.order, self.order)
        lo_f, lo_b = f.order - order, self.order - order
        fw = f.coeffs[lo_f:lo_f + 2 * order + 1]
        bw = self.basis.coeffs[lo_b:lo_b + 2 * order + 1]
        return np.tensordot(bw.conj(), fw, axes=([0, 1], [0, 1]))

    def from_coords(self, c):
        """The member with coordinates c; a dim_K x k matrix gives a (d x k)-valued series."""
        c = np.asarray(c, dtype=complex)
        tail = float(np.linalg.norm(self.tails @ np.abs(c)))
        return Laurent(self.basis.coeffs @ c, self.order, tail).trim()

    def membership_gap(self, f):
        """L^2 distance from f to the span of the basis (0 for members)."""
        rec = self.project(f)
        return (f - rec.with_order(max(f.order, rec.order))).norm()

    # -- projections and kernels -------------------------------------------

    def project(self, f):
        """P_Theta f on the window: the member with the coordinates of f."""
        return self.from_coords(self.coords(f))

    def kernel(self, lam, x, variant="k"):
        """Reproducing kernel members of K_Theta at lam in the open disk, in the
        state coordinates of the realization (A, B, C, D):

        variant "k":      (1 - conj(lam) z)^{-1} (I - Theta(z) Theta(lam)^*) x
                          has coordinates (I - conj(lam) A*)^{-1} C* x;
        variant "ktilde": (z - lam)^{-1} (Theta(z) - Theta(lam)) x
                          has coordinates (I - lam A)^{-1} B x.

        A d x k direction matrix x gives the k kernels side by side.
        """
        lam = complex(lam)
        if abs(lam) >= 1.0:
            raise ValueError("kernel parameter must lie in the open disk")
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError("kernel direction has the wrong dimension")
        if variant == "k":
            lhs, rhs = np.conj(lam) * self.S, self.k0_cols @ x
        elif variant == "ktilde":
            lhs, rhs = lam * self.S_star, self.kt0_cols @ x
        else:
            raise ValueError(f"unknown kernel variant {variant!r}")
        return self.from_coords(np.linalg.solve(np.eye(self.dim_K) - lhs, rhs))

    # -- shift modifications -------------------------------------------------

    def modified_shift(self, x_map):
        """S_{Theta,X} = S + P_D (X - S) P_Dtilde for X mapping Dtilde into D.

        x_map is a dim_K x dim_K matrix in basis coordinates; only its
        compression to the defect pair matters, but a map whose restriction
        to Dtilde leaks out of D is rejected.
        """
        x_map = np.asarray(x_map, dtype=complex)
        if x_map.shape != (self.dim_K, self.dim_K):
            raise ValueError("modifier matrix has the wrong shape")
        restricted = x_map @ self.P_Dt
        leak = np.linalg.norm((np.eye(self.dim_K) - self.P_D) @ restricted)
        if leak > _MODIFIER_TOL * (1.0 + np.linalg.norm(x_map)):
            raise ValueError(f"modifier range leaves the defect space (leak {leak:.2e})")
        return self.S + self.P_D @ (restricted - self.S) @ self.P_Dt

    # -- reporting -----------------------------------------------------------

    def describe(self):
        """A JSON-ready report whose size does not grow with the window. The basis is
        exactly ``state_window(realization, trunc_order)[0]``; ``tails`` bound it."""
        return {
            "dim": self.dim,
            "dim_K": self.dim_K,
            "trunc_order": self.order,
            "defect_dim": self.defect_dim,
            "defect_dim_tilde": self.defect_dim_tilde,
            "S": matrix_to_json(self.S),
            "D": matrix_to_json(self.D),
            "D_tilde": matrix_to_json(self.D_tilde),
            "realization": dict(zip("ABCD", map(matrix_to_json, self.realization))),
            "tails": self.tails.tolist(),
        }


def _span_projection(cols):
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((cols.shape[0], cols.shape[0])), 0
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    q = u[:, :rank]
    return q @ q.conj().T, rank


def random_modifier(space, rng, scale=1.0):
    """A legal modifier map: a random matrix compressed to P_D (.) P_Dtilde."""
    raw = rng.standard_normal((space.dim_K, space.dim_K)) \
        + 1j * rng.standard_normal((space.dim_K, space.dim_K))
    return scale * (space.P_D @ raw @ space.P_Dt)
