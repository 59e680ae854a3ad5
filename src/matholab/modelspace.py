"""Finite-dimensional model spaces K_Theta and their shift structure.

For a pure rational inner Theta with output-normal realization (A, B, C, D)
(``BlaschkePotapovProduct.realization``, or ``crofoot_realization`` for a
Crofoot transform), K_Theta = H^2 ominus Theta H^2 has
the basis F(z) = C (I - z A)^{-1}, coefficients C A^n, orthonormal in exact
arithmetic; on a window it is the factor-major basis of the recursion
K_{B Theta'} = K_B + B K_{Theta'}. A symmetric Loewdin pass absorbs the
truncation-level defect without reordering or sign flips.

All operators live as matrices in that fixed basis: the compressed shift
S[i, j] = <z b_j, b_i>, the defect operators D = I - S S*, Dtilde = I - S* S,
and the projections onto the defect spaces spanned by the kernels k_0 e_l
and ktilde_0 e_l.
"""

from __future__ import annotations

import weakref

import numpy as np

from .blaschke import check_colligation, state_window
from .laurent import Laurent
from .jsonio import matrix_to_json

__all__ = ["ModelSpace", "random_modifier"]

_RANK_TOL = 1e-8
_GRAM_EXACT = 1e-14


def _orthonormalize(coeffs, tails):
    """Symmetric (Loewdin) orthonormalization of the columns, unless already
    exact; also returns the matrix L applied to them (the identity if none)."""
    n = coeffs.shape[2]
    flat = coeffs.reshape(-1, n)
    gram = flat.conj().T @ flat  # gram[i, j] = <b_j, b_i>
    if np.max(np.abs(gram - np.eye(n))) <= _GRAM_EXACT:
        return coeffs, tails, np.eye(n)
    w, vecs = np.linalg.eigh(gram)
    if w.min() <= 1e-10:
        raise ValueError("basis functions are numerically dependent")
    inv_half = (vecs * (w ** -0.5)) @ vecs.conj().T
    return coeffs @ inv_half, tails @ np.abs(inv_half), inv_half


class ModelSpace:
    """K_Theta with a fixed orthonormal basis and the derived operator data.

    The basis is held as one series B(z) = [b_1 ... b_n] with values in the
    d x n matrices (``basis``), on the space's window, together with one
    certified tail per basis function (``tails``). Coordinates, operator
    matrices and maps between spaces are then single products against B.
    The checked colligation (A, B, C, D) it was read from is ``realization``.
    """

    def __init__(self, realization, theta_series, coeffs, tails, theta=None):
        self.realization = realization
        self.theta = theta
        self.theta_series = theta_series
        self.dim = theta_series.dim
        self.order = (coeffs.shape[0] - 1) // 2
        self.dim_K = coeffs.shape[2]
        # the basis is the given (state) basis times the Loewdin matrix
        coeffs, self.tails, self.loewdin = _orthonormalize(coeffs, np.asarray(tails, dtype=float))
        self.basis = Laurent(coeffs, self.order, float(np.linalg.norm(self.tails)))
        self.theta0 = theta_series.coeff(0)
        self._build_shift_structure()
        # operators.kernel_test's kernel classes (one SVD of the symbol map
        # each) with this space as codomain, keyed by the domain space, then
        # by family; they die with either space
        self.kernel_classes = weakref.WeakKeyDictionary()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_realization(cls, realization, order=64, theta=None):
        """K_Theta for the Theta of a colligation (A, B, C, D), checked to be
        unitary and pure, with the basis read off it on the window (``state_window``)."""
        report = check_colligation(realization)
        if not report.inner:
            raise ValueError(f"Theta is not inner: its colligation is not unitary "
                             f"(defect {report.max_unitary_defect:.2e})")
        if not report.pure:
            # a constant (unitary) Theta lands here too: norm(Theta(0)) = 1
            raise ValueError(f"Theta is not pure (norm(Theta(0)) = {report.theta0_norm:.6f})")
        basis, tails, series = state_window(realization, order)
        return cls(realization, series, basis, tails, theta=theta)

    @classmethod
    def from_product(cls, theta, order=64):
        return cls.from_realization(theta.realization(), order, theta)

    def basis_functions(self):
        """The basis functions b_1 ... b_n as separate vector series."""
        return [Laurent(self.basis.coeffs[:, :, i], self.order, t)
                for i, t in enumerate(self.tails)]

    def _build_shift_structure(self):
        # S[i, j] = <z b_j, b_i>: pair each slot of B with the slot below it
        c = self.basis.coeffs
        self.S = c[1:].reshape(-1, self.dim_K).conj().T @ c[:-1].reshape(-1, self.dim_K)
        self.S_star = self.S.conj().T
        eye = np.eye(self.dim_K)
        self.D = eye - self.S @ self.S_star
        self.D_tilde = eye - self.S_star @ self.S
        # coordinates of k_0 = I - Theta(z) Theta(0)^* and ktilde_0 =
        # (Theta(z) - Theta(0)) / z, read off the analytic window of Theta
        m = self.order
        b = self.basis.coeffs[m:].conj()
        t = self.theta_series.with_order(m).coeffs[m:]
        self.k0_cols = b[0].T - np.tensordot(b, t, axes=([0, 1], [0, 1])) @ self.theta0.conj().T
        self.kt0_cols = np.tensordot(b[:-1], t[1:], axes=([0, 1], [0, 1]))
        self.P_D, self.defect_dim = _span_projection(self.k0_cols)
        self.P_Dt, self.defect_dim_tilde = _span_projection(self.kt0_cols)

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
        rec = self.from_coords(self.coords(f))
        return (f - rec.with_order(max(f.order, rec.order))).norm()

    # -- projections and kernels -------------------------------------------

    def project(self, f):
        """P_Theta f = f_+ - Theta P_+(Theta^* f_+)."""
        f_plus = f.riesz_split()[0]
        g_plus = self.theta_series.adjoint_star().mul(f_plus).riesz_split()[0]
        return f_plus - self.theta_series.mul(g_plus).with_order(
            max(f_plus.order, self.theta_series.order + g_plus.order))

    def kernel(self, lam, x, variant="k"):
        """Reproducing kernel members of K_Theta at lam in the open disk.

        variant "k":      (1 - conj(lam) z)^{-1} (I - Theta(z) Theta(lam)^*) x
        variant "ktilde": (z - lam)^{-1} (Theta(z) - Theta(lam)) x

        A d x k direction matrix x gives the k kernels side by side.
        """
        lam = complex(lam)
        if abs(lam) >= 1.0:
            raise ValueError("kernel parameter must lie in the open disk")
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError("kernel direction has the wrong dimension")
        if variant == "k":
            theta_lam = self._theta_at(lam)
            v = Laurent.constant(x) - self.theta_series.mul(
                Laurent.constant(theta_lam.conj().T @ x))
            # the Szego profile 1 / (1 - conj(lam) z) and its certified L^2 tail
            powers = np.conj(lam) ** np.arange(self.order + 1)
            szego = np.zeros((2 * self.order + 1, self.dim, self.dim), dtype=complex)
            szego[self.order:] = powers[:, None, None] * np.eye(self.dim)
            tail = abs(lam) ** (self.order + 1) / np.sqrt(1.0 - abs(lam) ** 2)
            profile = Laurent(szego, self.order, np.sqrt(self.dim) * tail)
            return profile.mul(v).truncate(self.order)
        if variant == "ktilde":
            tcoeffs = self.theta_series.coeffs
            off = self.theta_series.order
            out = np.zeros((2 * self.order + 1,) + x.shape, dtype=complex)
            acc = np.zeros(x.shape, dtype=complex)
            for j in range(self.theta_series.order, -1, -1):
                acc = lam * acc + (tcoeffs[off + j + 1] @ x if j + 1 <= off else 0.0)
                if j <= self.order:
                    out[self.order + j] = acc
            return Laurent(out, self.order, self.theta_series.tail_bound).trim()
        raise ValueError(f"unknown kernel variant {variant!r}")

    def _theta_at(self, lam):
        if self.theta is not None:
            return self.theta.evaluate(complex(lam))
        return self.theta_series.evaluate(lam)

    # -- shift modifications -------------------------------------------------

    def modified_shift(self, x_map, tol=1e-8):
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
        if leak > tol * (1.0 + np.linalg.norm(x_map)):
            raise ValueError(f"modifier range leaves the defect space (leak {leak:.2e})")
        return self.S + self.P_D @ (restricted - self.S) @ self.P_Dt

    # -- reporting -----------------------------------------------------------

    def describe(self):
        """A JSON-ready report whose size does not grow with the window. The basis is
        exactly ``state_window(realization, trunc_order)[0] @ loewdin``; ``tails`` bound it."""
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
            "loewdin": matrix_to_json(self.loewdin),
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
