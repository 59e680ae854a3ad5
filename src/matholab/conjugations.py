"""Antilinear symmetries on C^d and on the series spaces built over it.

A conjugation J x = U conj(x) is fixed by a unitary symmetric matrix U.
From it we build the coefficientwise lift Jstar, the unitary transform
tau_Theta f = conj(z) Thetatilde(z) f(conj(z)), and the pointwise
conjugation C_Theta f = Theta(z) conj(z) J(f(z)), which agrees with
Jstar tau_Theta exactly when Theta is J-symmetric (``realization_jsymmetry_defect``
sums a realization's coefficient gaps, which vanish exactly when it is).

The Crofoot map between K_Theta and K_{Theta^W} is the identity in state
coordinates (``blaschke.crofoot_realization``), which is how model-space
images are built. ``crofoot_map`` applies it, or its adjoint, to an
arbitrary series by sampling the resolvent-type factor on the unit circle
and refitting; a whole stacked basis is refit at once.
"""

from __future__ import annotations

import numpy as np

from .blaschke import MAX_POLE_ABS, _check_unitary, matrix_powers
from .jsonio import (ScenarioError, construct, matrix_from_json, matrix_to_json,
                     refuse_unknown_keys)
from .laurent import MAX_DIM, Laurent, evaluate_many, refit_on_circle

__all__ = [
    "Conjugation", "CrofootData", "jstar", "tau", "CTheta",
    "crofoot_map", "sandwich_reflected",
    "realization_jsymmetry_defect",
]

_SYM_TOL = 1e-12


class Conjugation:
    """J x = U conj(x) with U unitary and symmetric (so J^2 = I)."""

    __slots__ = ("U", "dim")

    def __init__(self, u):
        u = np.asarray(u, dtype=complex)
        _check_unitary(u, "conjugation matrix")
        if np.max(np.abs(u - u.T)) > _SYM_TOL:
            raise ValueError("conjugation matrix must be symmetric")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "dim", u.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("Conjugation is immutable")

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    def apply(self, x):
        return self.U @ np.conj(np.asarray(x, dtype=complex))

    def to_json(self):
        return {"unitary": matrix_to_json(self.U)}

    @classmethod
    def from_json(cls, obj, field="conjugation"):
        if not isinstance(obj, dict) or "unitary" not in obj:
            raise ScenarioError(f"{field}: expected an object with a 'unitary' key")
        refuse_unknown_keys(obj, ("unitary",), field)
        u = matrix_from_json(obj["unitary"], f"{field}.unitary", limit=MAX_DIM)
        return construct(field, cls, u)


def jstar(conj_j, f):
    """Coefficientwise lift: (Jstar f)(z) = J(f(conj(z))), a_n -> J(a_n).

    A (d x k)-valued f is mapped column by column; matrix symbols want
    ``sandwich_reflected`` instead.
    """
    return f.conj_coeffs().left_const(conj_j.U)


def tau(theta_series, f):
    """tau_Theta f: the series of conj(z) Thetatilde(z) f(conj(z))."""
    return theta_series.tilde().mul(f.reflect_z()).shift(-1)


class CTheta:
    """C_Theta f = Theta(z) conj(z) J(f(z)), evaluated on the series window.

    It is a conjugation on K_Theta (and coincides with Jstar tau_Theta)
    only when Theta is J-symmetric; ``realization_jsymmetry_defect`` measures that.
    """

    def __init__(self, theta_series, conj_j):
        self.theta_series = theta_series
        self.conj_j = conj_j

    def apply(self, f):
        # conj(z) J(f(z)) is the flip of Jstar f; (d x k)-valued f maps columnwise
        return self.theta_series.mul(jstar(self.conj_j, f).flip())


def sandwich_reflected(conj2, f_series, conj1):
    """Series of z -> J2 F(conj(z)) J1 composed as maps: G_n = U2 conj(F_n) conj(U1)."""
    coeffs = np.einsum("ab,nbc,cd->nad",
                       conj2.U, np.conj(f_series.coeffs), np.conj(conj1.U))
    return Laurent(coeffs, f_series.order, f_series.tail_bound)


def _coefficient_gap(coeffs, conj_j):
    """sum_k norm(U conj(t_k) conj(U) - t_k^*) over stacked coefficients t_k. For a
    series F = sum t_k z^k these are the coefficients of J F(z) J - F(z)^*, so the
    sum bounds that gap at every point of the circle."""
    gap = conj_j.U @ np.conj(coeffs) @ np.conj(conj_j.U) - np.conj(np.swapaxes(coeffs, 1, 2))
    return float(np.linalg.norm(gap, axis=(1, 2)).sum())


def realization_jsymmetry_defect(realization, order, conj_j):
    """J-symmetry defect of the Theta of an n-state realization (A, B, C, D): the
    ``_coefficient_gap`` of t_0 = D and t_k = C A^(k-1) B for k <= max(order, 2n).
    It bounds the gap of Theta's order-``order`` window everywhere on the circle;
    and the gap has a 2n-state realization, so by Cayley-Hamilton the sum is 0
    only if Theta is J-symmetric."""
    top = max(order, 2 * len(realization[0]))
    return _coefficient_gap(_realization_coeffs(realization, top), conj_j)


def _realization_coeffs(realization, top):
    """t_0 = D and t_k = C A^(k-1) B for k = 1 .. top, stacked."""
    a_mat, b_mat, c_mat, d_mat = realization
    return np.concatenate([d_mat[None], c_mat @ matrix_powers(a_mat, top) @ b_mat])


class CrofootData:
    """Strict contraction W with the two defect square roots attached."""

    __slots__ = ("W", "D_W", "D_Wstar", "dim")

    def __init__(self, w):
        w = np.asarray(w, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("Crofoot parameter must be a square matrix")
        # W = U S V*, so D_W = V sqrt(1 - S^2) V* and D_W* = U sqrt(1 - S^2) U*
        u, s, vh = np.linalg.svd(w)
        if s.max(initial=0.0) > MAX_POLE_ABS:
            raise ValueError(f"Crofoot parameter norm exceeds the {MAX_POLE_ABS} cap")
        root = np.sqrt(1.0 - s ** 2)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "D_W", (vh.conj().T * root) @ vh)
        object.__setattr__(self, "D_Wstar", (u * root) @ u.conj().T)
        object.__setattr__(self, "dim", w.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("CrofootData is immutable")

    def to_json(self):
        return {"w": matrix_to_json(self.W)}

    @classmethod
    def from_json(cls, obj, field="w"):
        if not isinstance(obj, dict) or "w" not in obj:
            raise ScenarioError(f"{field}: expected an object with a 'w' key")
        refuse_unknown_keys(obj, ("w",), field)
        w = matrix_from_json(obj["w"], f"{field}.w", limit=MAX_DIM)
        return construct(field, cls, w)


def crofoot_map(theta_series, crofoot, f, direction="forward"):
    """Unitary Crofoot map between K_Theta and K_{Theta^W}.

    direction "forward": J_W f = D_{W*} (I - Theta W*)^{-1} f, with
    theta_series the SOURCE inner function Theta.
    direction "adjoint": J_W^* g = D_{W*} (I + Theta^W W*)^{-1} g, with
    theta_series the IMAGE inner function Theta^W.

    A (d x k)-valued f (a whole model-space basis) is mapped column by
    column in one solve and one refit; the image carries one tail_bound,
    which bounds every column's error.
    """
    if direction == "forward":
        sign = -1.0
    elif direction == "adjoint":
        sign = 1.0
    else:
        raise ValueError(f"unknown Crofoot direction {direction!r}")
    eye = np.eye(crofoot.dim)
    wstar = crofoot.W.conj().T

    def fn(nodes):
        tv = evaluate_many(theta_series, nodes)
        fv = evaluate_many(f, nodes)
        core = np.linalg.solve(eye + sign * (tv @ wstar), fv.reshape(len(nodes), crofoot.dim, -1))
        return (crofoot.D_Wstar @ core).reshape(fv.shape)

    order = max(theta_series.order, f.order)
    return refit_on_circle(fn, order)
