"""Rational matrix inner functions as Blaschke-Potapov products.

A product is a constant unitary times elementary factors

    F(z) = (I - P + b_a(z) P) U,    b_a(z) = (z - a) / (1 - conj(a) z),

with P an orthogonal projection given by an orthonormal frame and U a
unitary. Pole parameters are capped at |a| <= 0.9 so series windows stay
meaningful. Purity (``norm(Theta(0)) < 1``) is a property of the assembled
product, not of single factors: a factor with a rank-deficient projection
always has a unit singular value at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import ScenarioError, matrix_from_json, matrix_to_json, pair_to_complex, complex_to_pair
from .laurent import Laurent, refit_on_circle

__all__ = [
    "MAX_POLE_ABS",
    "PURITY_MARGIN",
    "PotapovFactor",
    "BlaschkePotapovProduct",
    "ValidationReport",
    "validate",
    "crofoot_theta",
    "diagonal_monomial",
    "scalar_blaschke",
]

MAX_POLE_ABS = 0.9
PURITY_MARGIN = 1e-10
_UNITARY_TOL = 1e-12


def _check_unitary(u, name):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) > _UNITARY_TOL * u.shape[0]:
        raise ValueError(f"{name} is not unitary")
    return u


class PotapovFactor:
    """One elementary factor (I - P + b_a(z) P) U with P = frame @ frame*."""

    __slots__ = ("a", "frame", "post_unitary", "dim", "rank")

    def __init__(self, a, frame, post_unitary):
        a = complex(a)
        if abs(a) > MAX_POLE_ABS:
            raise ValueError(f"pole parameter |a| = {abs(a):.3f} exceeds the {MAX_POLE_ABS} cap")
        frame = np.asarray(frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[1] < 1 or frame.shape[1] > frame.shape[0]:
            raise ValueError("frame must be d x r with 1 <= r <= d")
        if np.linalg.norm(frame.conj().T @ frame - np.eye(frame.shape[1])) > _UNITARY_TOL * frame.shape[0]:
            raise ValueError("frame columns are not orthonormal")
        post = _check_unitary(post_unitary, "post_unitary")
        if post.shape[0] != frame.shape[0]:
            raise ValueError("frame and post_unitary dimensions disagree")
        self.a = a
        self.frame = frame
        self.post_unitary = post
        self.dim = frame.shape[0]
        self.rank = frame.shape[1]

    def projection(self):
        return self.frame @ self.frame.conj().T

    def value(self, z):
        """Factor value at one point or an array of points with |z| <= 1."""
        z = np.asarray(z, dtype=complex)
        b = (z - self.a) / (1.0 - np.conj(self.a) * z)
        p = self.projection()
        eye = np.eye(self.dim)
        core = eye - p + b[..., None, None] * p
        return core @ self.post_unitary

    def laurent(self, order):
        """Series of the factor on [0, order] with a certified geometric tail."""
        pu = self.projection() @ self.post_unitary
        out = np.zeros((2 * order + 1, self.dim, self.dim), dtype=complex)
        out[order] = (np.eye(self.dim) - (1.0 + self.a) * self.projection()) @ self.post_unitary
        r = abs(self.a)
        scale = 1.0 - r * r
        powers = np.conj(self.a) ** np.arange(order)
        out[order + 1:] = scale * powers[:, None, None] * pu
        tail = 0.0
        if r > 0:
            tail = np.sqrt(self.rank) * (1.0 + r) * r ** order
        return Laurent(out, order, float(tail))

    def to_json(self):
        return {"a": complex_to_pair(self.a),
                "frame": matrix_to_json(self.frame),
                "post_unitary": matrix_to_json(self.post_unitary)}

    @classmethod
    def from_json(cls, obj, field="factor"):
        if not isinstance(obj, dict):
            raise ScenarioError(f"{field}: expected an object")
        for key in ("a", "frame", "post_unitary"):
            if key not in obj:
                raise ScenarioError(f"{field}.{key}: missing")
        a = pair_to_complex(obj["a"], f"{field}.a")
        frame = matrix_from_json(obj["frame"], f"{field}.frame")
        post = matrix_from_json(obj["post_unitary"], f"{field}.post_unitary")
        try:
            return cls(a, frame, post)
        except ValueError as exc:
            raise ScenarioError(f"{field}: {exc}") from None


class BlaschkePotapovProduct:
    """left_unitary * F_1(z) * ... * F_k(z)."""

    __slots__ = ("dim", "left_unitary", "factors")

    def __init__(self, dim, left_unitary=None, factors=()):
        self.dim = int(dim)
        if left_unitary is None:
            left_unitary = np.eye(self.dim)
        self.left_unitary = _check_unitary(left_unitary, "left_unitary")
        if self.left_unitary.shape[0] != self.dim:
            raise ValueError("left_unitary dimension disagrees with dim")
        factors = tuple(factors)
        for f in factors:
            if f.dim != self.dim:
                raise ValueError("factor dimension disagrees with dim")
        self.factors = factors

    def evaluate(self, z):
        """Closed-form value at points with |z| <= 1 (broadcasts over arrays)."""
        z = np.asarray(z, dtype=complex)
        out = np.broadcast_to(self.left_unitary, z.shape + (self.dim, self.dim)).copy()
        for f in self.factors:
            out = out @ f.value(z)
        return out

    def theta0(self):
        return self.evaluate(np.asarray(0.0 + 0.0j))

    def laurent(self, order):
        """Series on [-order, order] (analytic; negative slots stay zero)."""
        cur = Laurent.constant(self.left_unitary)
        if cur.dim != self.dim:
            raise ValueError("dimension mismatch")
        for f in self.factors:
            cur = cur.mul(f.laurent(order)).truncate(order)
        return cur.trim()

    def tilde(self):
        """The reflected product Theta~(z) = Theta(conj(z))^*, in product form again.

        Factor adjoints reverse the order; each U* slides left through its
        projector by replacing the frame with U* frame, and the old
        left_unitary lands, starred, in the last post slot.
        """
        if not self.factors:
            return BlaschkePotapovProduct(self.dim, self.left_unitary.conj().T, ())
        new = []
        for f in reversed(self.factors):
            u = f.post_unitary.conj().T
            new.append(PotapovFactor(np.conj(f.a), u @ f.frame, u))
        last = new[-1]
        new[-1] = PotapovFactor(last.a, last.frame, last.post_unitary @ self.left_unitary.conj().T)
        return BlaschkePotapovProduct(self.dim, np.eye(self.dim), new)

    def conjugated(self, conj_j):
        """Theta_J(z) = J Theta(conj(z)) J, again a product (coefficientwise J)."""
        uj = conj_j.U
        sandwich = lambda m: uj @ np.conj(m) @ np.conj(uj)
        factors = [PotapovFactor(np.conj(f.a), uj @ np.conj(f.frame), sandwich(f.post_unitary))
                   for f in self.factors]
        return BlaschkePotapovProduct(self.dim, sandwich(self.left_unitary), factors)

    def transported(self, v):
        """V Theta V* for a constant unitary V."""
        v = _check_unitary(v, "transport unitary")
        factors = [PotapovFactor(f.a, v @ f.frame, v @ f.post_unitary @ v.conj().T)
                   for f in self.factors]
        return BlaschkePotapovProduct(self.dim, v @ self.left_unitary @ v.conj().T, factors)

    def model_dim(self):
        return sum(f.rank for f in self.factors)

    def to_json(self):
        return {"dim": self.dim,
                "left_unitary": matrix_to_json(self.left_unitary),
                "factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, obj, field="theta"):
        if not isinstance(obj, dict):
            raise ScenarioError(f"{field}: expected an object")
        dim = obj.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ScenarioError(f"{field}.dim: expected a positive integer")
        left = np.eye(dim)
        if "left_unitary" in obj:
            left = matrix_from_json(obj["left_unitary"], f"{field}.left_unitary", shape=(dim, dim))
        raw = obj.get("factors", [])
        if not isinstance(raw, list):
            raise ScenarioError(f"{field}.factors: expected a list")
        factors = [PotapovFactor.from_json(f, f"{field}.factors[{i}]") for i, f in enumerate(raw)]
        try:
            return cls(dim, left, factors)
        except ValueError as exc:
            raise ScenarioError(f"{field}: {exc}") from None


@dataclass
class ValidationReport:
    inner: bool
    pure: bool
    max_unitary_defect: float
    theta0_norm: float


def validate(theta, n_samples=64, tol=1e-8):
    """Sampled sanity report: unitary boundary values and purity."""
    nodes = np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    vals = theta.evaluate(nodes)
    eye = np.eye(theta.dim)
    defect = np.linalg.norm(np.conj(np.transpose(vals, (0, 2, 1))) @ vals - eye, axis=(1, 2))
    theta0 = np.linalg.norm(theta.theta0(), 2)
    return ValidationReport(
        inner=bool(defect.max() <= tol),
        pure=bool(theta0 < 1.0 - PURITY_MARGIN),
        max_unitary_defect=float(defect.max()),
        theta0_norm=float(theta0),
    )


def crofoot_theta(theta, crofoot, order, n_grid=None):
    """Series of Theta^W = -W + D_{W*} (I - Theta W*)^{-1} Theta D_W.

    Evaluated pointwise on the circle and refit; the refit residual lands in
    tail_bound. The result is inner again and pure whenever Theta is.
    """
    w = crofoot.W

    def fn(nodes):
        vals = theta.evaluate(nodes)
        eye = np.eye(theta.dim)
        core = np.linalg.solve(eye - vals @ w.conj().T, vals @ crofoot.D_W)
        return -w + crofoot.D_Wstar @ core

    return refit_on_circle(fn, order, n_grid=n_grid)


def diagonal_monomial(powers):
    """diag(z^{k_1}, ..., z^{k_d}) as a product of step factors."""
    powers = [int(k) for k in powers]
    if any(k < 0 for k in powers):
        raise ValueError("powers must be nonnegative")
    dim = len(powers)
    factors = []
    for step in range(max(powers, default=0)):
        cols = [i for i, k in enumerate(powers) if k > step]
        frame = np.eye(dim)[:, cols]
        factors.append(PotapovFactor(0.0, frame, np.eye(dim)))
    return BlaschkePotapovProduct(dim, np.eye(dim), factors)


def scalar_blaschke(poles):
    """Scalar finite Blaschke product with the given pole parameters."""
    one = np.eye(1)
    factors = [PotapovFactor(a, one, one) for a in np.atleast_1d(poles)]
    return BlaschkePotapovProduct(1, one, factors)
