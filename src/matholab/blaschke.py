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

from .jsonio import (ScenarioError, complex_to_pair, construct, matrix_from_json,
                     matrix_to_json, pair_to_complex, refuse_unknown_keys)
from .laurent import MAX_DIM, MAX_STATE_DIM, Laurent, read_dim

__all__ = [
    "MAX_POLE_ABS",
    "PURITY_MARGIN",
    "PotapovFactor",
    "BlaschkePotapovProduct",
    "ValidationReport",
    "validate",
    "check_colligation",
    "state_window",
    "Powers",
    "matrix_powers",
    "crofoot_realization",
    "diagonal_monomial",
    "scalar_blaschke",
]

MAX_POLE_ABS = 0.9
PURITY_MARGIN = 1e-10
_UNITARY_TOL = 1e-12
# largest |G* G - I|_F of a colligation G judged inner
_COLLIGATION_TOL = 1e-8


def _check_unitary(u, name):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) > _UNITARY_TOL * u.shape[0]:
        raise ValueError(f"{name} is not unitary")
    return u


def _norms(x):
    """Frobenius norms of the slices x[i]; hypot keeps norms below 1e-154
    (deep in a window's tail) from underflowing to zero."""
    return np.hypot.reduce(np.abs(x), axis=tuple(range(1, x.ndim)), initial=0.0)


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

    def to_json(self):
        return {"a": complex_to_pair(self.a),
                "frame": matrix_to_json(self.frame),
                "post_unitary": matrix_to_json(self.post_unitary)}

    @classmethod
    def from_json(cls, obj, field="factor"):
        if not isinstance(obj, dict):
            raise ScenarioError(f"{field}: expected an object")
        refuse_unknown_keys(obj, ("a", "frame", "post_unitary"), field)
        for key in ("a", "frame", "post_unitary"):
            if key not in obj:
                raise ScenarioError(f"{field}.{key}: missing")
        a = pair_to_complex(obj["a"], f"{field}.a")
        frame = matrix_from_json(obj["frame"], f"{field}.frame", limit=MAX_DIM)
        post = matrix_from_json(obj["post_unitary"], f"{field}.post_unitary", limit=MAX_DIM)
        return construct(field, cls, a, frame, post)


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
        """Closed-form value at points with |z| <= 1 (broadcasts over arrays);
        a factor's value is U + (b_a(z) - 1) P U."""
        z = np.asarray(z, dtype=complex)
        out = np.broadcast_to(self.left_unitary, z.shape + (self.dim, self.dim)).copy()
        for f in self.factors:
            b = (z - f.a) / (1.0 - np.conj(f.a) * z)
            pu = f.frame @ (f.frame.conj().T @ f.post_unitary)
            out = out @ (f.post_unitary + (b[..., None, None] - 1.0) * pu)
        return out

    def theta0(self):
        return self.evaluate(np.asarray(0.0 + 0.0j))

    def realization(self):
        """(A, B, C, D) with Theta(z) = D + z C (I - z A)^{-1} B.

        Factor (a, V, U) contributes A = conj(a) I_r, B = s V* U, C = s V and
        D = (I - (1 + a) V V*) U, s = sqrt(1 - |a|^2); the factors are joined in
        series, the first one's state first, and left_unitary multiplies C and D.
        So A is upper triangular, and for an inner product the colligation
        [[A, B], [C, D]] is unitary and A* A + C* C = I (output-normal).
        """
        n = self.model_dim()
        a_mat = np.zeros((n, n), dtype=complex)
        b_mat = np.zeros((n, self.dim), dtype=complex)
        c_mat = np.zeros((self.dim, n), dtype=complex)
        d_mat = np.array(self.left_unitary, dtype=complex)
        off = 0
        for f in self.factors:
            end, s = off + f.rank, np.sqrt(1.0 - abs(f.a) ** 2)
            c_f, vu = s * f.frame, f.frame.conj().T @ f.post_unitary
            d_f = f.post_unitary - (1.0 + f.a) * (f.frame @ vu)
            a_mat[:off, off:end], b_mat[:off] = b_mat[:off] @ c_f, b_mat[:off] @ d_f
            a_mat[off:end, off:end] = np.conj(f.a) * np.eye(f.rank)
            b_mat[off:end] = s * vu
            c_mat[:, off:end] = d_mat @ c_f
            d_mat = d_mat @ d_f
            off = end
        return a_mat, b_mat, c_mat, d_mat

    def laurent(self, order):
        """Series on [-order, order] (analytic; negative slots stay zero) with a
        certified sup-norm tail_bound, read off the realization."""
        return state_window(self.realization(), order)[2]

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
        refuse_unknown_keys(obj, ("dim", "left_unitary", "factors"), field)
        dim = read_dim(obj.get("dim"), f"{field}.dim")
        left = np.eye(dim)
        if "left_unitary" in obj:
            left = matrix_from_json(obj["left_unitary"], f"{field}.left_unitary", shape=(dim, dim))
        raw = obj.get("factors", [])
        if not isinstance(raw, list):
            raise ScenarioError(f"{field}.factors: expected a list")
        factors, states = [], 0
        for i, f in enumerate(raw):
            factors.append(PotapovFactor.from_json(f, f"{field}.factors[{i}]"))
            states += factors[-1].rank
            if states > MAX_STATE_DIM:
                raise ScenarioError(f"{field}.factors: the ranks sum past the largest "
                                    f"state dimension {MAX_STATE_DIM}")
        return construct(field, cls, dim, left, factors)


@dataclass
class ValidationReport:
    inner: bool
    pure: bool
    max_unitary_defect: float
    theta0_norm: float
    realization: tuple  # the judged colligation (A, B, C, D)


def check_colligation(realization):
    """Inner when the colligation G = [[A, B], [C, D]] of the realization is
    unitary (``max_unitary_defect`` = |G* G - I|_F), pure when norm(D) < 1.
    The report keeps the realization, which ``ModelSpace`` is built from."""
    a_mat, b_mat, c_mat, d_mat = realization
    n, size = len(a_mat), len(a_mat) + len(d_mat)
    g = np.empty((size, size), dtype=complex)
    g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:] = a_mat, b_mat, c_mat, d_mat
    defect = np.linalg.norm(g.conj().T @ g - np.eye(size))
    theta0 = np.linalg.svd(d_mat, compute_uv=False)[0]
    return ValidationReport(inner=bool(defect <= _COLLIGATION_TOL),
                            pure=bool(theta0 < 1.0 - PURITY_MARGIN),
                            max_unitary_defect=float(defect), theta0_norm=float(theta0),
                            realization=realization)


def validate(theta):
    """``check_colligation`` of the product's realization."""
    return check_colligation(theta.realization())


def state_window(realization, order):
    """A unitary realization read on the window [-order, order]: (F, tails, series).

    F[n] = C A^n (0 <= n <= order) is the model-space basis; tails[j] =
    |A^{order+1} e_j| is the exact L^2 mass the window drops from column j
    (output-normality); the series of Theta is D, then F[n-1] B. Its
    tail_bound, the l^1 sum of |C A^m B|_F over m >= order, bounds the sup
    and L^2 norms of the dropped part: 8K terms are summed, K the first
    power of two with q = |A^K|_F <= 1/2, and |C A^m (A^K)^j B|_F <=
    |C A^m|_F q^j finishes it geometrically.
    """
    a_mat, b_mat, c_mat, d_mat = realization
    step, reach = a_mat, 1
    while (q := np.linalg.norm(step)) > 0.5:
        step, reach = step @ step, 2 * reach
    count, dim = order + 9 * reach, d_mat.shape[0]
    powers = matrix_powers(a_mat, count)
    f = c_mat @ powers
    theta = f @ b_mat
    basis = np.concatenate([np.zeros((order,) + f.shape[1:]), f[:order + 1]])
    coeffs = np.concatenate([np.zeros((order, dim, dim)), d_mat[None], theta[:order]])
    exact = _norms(theta[order:order + 8 * reach]).sum()
    # |B|_2 <= 1: B is a block of the unitary colligation
    rest = _norms(f[order + 8 * reach:]).sum() / (1.0 - q)
    tails = _norms(powers[order + 1].T)
    return basis, tails, Laurent(coeffs, order, exact + rest).trim()


class Powers:
    """A square matrix M with the powers computed of it so far, each computed
    once: the squarings M^(2^j), their squared Frobenius norms (only those
    ``stein`` has read) and the stack M^0 .. M^(2^j - 1) that
    ``matrix_powers`` last doubled to. Nothing is computed before it is asked
    for."""

    __slots__ = ("squarings", "norms", "stack")

    def __init__(self, mat):
        self.squarings, self.norms, self.stack = [mat], [], None

    def squaring(self, j):
        """M^(2^j), by j squarings of M."""
        kept = self.squarings
        while len(kept) <= j:
            kept.append(kept[-1] @ kept[-1])
        return kept[j]

    def norm(self, j):
        """|M^(2^j)|_F^2, read in order: ``stein``'s step j reads it after
        step j - 1 has."""
        norms = self.norms
        if len(norms) == j:
            m = self.squaring(j)
            norms.append(np.vdot(m, m).real)
        return norms[j]


def _powers(mat):
    return mat if isinstance(mat, Powers) else Powers(mat)


def matrix_powers(mat, count):
    """mat^0 .. mat^(count - 1), stacked. The stack doubles each step, by one
    flat product of the stacked rows with the squaring mat^(2^j), up to the
    first power of two at or above count. A ``Powers`` for mat keeps that
    stack and its squarings, and a later call grows it by the same steps, so
    a stack is the same array however it was grown."""
    kept = _powers(mat)
    out = kept.stack
    if out is None or len(out) < count:
        n = len(kept.squarings[0])
        grown = np.empty((1 << max(count - 1, 0).bit_length(), n, n), dtype=complex)
        if out is None:
            grown[0], have = np.eye(n), 1
        else:
            grown[:len(out)], have = out, len(out)
        rows = grown.reshape(-1, n)
        while have < len(grown):
            np.matmul(rows[:have * n], kept.squaring(have.bit_length() - 1),
                      out=rows[have * n:2 * have * n])
            have *= 2
        # callers get views of the kept stack: it must not change under them
        grown.flags.writeable = False
        kept.stack = out = grown
    return out[:count]


def crofoot_realization(realization, crofoot):
    """Realization of Theta^W = -W + D_{W*} (I - Theta W*)^{-1} Theta D_W for
    the Theta of the realization (A, B, C, D).

    With G = (I - D W*)^{-1}: A_W = A + B W* G C, B_W = B (I + W* G D) D_W,
    C_W = D_{W*} G C and D_W' = -W + D_{W*} G D D_W. The colligation stays
    unitary, and J_W C (I - z A)^{-1} x = C_W (I - z A_W)^{-1} x: the Crofoot
    map is the identity in state coordinates (Ball, Gohberg and Rodman 1990).
    """
    a_mat, b_mat, c_mat, d_mat = realization
    wstar, n, eye = crofoot.W.conj().T, a_mat.shape[0], np.eye(d_mat.shape[0])
    g_cd = np.linalg.solve(eye - d_mat @ wstar, np.hstack([c_mat, d_mat]))
    g_c, g_d = g_cd[:, :n], g_cd[:, n:]
    return (a_mat + b_mat @ wstar @ g_c, b_mat @ (eye + wstar @ g_d) @ crofoot.D_W,
            crofoot.D_Wstar @ g_c, crofoot.D_Wstar @ g_d @ crofoot.D_W - crofoot.W)


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
