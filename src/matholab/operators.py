"""Truncated Toeplitz and Hankel operators between two model spaces.

A symbol Phi acts by A_Phi f = P_{Theta2}(Phi f) (Toeplitz) or
B_Phi f = P_{Theta2} J (I - P_+)(Phi f) (Hankel, with the flip
(J f)(z) = conj(z) f(conj(z))). Everything downstream is matrix algebra
in the fixed orthonormal bases of the two spaces: membership in the
operator classes via displacement equations, the equivalent
shift-invariance predicates, symbol recovery (one minimum-norm solve on
the linear map from symbol coefficients to the matrix, for both
families), symbol-kernel tests, and a registry of conjugation/transform
identities checked as exact matrix equalities up to tolerance.

Every check comes back as one ``Check`` record (name, residual,
threshold, scale, verdict, optional reason), and every accept/reject
follows one rule: accept iff residual <= threshold * (1 + scale). The
scale is the norm of the data the residual is measured against: the
displacement for a displacement equation, the left-hand side for a
registry identity, 0 for the shift-invariance predicates.

Antilinear maps are carried as matrices L with action c -> L conj(c);
composing two of them therefore yields the linear matrix L2 conj(L1),
which is how every registry left-hand side below becomes plain matmul.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .blaschke import crofoot_realization
from .conjugations import (CTheta, Conjugation, CrofootData, jstar, jsymmetry_defect,
                           realization_jsymmetry_defect, sandwich_pointwise,
                           sandwich_reflected, tau)
from .jsonio import matrix_to_json
from .laurent import Laurent, evaluate_many
from .modelspace import _RANK_TOL, ModelSpace

__all__ = [
    "Check", "ModelOperator", "build_matto", "build_matho",
    "displacement_check", "shift_invariance_check", "recover_symbol",
    "kernel_test", "kernel_check", "TransformInputs", "verify_transform",
    "DISPLACEMENT_KINDS", "INVARIANCE_KINDS", "REGISTRY_NAMES", "SYMBOL_FREE_IDENTITIES",
]

_JSYM_TOL = 1e-8


def _passes(residual, threshold, scale):
    """The acceptance rule shared by every check."""
    return residual <= threshold * (1.0 + scale)


@dataclass(frozen=True)
class Check:
    """One judged residual; a skipped check states its unmet hypothesis in reason."""

    name: str
    residual: float | None
    threshold: float
    scale: float | None
    verdict: str
    reason: str | None = None

    @classmethod
    def judge(cls, name, residual, threshold, scale):
        verdict = "accept" if _passes(residual, threshold, scale) else "reject"
        return cls(name, float(residual), float(threshold), float(scale), verdict)

    def accepted(self):
        return self.verdict == "accept"

    def to_json(self):
        out = {"name": self.name, "residual": self.residual, "threshold": self.threshold,
               "scale": self.scale, "verdict": self.verdict}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


class ModelOperator:
    """A matrix over (basis of K_Theta1) -> (basis of K_Theta2)."""

    def __init__(self, domain, codomain, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (codomain.dim_K, domain.dim_K):
            raise ValueError("operator matrix shape does not match the two spaces")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def to_json(self):
        out = {"matrix": matrix_to_json(self.matrix)}
        if self.domain.theta is not None:
            out["theta1"] = self.domain.theta.to_json()
        if self.codomain.theta is not None:
            out["theta2"] = self.codomain.theta.to_json()
        return out


def _check_symbol(symbol, space1, space2):
    if symbol.dim != space1.dim or symbol.dim != space2.dim:
        raise ValueError("symbol dimension does not match the spaces")


def build_matto(space1, space2, symbol):
    """Matrix of f -> P_{Theta2}(Phi f) on K_{Theta1}: Phi times the whole basis at once."""
    _check_symbol(symbol, space1, space2)
    return ModelOperator(space1, space2, space2.coords(symbol.mul(space1.basis)))


def build_matho(space1, space2, symbol):
    """Matrix of f -> P_{Theta2} J (I - P_+)(Phi f) on K_{Theta1}."""
    _check_symbol(symbol, space1, space2)
    minus = symbol.mul(space1.basis).riesz_split()[1]
    return ModelOperator(space1, space2, space2.coords(minus.flip()))


# -- membership characterizations -------------------------------------------

_MODIFIED_BASE = {"MT": "T1", "MH-a": "H1", "MH-b": "H2", "MH-c": "H3", "MH-d": "H4"}

# kind -> (displacement, right defect projection on space1, left on space2)
_DISPLACEMENTS = {
    "T1": (lambda a, s1, s1s, s2, s2s: a - s2 @ a @ s1s, "P_D", "P_D"),
    "T2": (lambda a, s1, s1s, s2, s2s: a - s2s @ a @ s1, "P_Dt", "P_Dt"),
    "T3": (lambda a, s1, s1s, s2, s2s: s2s @ a - a @ s1s, "P_D", "P_Dt"),
    "T4": (lambda a, s1, s1s, s2, s2s: s2 @ a - a @ s1, "P_Dt", "P_D"),
    "H1": (lambda a, s1, s1s, s2, s2s: a - s2 @ a @ s1, "P_Dt", "P_D"),
    "H2": (lambda a, s1, s1s, s2, s2s: s2s @ a - a @ s1, "P_Dt", "P_Dt"),
    "H3": (lambda a, s1, s1s, s2, s2s: a - s2s @ a @ s1s, "P_D", "P_Dt"),
    "H4": (lambda a, s1, s1s, s2, s2s: s2 @ a - a @ s1s, "P_D", "P_D"),
}


def _displacement(op, kind, sh1, sh2):
    """(displacement, right defect projection on space1, left on space2) of a base kind."""
    expr, right_name, left_name = _DISPLACEMENTS[kind]
    x = expr(op.matrix, sh1, sh1.conj().T, sh2, sh2.conj().T)
    return x, getattr(op.domain, right_name), getattr(op.codomain, left_name)


def displacement_check(op, kind, threshold=1e-8, modifier1=None, modifier2=None):
    """Membership via the residual of a displacement equation.

    The displacement of an in-class operator is supported on the kind's
    defect pair; the report's residual is the Frobenius mass outside it.
    Modified-shift kinds (MT, MH-a..d) replace both compressed shifts by
    S_{Theta,X} and need the two modifier maps.
    """
    base = _MODIFIED_BASE.get(kind, kind)
    if base not in _DISPLACEMENTS:
        raise ValueError(f"unknown displacement kind {kind!r}")
    if kind in _MODIFIED_BASE:
        if modifier1 is None or modifier2 is None:
            raise ValueError(f"kind {kind} needs modifier maps for both spaces")
        sh1 = op.domain.modified_shift(modifier1)
        sh2 = op.codomain.modified_shift(modifier2)
    else:
        sh1, sh2 = op.domain.S, op.codomain.S
    x, p_right, p_left = _displacement(op, base, sh1, sh2)
    q_right = np.eye(op.domain.dim_K) - p_right
    q_left = np.eye(op.codomain.dim_K) - p_left
    resid = np.linalg.norm(q_left @ x @ q_right)
    return Check.judge(kind, resid, threshold, np.linalg.norm(x))


def _complement_basis(proj):
    w, vecs = np.linalg.eigh(proj)
    return vecs[:, w < 0.5]


# every `check` kind -> the operator family whose members satisfy it
DISPLACEMENT_KINDS = {kind: "toeplitz" if _MODIFIED_BASE.get(kind, kind)[0] == "T" else "hankel"
                      for kind in (*_DISPLACEMENTS, *_MODIFIED_BASE)}
INVARIANCE_KINDS = {f"{family}-{kind}": family
                    for family in ("toeplitz", "hankel") for kind in "abcd"}


def shift_invariance_check(op, family, kind, threshold=1e-8):
    """Bilinear shift-invariance predicate on the defect orthocomplements.

    Example, hankel kind a: <B z f, conj(z) g> = <B f, g> for all f with
    z f still in K_{Theta1} and g with conj(z) g still in K_{Theta2}; on
    those subspaces multiplication by z agrees with the compressed shift
    matrices, so each pair becomes one scalar identity. Its two sides
    differ by minus the displacement of the matching kind (toeplitz a..d:
    T1..T4, hankel a..d: H1..H4), on that kind's defect pair, so the
    residual is max |<X f, g>| over orthonormal bases of the complements.
    """
    name = f"{family}-{kind}"
    if name not in INVARIANCE_KINDS:
        raise ValueError(f"unknown shift-invariance check {family}({kind})")
    base = family[0].upper() + str("abcd".index(kind) + 1)
    x, p_right, p_left = _displacement(op, base, op.domain.S, op.codomain.S)
    f_basis = _complement_basis(p_right)
    g_basis = _complement_basis(p_left)
    if f_basis.shape[1] == 0 or g_basis.shape[1] == 0:
        return Check.judge(name, 0.0, threshold, 0.0)
    return Check.judge(name, np.max(np.abs(g_basis.conj().T @ x @ f_basis)), threshold, 0.0)


# -- symbol recovery ---------------------------------------------------------

def _symbol_map(space1, space2, family, reach):
    """(lags, M): column (k, a, b) of M is the flattened build of E_ab z^k.

    Both families pair the analytic windows c^j of space1 and c^i of space2,
    one einsum per lag. Toeplitz, lags -reach..reach: <z^k E b_j, b_i> =
    sum_m conj(c^i_m)^T E c^j_{m-k} over the slots m both windows hold
    (none past either window, where the column is zero).
    Hankel, lags -reach..-1: lag -s gives sum_{p+q=s-1} conj(c^i_p)^T E c^j_q.
    """
    c1 = space1.basis.coeffs[space1.order:]
    c2 = space2.basis.coeffs[space2.order:].conj()
    m1, m2 = space1.order, space2.order
    if family == "toeplitz":
        lags, pairs = range(-reach, reach + 1), []
        for k in lags:
            lo = max(k, 0)
            hi = max(lo, min(m2, m1 + k) + 1)
            pairs.append((c2[lo:hi], c1[lo - k:hi - k]))
    else:
        lags = range(-reach, 0)
        pairs = [(c2[max(0, -k - 1 - m1):min(-k, m2 + 1)],
                  c1[max(0, -k - 1 - m2):min(-k, m1 + 1)][::-1]) for k in lags]
    blocks = np.stack([np.einsum("mai,mbj->abij", p, q) for p, q in pairs])
    return list(lags), blocks.reshape(len(pairs) * space1.dim ** 2, -1).T


def recover_symbol(op, family, threshold=1e-8):
    """A representative symbol for an accepted operator, plus the rebuild gap.

    One minimum-norm least-squares solve on the linear map Phi -> built
    matrix (``_symbol_map``), over the lags -K..K (toeplitz) or -K..-1
    (hankel) for K = 1, 2, 4, ... up to the smaller window order; the first
    K whose solution reproduces the matrix within threshold wins. The
    symbol is a finite Laurent polynomial, unique only modulo the kernel
    class; the gap is measured by an independent build.
    """
    if family not in ("toeplitz", "hankel"):
        raise ValueError(f"unknown recovery family {family!r}")
    kind, build = ("T1", build_matto) if family == "toeplitz" else ("H1", build_matho)
    rep = displacement_check(op, kind, threshold)
    if not rep.accepted():
        raise ValueError(f"operator rejected by {kind} membership (residual {rep.residual:.2e})")
    target = op.matrix.ravel()
    scale, cap, reach = np.linalg.norm(target), min(op.domain.order, op.codomain.order), 1
    while True:
        lags, mat = _symbol_map(op.domain, op.codomain, family, min(reach, cap))
        x = np.linalg.lstsq(mat, target, rcond=None)[0]
        if reach >= cap or _passes(np.linalg.norm(mat @ x - target), threshold, scale):
            break
        reach *= 2
    d = op.domain.dim
    phi = Laurent.from_coeff_map(dict(zip(lags, x.reshape(-1, d, d))), d)
    residual = float(np.linalg.norm(build(op.domain, op.codomain, phi).matrix - op.matrix))
    return phi, residual


# -- symbol kernel test ------------------------------------------------------

def kernel_test(symbol, space1, space2, family, conj1=None, conj2=None, threshold=1e-8):
    """Is Phi in the kernel class (symbols building the zero operator)?

    The class is ker M for the linear map M: Phi -> built matrix
    (``_symbol_map``) over every lag the windows reach, so the symbol's
    distance to it is |M^+ M Phi| = |M^+ a|: the norm of the minimum-norm
    symbol with the same build a. For toeplitz that class is Sarason's
    Theta2 H^2 + (Theta1 H^2)^* on the window. One SVD of M per space
    pair and family, cut at _RANK_TOL * s_0 and kept on space2 for as
    long as both spaces live, leaves each query one build and one small
    product |W^* vec(a)| with W = U_r / s_r. No J-symmetry enters: conj1
    and conj2 are accepted and ignored. The class distance decides the
    verdict, and the verdict is always cross-checked against the norm of
    the built operator; a zero operator at a class distance above the
    threshold is reported as "class-gap" rather than an error.
    """
    _check_symbol(symbol, space1, space2)
    if family not in ("toeplitz", "hankel"):
        raise ValueError(f"unknown kernel family {family!r}")
    order = max(space1.order, space2.order)
    lo, hi = symbol.support()
    if lo < -order or hi > order:
        raise ValueError(f"symbol support [{lo}, {hi}] exceeds the window [{-order}, {order}]")
    classes = space2.kernel_classes.setdefault(space1, {})
    if family not in classes:
        reach = order if family == "toeplitz" else space1.order + space2.order + 1
        u, s, _ = np.linalg.svd(_symbol_map(space1, space2, family, reach)[1],
                                full_matrices=False)
        keep = s > _RANK_TOL * s.max(initial=0.0)
        classes[family] = (u[:, keep] / s[keep]).conj().T
    build = build_matto if family == "toeplitz" else build_matho
    built = build(space1, space2, symbol).matrix.ravel()
    distance = float(np.linalg.norm(classes[family] @ built))
    in_kernel = _passes(distance, threshold, symbol.norm())
    op_norm = float(np.linalg.norm(built))
    is_zero = _passes(op_norm, 1e-10, symbol.norm())
    if in_kernel == is_zero:
        agreement = "confirmed"
    elif in_kernel:
        agreement = "conflict"
    else:
        agreement = "class-gap"
    return {"family": family,
            "verdict": "in-kernel" if in_kernel else "not-in-kernel",
            "distance": distance,
            "matrix_norm": op_norm,
            "agreement": agreement}


_AGREEMENT_REASONS = {
    "confirmed": "confirmed: the class distance and the built operator agree",
    "conflict": "conflict: in the class by distance, but the built operator is not zero",
    "class-gap": "class-gap: the built operator is zero, but the class distance is over threshold",
}


def kernel_check(symbol, result, threshold):
    """A kernel_test result as a record: accepted iff its agreement is confirmed.

    The residual is the class distance, judged inside kernel_test against
    threshold * (1 + |symbol|); the record's verdict is the cross-check,
    so a conflict or class-gap rejects whatever the distance says.
    """
    agreement = result["agreement"]
    return Check(f"kernel-{result['family']}", result["distance"], float(threshold),
                 float(symbol.norm()), "accept" if agreement == "confirmed" else "reject",
                 _AGREEMENT_REASONS[agreement])


# -- transform identity registry ---------------------------------------------

def _map_matrix(fn, src, dst):
    """Matrix whose columns are dst-coordinates of fn(basis of src).

    fn acts on the stacked basis series in one call. For a linear fn this
    is the matrix of the map; for an antilinear fn it is the L of the
    action c -> L conj(c)."""
    return dst.coords(fn(src.basis))


class TransformInputs:
    """Input bundle for the registry, with lazily cached derived spaces."""

    def __init__(self, theta1, theta2, order=64, symbol=None, conj1=None, conj2=None,
                 crofoot1=None, crofoot2=None, threshold=1e-8):
        self.theta1 = theta1
        self.theta2 = theta2
        self.order = order
        self.symbol = symbol
        self.conj1 = conj1 if conj1 is not None else Conjugation.identity(theta1.dim)
        self.conj2 = conj2 if conj2 is not None else Conjugation.identity(theta2.dim)
        zero = np.zeros((theta1.dim, theta1.dim))
        self.crofoot1 = crofoot1 if crofoot1 is not None else CrofootData(zero)
        self.crofoot2 = crofoot2 if crofoot2 is not None else CrofootData(zero)
        self.threshold = threshold
        self._cache = {}

    def space(self, key):
        if key not in self._cache:
            theta = {"1": self.theta1, "2": self.theta2}[key[0]]
            if key.endswith("t"):
                theta = theta.tilde()
            elif key.endswith("j"):
                conj = self.conj1 if key[0] == "1" else self.conj2
                theta = theta.conjugated(conj)
            self._cache[key] = ModelSpace.from_product(theta, self.order)
        return self._cache[key]

    def crofoot_image(self, which):
        """(image space, matrix of the forward Crofoot map) for theta1 or theta2.

        The map is the identity between the two state bases, so in the spaces'
        bases it is L_image^{-1} L_source (their ``loewdin`` matrices)."""
        key = f"{which}w"
        if key not in self._cache:
            theta = self.theta1 if which == 1 else self.theta2
            cro = self.crofoot1 if which == 1 else self.crofoot2
            image = ModelSpace.from_realization(crofoot_realization(theta, cro), self.order)
            src = self.space(str(which))
            self._cache[key] = (image, np.linalg.solve(image.loewdin, src.loewdin))
        return self._cache[key]

    def jsym_gaps(self):
        """J-symmetry defects of theta1 and theta2 (``realization_jsymmetry_defect``)."""
        return tuple(realization_jsymmetry_defect(s.realization, s.theta_series, c)
                     for s, c in ((self.space("1"), self.conj1), (self.space("2"), self.conj2)))


# Each _verify_* returns the two sides (lhs, rhs) of its identity as matrices;
# verify_transform judges |lhs - rhs| against threshold * (1 + |lhs|).

def _verify_crofoot(inp):
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    b = build_matho(k1, k2, phi).matrix
    k1w, f1 = inp.crofoot_image(1)
    k2w, f2 = inp.crofoot_image(2)
    lhs = f2 @ b @ f1.conj().T
    cro1, cro2 = inp.crofoot1, inp.crofoot2
    d1inv = np.linalg.inv(cro1.D_Wstar)
    d2inv = np.linalg.inv(cro2.D_Wstar)
    # The codomain multiplier rides through the flip J, so it enters the
    # symbol as its inverse adjoint at the reflected argument; that is the
    # polynomial D^{-1}(I - W2 Theta2(zbar)^*). The domain side simplifies
    # by D(I + Theta1^W W1*)^{-1} = (I - Theta1 W1*) D^{-1}, so the whole
    # symbol transform is exact series arithmetic.
    left = (Laurent.constant(d2inv)
            - k2.theta_series.tilde().left_const(d2inv @ cro2.W))
    right = (Laurent.constant(np.eye(k1.dim))
             - k1.theta_series.right_const(cro1.W.conj().T)).right_const(d1inv)
    psi = left.mul(phi).mul(right).truncate(inp.order)
    return lhs, build_matho(k1w, k2w, psi).matrix


def _verify_tau(inp):
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k1t, k2t = inp.space("1t"), inp.space("2t")
    b = build_matho(k1, k2, phi).matrix
    t1 = _map_matrix(lambda f: tau(k1.theta_series, f), k1, k1t)
    t2 = _map_matrix(lambda f: tau(k2.theta_series, f), k2, k2t)
    lhs = t2 @ b @ t1.conj().T
    psi = k2.theta_series.tilde().mul(phi).mul(k1.theta_series).reflect_z().truncate(inp.order)
    return lhs, build_matho(k1t, k2t, psi).matrix


def _verify_jstar(build, suffix, inp):
    """Jstar into derived spaces: "jstar" (build_matho, the conjugated spaces "j"),
    prop61c (build_matto, the tilde spaces "t") and prop61d (build_matho, "t")."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k1x, k2x = inp.space("1" + suffix), inp.space("2" + suffix)
    mat = build(k1, k2, phi).matrix
    l1 = _map_matrix(lambda f: jstar(inp.conj1, f), k1x, k1)
    l2 = _map_matrix(lambda f: jstar(inp.conj2, f), k2, k2x)
    lhs = l2 @ np.conj(mat @ l1)
    psi = sandwich_reflected(inp.conj2, phi, inp.conj1)
    return lhs, build(k1x, k2x, psi).matrix


def _ctheta_maps(inp):
    k1, k2 = inp.space("1"), inp.space("2")
    c1 = CTheta(k1.theta_series, inp.conj1)
    c2 = CTheta(k2.theta_series, inp.conj2)
    return (_map_matrix(c1.apply, k1, k1), _map_matrix(c2.apply, k2, k2))


def _verify_ctheta(inp):
    """C_Theta2 B_Phi C_Theta1 = B_Psi; reported as "ctheta" and as "prop61b"."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    b = build_matho(k1, k2, phi).matrix
    l_c1, l_c2 = _ctheta_maps(inp)
    lhs = l_c2 @ np.conj(b @ l_c1)
    # composing the tau identity with the coefficient conjugations puts the
    # reflected Theta2 on the left; writing Theta2(z) there instead loses the
    # anti-analytic mass of the symbol and breaks the operator equality
    inner = k2.theta_series.tilde().mul(phi).mul(k1.theta_series).truncate(inp.order)
    psi = sandwich_pointwise(inp.conj2, inner, inp.conj1)
    return lhs, build_matho(k1, k2, psi).matrix


def _verify_prop61a(inp):
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    a = build_matto(k1, k2, phi).matrix
    l_c1, l_c2 = _ctheta_maps(inp)
    lhs = l_c2 @ np.conj(a @ l_c1)
    inner = k2.theta_series.adjoint_star().mul(phi).mul(k1.theta_series).truncate(inp.order)
    psi = sandwich_pointwise(inp.conj2, inner, inp.conj1)
    return lhs, build_matto(k1, k2, psi).matrix


def _verify_prop61e(inp):
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k1t = inp.space("1t")
    a = build_matto(k1, k2, phi).matrix
    l1 = _map_matrix(lambda f: jstar(inp.conj1, f), k1t, k1)
    l_c2 = _ctheta_maps(inp)[1]
    lhs = l_c2 @ np.conj(a @ l1)
    inner = k2.theta_series.tilde().mul(phi.reflect_z()).truncate(inp.order)
    psi = sandwich_pointwise(inp.conj2, inner, inp.conj1)
    return lhs, build_matho(k1t, k2, psi).matrix


def _verify_prop61f(inp):
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k2t = inp.space("2t")
    b = build_matho(k1, k2, phi).matrix
    l_c1 = _ctheta_maps(inp)[0]
    l2 = _map_matrix(lambda f: jstar(inp.conj2, f), k2, k2t)
    lhs = l2 @ np.conj(b @ l_c1)
    inner = phi.mul(k1.theta_series).truncate(inp.order)
    psi = sandwich_pointwise(inp.conj2, inner, inp.conj1)
    return lhs, build_matto(k1, k2t, psi).matrix


def _verify_eq_sz(inp):
    k1, k1t = inp.space("1"), inp.space("1t")
    t = _map_matrix(lambda f: tau(k1.theta_series, f), k1, k1t)
    return t @ k1.S @ t.conj().T, k1t.S_star


def _verify_eq_ddd(inp):
    k1, k1t = inp.space("1"), inp.space("1t")
    t_back = _map_matrix(lambda f: tau(k1t.theta_series, f), k1t, k1)
    return k1.D_tilde, t_back @ k1t.D @ t_back.conj().T


def _verify_remark412(inp):
    """C_Theta A_Phi C_Theta = A_{Phi^*}, valid only under extra hypotheses."""
    phi = inp.symbol
    k1 = inp.space("1")
    a = build_matto(k1, k1, phi).matrix
    c1 = CTheta(k1.theta_series, inp.conj1)
    l_c1 = _map_matrix(c1.apply, k1, k1)
    lhs = l_c1 @ np.conj(a @ l_c1)
    return lhs, build_matto(k1, k1, phi.adjoint_star().truncate(inp.order)).matrix


def _remark412_unmet(inp):
    """Why remark412 does not apply (None if it does).

    If Phi fails to be J-symmetric or to commute with Theta pointwise, the
    identity is expected to fail; the report is then a skip that still
    carries the measured residual, so the failure can be demonstrated
    without counting as a broken identity.
    """
    phi = inp.symbol
    g1 = inp.jsym_gaps()[0]
    phi_sym = jsymmetry_defect(phi, inp.conj1)
    nodes = np.exp(2j * np.pi * np.arange(64) / 64)
    tv = evaluate_many(inp.space("1").theta_series, nodes)
    pv = evaluate_many(phi, nodes)
    commute = float(np.linalg.norm(tv @ pv - pv @ tv, axis=(1, 2)).max())
    if (g1 > _JSYM_TOL or not _passes(phi_sym, _JSYM_TOL, phi.norm())
            or not _passes(commute, _JSYM_TOL, phi.norm())):
        return (f"hypotheses not met (theta defect {g1:.2e}, symbol defect "
                f"{phi_sym:.2e}, commutator {commute:.2e})")
    return None


class _Identity(NamedTuple):
    sides: Callable
    jsym: bool = False      # skipped unless both thetas are J-symmetric
    symbol: bool = True     # needs the symbol Phi
    unmet: Callable | None = None  # further hypotheses, judged after measuring


_REGISTRY = {
    "crofoot": _Identity(_verify_crofoot),
    "tau": _Identity(_verify_tau),
    "jstar": _Identity(partial(_verify_jstar, build_matho, "j")),
    "ctheta": _Identity(_verify_ctheta, jsym=True),
    "prop61a": _Identity(_verify_prop61a, jsym=True),
    "prop61b": _Identity(_verify_ctheta, jsym=True),
    "prop61c": _Identity(partial(_verify_jstar, build_matto, "t"), jsym=True),
    "prop61d": _Identity(partial(_verify_jstar, build_matho, "t"), jsym=True),
    "prop61e": _Identity(_verify_prop61e, jsym=True),
    "prop61f": _Identity(_verify_prop61f, jsym=True),
    "eq_sz": _Identity(_verify_eq_sz, symbol=False),
    "eq_ddd": _Identity(_verify_eq_ddd, symbol=False),
    "remark412": _Identity(_verify_remark412, unmet=_remark412_unmet),
}

REGISTRY_NAMES = tuple(_REGISTRY)
SYMBOL_FREE_IDENTITIES = tuple(name for name, ident in _REGISTRY.items() if not ident.symbol)


def _check_identity(name, inp):
    ident = _REGISTRY[name]
    if ident.jsym:
        g1, g2 = inp.jsym_gaps()
        if g1 > _JSYM_TOL or g2 > _JSYM_TOL:
            return Check(name, None, float(inp.threshold), None, "skipped",
                         f"needs J-symmetric thetas (defects {g1:.2e}, {g2:.2e})")
    if ident.symbol and inp.symbol is None:
        raise ValueError(f"identity {name!r} needs a symbol")
    lhs, rhs = ident.sides(inp)
    check = Check.judge(name, np.linalg.norm(lhs - rhs), inp.threshold, np.linalg.norm(lhs))
    reason = ident.unmet(inp) if ident.unmet else None
    if reason is not None:
        check = replace(check, verdict="skipped", reason=reason)
    return check


def verify_transform(name, inputs):
    """Check one named identity (or every one, name="all") on the inputs.

    Returns a Check; a list of them for "all". Entries whose hypotheses
    the inputs do not satisfy come back with verdict "skipped" and a
    reason instead of failing.
    """
    if name == "all":
        return [_check_identity(n, inputs) for n in REGISTRY_NAMES]
    if name not in _REGISTRY:
        raise ValueError(f"unknown transform identity {name!r}")
    return _check_identity(name, inputs)
