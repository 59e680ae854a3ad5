"""Truncated Toeplitz and Hankel operators between two model spaces.

A symbol Phi acts by A_Phi f = P_{Theta2}(Phi f) (Toeplitz) or
B_Phi f = P_{Theta2} J (I - P_+)(Phi f) (Hankel, with the flip
(J f)(z) = conj(z) f(conj(z))). Everything downstream is matrix algebra
in the state bases of the two spaces: the builds (one Stein solve per
toeplitz symbol, one Horner pass per hankel symbol), membership in the
operator classes via displacement equations, the equivalent
shift-invariance predicates, symbol recovery (one minimum-norm solve on
the exact linear map from symbol coefficients to the matrix, for both
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
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .blaschke import crofoot_realization, matrix_powers
from .conjugations import (Conjugation, CrofootData, _coefficient_gap, _realization_coeffs,
                           realization_jsymmetry_defect, sandwich_reflected)
from .jsonio import matrix_to_json
from .laurent import Laurent
from .modelspace import _RANK_TOL, ModelSpace, stein

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


def _build(space1, space2, symbol, family):
    """The matrix of the symbol's operator in the two state bases, equal to
    ``_symbol_map`` applied to the symbol's coefficients, with no map formed.

    With G_k = C2* Phi_k C1 and Y(G) the Stein solution of Y = A2* Y A1 + G,
    toeplitz lag k is (A2*)^k Y(G_k) at k >= 0 and Y(G_k) A1^|k| at k < 0;
    both factors pass into Y, so the whole build is one Stein solve Y(Q),
    Q = sum_{k >= 0} (A2*)^k G_k + sum_{k < 0} G_k A1^|k|. Hankel lag -s is
    sum_{q+p=s-1} (A2*)^q G_{-s} A1^p, summed by one Horner pass from the
    farthest lag in: v <- G_{-j} + v A1, w <- A2* w + v for j = R .. 1.
    """
    _check_symbol(symbol, space1, space2)
    a1, _, c1, _ = space1.realization
    a2, _, c2, _ = space2.realization
    a2h = a2.conj().T
    lo, hi = symbol.support()
    if family == "toeplitz":
        reach = max(-lo, hi)
        g = c2.conj().T @ symbol.coeffs[symbol.order - reach:symbol.order + reach + 1] @ c1
        p1, p2 = matrix_powers(a1, reach + 1), matrix_powers(a2h, reach + 1)
        n2, n1 = g.shape[1:]
        # [P_0 P_1 ...] @ [G_0; G_1; ...] and [G_-1 G_-2 ...] @ [A1; A1^2; ...]
        q = (p2.transpose(1, 0, 2).reshape(n2, -1) @ g[reach:].reshape(-1, n1)
             + g[:reach][::-1].transpose(1, 0, 2).reshape(n2, -1) @ p1[1:].reshape(-1, n1))
        matrix = stein(a2h, q, a1)
    else:
        g = c2.conj().T @ symbol.coeffs[symbol.order + min(lo, 0):symbol.order] @ c1
        matrix = v = np.zeros((space2.dim_K, space1.dim_K), dtype=complex)
        for g_j in g:
            v = g_j + v @ a1
            matrix = a2h @ matrix + v
    return ModelOperator(space1, space2, matrix)


def build_matto(space1, space2, symbol):
    """Matrix of f -> P_{Theta2}(Phi f) on K_{Theta1}."""
    return _build(space1, space2, symbol, "toeplitz")


def build_matho(space1, space2, symbol):
    """Matrix of f -> P_{Theta2} J (I - P_+)(Phi f) on K_{Theta1}."""
    return _build(space1, space2, symbol, "hankel")


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

    Exact in the state bases of the two realizations. With Q = C2* E_ab C1,
    the toeplitz lags -reach..reach give (A2*)^k Y at k >= 0 and Y A1^|k|
    at k < 0, where Y solves the Stein equation Y = A2* Y A1 + Q: pairing
    z^k E C1 A1^m with C2 A2^n sums (A2*)^n Q A1^m over n - m = k. The
    hankel lags -reach..-1 give H_s = sum_{q+p=s-1} (A2*)^q Q A1^p at lag
    -s; splitting the sum at q = L gives H_{s+L} = (A2*)^L H_s + H_L A1^s,
    which doubles the known H_1 = Q .. H_L.
    """
    a1, _, c1, _ = space1.realization
    a2, _, c2, _ = space2.realization
    a2h = a2.conj().T
    p1, p2 = matrix_powers(a1, reach + 1), matrix_powers(a2h, reach + 1)
    q = np.einsum("ai,bj->abij", c2.conj(), c1)
    if family == "toeplitz":
        lags = range(-reach, reach + 1)
        y = stein(a2h, q, a1)
        blocks = np.concatenate([y @ p1[:0:-1, None, None], p2[:, None, None] @ y])
    else:
        lags, blocks = range(-reach, 0), q[None]
        while len(blocks) < reach:
            half = len(blocks)
            blocks = np.concatenate([blocks, p2[half] @ blocks
                                     + blocks[-1] @ p1[1:half + 1, None, None]])
        blocks = blocks[:reach][::-1]
    shape = (len(lags) * space1.dim ** 2, space2.dim_K * space1.dim_K)
    return list(lags), blocks.reshape(shape).T


def _reach(space1, space2, family):
    """The Cayley-Hamilton reach K of the symbol map: over the lags -K..K
    (toeplitz) or -K..-1 (hankel) it has the range of the map on all lags.

    K = max(n1, n2) - 1 or n1 + n2 - 1 (n1, n2 the state dimensions).
    Toeplitz: lag k of E is (A2*)^k Y(E), and (A2*)^k for k >= n2 is a
    combination of lower powers; likewise Y(E) A1^|k|. Hankel: H_s(E) is the
    coefficient of w^(s-1) in (I - w A2*)^{-1} Q (I - w A1)^{-1} = N(w) / p(w),
    with deg N <= n1 + n2 - 2 and p(0) = 1, deg p <= n1 + n2; p's recurrence
    puts every H_s with s >= n1 + n2 in the span of the ones before.
    """
    n1, n2 = space1.dim_K, space2.dim_K
    return max(n1, n2) - 1 if family == "toeplitz" else n1 + n2 - 1


def recover_symbol(op, family, threshold=1e-8):
    """A representative symbol for an accepted operator, plus the rebuild gap.

    One minimum-norm least-squares solve on the map Phi -> built matrix
    (``_symbol_map``) at its Cayley-Hamilton reach (``_reach``). The symbol
    is a finite Laurent polynomial, unique only modulo the kernel class, and
    its support is not cut at the window: a hankel symbol can reach lag
    -(n1 + n2 - 1) past -trunc_order.
    """
    if family not in ("toeplitz", "hankel"):
        raise ValueError(f"unknown recovery family {family!r}")
    kind, build = ("T1", build_matto) if family == "toeplitz" else ("H1", build_matho)
    rep = displacement_check(op, kind, threshold)
    if not rep.accepted():
        raise ValueError(f"operator rejected by {kind} membership (residual {rep.residual:.2e})")
    lags, mat = _symbol_map(op.domain, op.codomain, family,
                            _reach(op.domain, op.codomain, family))
    x = np.linalg.lstsq(mat, op.matrix.ravel(), rcond=None)[0]
    d = op.domain.dim
    phi = Laurent.from_coeff_map(dict(zip(lags, x.reshape(-1, d, d))), d)
    residual = float(np.linalg.norm(build(op.domain, op.codomain, phi).matrix - op.matrix))
    return phi, residual


# -- symbol kernel test ------------------------------------------------------

def kernel_test(symbol, space1, space2, family, conj1=None, conj2=None, threshold=1e-8):
    """Is Phi in the kernel class (symbols building the zero operator)?

    The class is ker M for the linear map M: Phi -> built matrix
    (``_symbol_map``). The symbol's distance to it is |M^+ a|, a its exact
    build: the norm of the minimum-norm symbol with the same build. M is
    factored at its Cayley-Hamilton reach (``_reach``), where it already has
    its whole range, so the distance is zero exactly when the build is, and
    neither the symbol's support nor the window order bounds what is
    admitted. For toeplitz the class is Sarason's Theta2 H^2 + (Theta1 H^2)^*.
    One SVD of M per space pair and family, cut at _RANK_TOL * s_0 and kept
    on space2 for as long as both spaces live, leaves each query one build
    and one small product |W^* vec(a)| with W = U_r / s_r. No J-symmetry
    enters: conj1 and conj2 are accepted and ignored. The class distance
    decides the verdict, and the verdict is always cross-checked against the
    norm of the built operator; a zero operator at a class distance above
    the threshold is reported as "class-gap" rather than an error.
    """
    _check_symbol(symbol, space1, space2)
    if family not in ("toeplitz", "hankel"):
        raise ValueError(f"unknown kernel family {family!r}")
    classes = space2.kernel_classes.setdefault(space1, {})
    if family not in classes:
        mat = _symbol_map(space1, space2, family, _reach(space1, space2, family))[1]
        u, s, _ = np.linalg.svd(mat, full_matrices=False)
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

# The registry's maps in state coordinates, each one Stein solve: the matrix
# of a linear map, or the L of an antilinear map's action c -> L conj(c).

def _tau(src, dst):
    """tau_Theta from src = K_Theta into dst = K_Theta~. It sends C (I - zA)^{-1} x
    to B* (I - zA*)^{-1} x, by output-normality and A* B + C* D = 0."""
    a_mat, b_mat, _, _ = src.realization
    return dst.state_coords(b_mat.conj().T, a_mat.conj().T)


def _jstar(conj, src, dst):
    """Jstar from src into dst, compressed: it sends C (I - zA)^{-1} x to
    U conj(C) (I - z conj(A))^{-1} conj(x)."""
    a_mat, _, c_mat, _ = src.realization
    return dst.state_coords(conj.U @ c_mat.conj(), a_mat.conj())


def _ctheta(space, conj):
    """C_Theta compressed to K_Theta: X = A X conj(A) + B U conj(C)."""
    a_mat, b_mat, c_mat, _ = space.realization
    return stein(a_mat, b_mat @ conj.U @ c_mat.conj(), a_mat.conj())


class TransformInputs:
    """Input bundle for the registry over two built spaces of one window, kept as
    spaces "1" and "2", with lazily cached derived spaces."""

    def __init__(self, space1, space2, symbol=None, conj1=None, conj2=None,
                 crofoot1=None, crofoot2=None, threshold=1e-8):
        self.order = space1.order
        self.symbol = symbol
        self.conj1 = conj1 if conj1 is not None else Conjugation.identity(space1.dim)
        self.conj2 = conj2 if conj2 is not None else Conjugation.identity(space2.dim)
        zero = np.zeros((space1.dim, space1.dim))
        self.crofoot1 = crofoot1 if crofoot1 is not None else CrofootData(zero)
        self.crofoot2 = crofoot2 if crofoot2 is not None else CrofootData(zero)
        self.threshold = threshold
        self._cache = {"1": space1, "2": space2}

    def space(self, key):
        """K_Theta for "1" or "2"; with a suffix, the space of a derived theta,
        read off the source space's realization (A, B, C, D): "t" is
        Theta~(z) = Theta(conj(z))^* with (A*, C*, B*, D*), and "j" is
        J Theta(conj(z)) J with (conj A, conj(B) conj(U), U conj(C),
        U conj(D) conj(U)). Both colligations are unitary with the source's."""
        if key not in self._cache:
            a_mat, b_mat, c_mat, d_mat = self.space(key[0]).realization
            if key[1] == "t":
                realization = _tilde((a_mat, b_mat, c_mat, d_mat))
            else:
                u = (self.conj1 if key[0] == "1" else self.conj2).U
                realization = (a_mat.conj(), b_mat.conj() @ u.conj(), u @ c_mat.conj(),
                               u @ d_mat.conj() @ u.conj())
            self._cache[key] = ModelSpace.from_realization(realization, self.order)
        return self._cache[key]

    def crofoot_image(self, which):
        """K_{Theta^W} for theta1 or theta2, read off space "1" or "2". The forward
        Crofoot map is the identity between the source's and the image's state bases."""
        key = f"{which}w"
        if key not in self._cache:
            cro = self.crofoot1 if which == 1 else self.crofoot2
            realization = crofoot_realization(self.space(str(which)).realization, cro)
            self._cache[key] = ModelSpace.from_realization(realization, self.order)
        return self._cache[key]

    @cached_property
    def jsym_gaps(self):
        """J-symmetry defects of theta1 and theta2 (``realization_jsymmetry_defect``
        at each space's window order)."""
        return tuple(realization_jsymmetry_defect(s.realization, s.order, c)
                     for s, c in ((self.space("1"), self.conj1), (self.space("2"), self.conj2)))

    @cached_property
    def theta_product(self):
        """``_split`` of Theta2~ Phi Theta1, which tau, ctheta and prop61b read."""
        delay, fir = _phi_factors(self.symbol)
        return _split([delay], [_tilde(self.space("2").realization), fir,
                                self.space("1").realization])


# -- exact right sides ---------------------------------------------------------
# Every derived symbol Psi of the registry is rational: products of Theta1,
# Theta2~ or Theta2^*, a Crofoot multiplier and the Laurent polynomial Phi.
# Phi = z^e Phi' with e = min(lo, 0) and Phi' a polynomial. The analytic
# factors, Phi' among them, are kept as a chain: a list of realizations
# (A, B, C, D) joined in series, the first one's state first, so the state
# matrix is block upper triangular with A_i on the diagonal and
# B_i D_(i+1) ... D_(j-1) C_j above it. z^e joins the coanalytic side: a
# coanalytic F(z) = sum_k f_k z^-k is the chain of F(1/z). ``_split`` cuts
# coanalytic times analytic into its lag-0 coefficient and two tails, each a
# triple (C, chain, B) whose lag +k or -k coefficient is C A^(k-1) B (k >= 1),
# and each build of a tail is a Stein solve or two: nothing is cut at a
# window. Every Stein solve on a chain runs block by block; A = None marks a
# polynomial's block shift register, whose Stein sums are finite Horner
# passes, so the cost grows linearly with Phi's reach.

def _fir(coeffs):
    """The block shift register of the polynomial sum_j coeffs[j] z^j: the
    shift A = None moves block k to k + 1, B is the first block's identity
    and C = [coeffs[1] ... coeffs[-1]], so C A^(j-1) B = coeffs[j]."""
    deg, dim = len(coeffs) - 1, coeffs.shape[1]
    return None, np.eye(deg * dim, dim), coeffs[1:].transpose(1, 0, 2).reshape(dim, -1), coeffs[0]


def _phi_factors(phi):
    """(z^-e, Phi') for Phi = z^e Phi', e = min(lo, 0), both shift registers;
    the first stands for the coanalytic z^e."""
    lo, hi = phi.support()
    e = min(lo, 0)
    delay = np.zeros((1 - e, phi.dim, phi.dim), dtype=complex)
    delay[-e] = np.eye(phi.dim)
    return _fir(delay), _fir(phi.coeffs[phi.order + e:phi.order + hi + 1])


def _tilde(realization):
    """Theta~(z) = Theta(conj(z))^* realized by (A*, C*, B*, D*)."""
    a_mat, b_mat, c_mat, d_mat = realization
    return tuple(m.conj().T for m in (a_mat, c_mat, b_mat, d_mat))


def _chain_bcd(chain):
    """(B, C, D) of the chain's realization."""
    _, b, c, d = chain[0]
    for _, b2, c2, d2 in chain[1:]:
        b, c, d = np.vstack([b @ d2, b2]), np.hstack([c, d @ c2]), d @ d2
    return b, c, d


def _times_block(y, a, dim):
    """y a for a diagonal block; the shift gives (y A)_k = y_(k+1)."""
    if a is not None:
        return y @ a
    out = np.zeros_like(y)
    out[:, :-dim] = y[:, dim:]
    return out


def _block_times(a, y, dim):
    """a y for a diagonal block; the shift gives (A y)_k = y_(k-1)."""
    if a is not None:
        return a @ y
    out = np.zeros_like(y)
    out[dim:] = y[:-dim]
    return out


def _stein_block(p, q, a, r, dim):
    """Y = P Y A + Q for a diagonal block A (r None) or Y = A Y R + Q (p None).
    On a shift the sum is finite: Y_k = Q_k + P Y_(k+1) from the last block,
    or Y_k = Q_k + Y_(k-1) R from the first."""
    if a is not None:
        return stein(p, q, a) if r is None else stein(a, q, r)
    y = np.array(q, dtype=complex)
    if r is None:
        for k in range(y.shape[1] - 2 * dim, -1, -dim):
            y[:, k:k + dim] += p @ y[:, k + dim:k + 2 * dim]
    else:
        for k in range(dim, len(y), dim):
            y[k:k + dim] += y[k - dim:k] @ r
    return y


def _chain_times(y, chain, p=None):
    """y A for the chain's state matrix A; with p, the solution Y of
    Y = P Y A + y instead. Column block j of y A is y_j A_j + S_j C_j, with
    S_(j+1) = S_j D_j + y_j B_j; the Stein solution takes the blocks in the
    same order, Y_j solving Y_j = P Y_j A_j + y_j + P S_j C_j."""
    blocks, s, start = [], np.zeros((len(y), len(chain[0][3]))), 0
    for a, b, c, d in chain:
        block = y[:, start:start + len(b)]
        if p is None:
            out = _times_block(block, a, len(d)) + s @ c
        else:
            block = out = _stein_block(p, block + p @ s @ c, a, None, len(d))
        blocks.append(out)
        s, start = s @ d + block @ b, start + len(b)
    return np.hstack(blocks)


def _times_chain(chain, y, r=None):
    """A y for the chain's state matrix A; with r, the solution Y of
    Y = A Y R + y instead. Row block i of A y is A_i y_i + B_i T_i, with
    T_(i-1) = C_i y_i + D_i T_i from the last block; the Stein solution
    takes the blocks in the same order, Y_i = A_i Y_i R + y_i + B_i T_i R."""
    blocks, t, end = [], np.zeros((len(chain[0][3]), y.shape[1])), len(y)
    for a, b, c, d in reversed(chain):
        block = y[end - len(b):end]
        if r is None:
            out = _block_times(a, block, len(d)) + b @ t
        else:
            block = out = _stein_block(None, block + b @ t @ r, a, r, len(d))
        blocks.append(out)
        t, end = c @ block + d @ t, end - len(b)
    return np.vstack(blocks[::-1])


def _chain_stein(co, q, an):
    """Y = A_co Y A_an + Q for two chains: row blocks of co from the last,
    Y_i = A_i Y_i A_an + Q_i + B_i T_i A_an, each a ``_chain_times`` solve, or
    on a shift Y_(i,k) = G_(i,k) + Y_(i,k-1) A_an from its first block."""
    blocks, t, end = [], np.zeros((len(co[0][3]), q.shape[1])), len(q)
    for a, b, c, d in reversed(co):
        n, dim = len(b), len(d)
        y = q[end - n:end] + _chain_times(b @ t, an)
        if a is None:
            for k in range(dim, n, dim):
                y[k:k + dim] += _chain_times(y[k - dim:k], an)
        else:
            y = _chain_times(y, an, a)
        blocks.append(y)
        t, end = c @ y + d @ t, end - n
    return np.vstack(blocks[::-1])


def _split(co, an):
    """(lag-0 coefficient, analytic tail, coanalytic tail) of F G, for F
    coanalytic with F(1/z) realized by the chain co (Ar, Br, Cr, Dr) and G
    analytic realized by the chain an (Al, Bl, Cl, Dl). With
    W = stein(Ar, Br Cl, Al), the sum over the lags of F's and G's
    coefficients that meet: lag 0 is Dr Dl + Cr W Bl, lag k is
    (Dr Cl + Cr W Al) Al^(k-1) Bl and lag -k is Cr Ar^(k-1) (Br Dl + Ar W Bl)."""
    br, cr, dr = _chain_bcd(co)
    bl, cl, dl = _chain_bcd(an)
    w = _chain_stein(co, br @ cl, an)
    return (dr @ dl + cr @ w @ bl, (dr @ cl + _chain_times(cr @ w, an), an, bl),
            (cr, co, br @ dl + _times_chain(co, w @ bl)))


def _sandwich(conj2, parts, conj1):
    """The parts of J2 F J1 (lag n: U2 conj(F_-n) conj(U1)) from those of F:
    F's coanalytic tail becomes the analytic one and the other way round."""
    u2, u1 = conj2.U, np.conj(conj1.U)
    c0, analytic, coanalytic = parts

    def flip(c, chain, b):
        chain = [tuple(None if m is None else np.conj(m) for m in f) for f in chain]
        return u2 @ np.conj(c), chain, np.conj(b) @ u1
    return u2 @ np.conj(c0) @ u1, flip(*coanalytic), flip(*analytic)


def _hankel_tail(space1, space2, coanalytic):
    """Hankel build of a symbol whose lag -r is Cx Ax^(r-1) Bx (r >= 1): lag -r
    contributes sum_{q+p=r-1} (A2*)^q C2* Cx Ax^(q+p) Bx C1 A1^p, so the build
    is U V with U = stein(A2*, C2* Cx, Ax) and V = stein(Ax, Bx C1, A1)."""
    a1, _, c1, _ = space1.realization
    a2, _, c2, _ = space2.realization
    cx, chain, bx = coanalytic
    return (_chain_times(c2.conj().T @ cx, chain, a2.conj().T)
            @ _times_chain(chain, bx @ c1, a1))


def _toeplitz_tails(space1, space2, parts):
    """Toeplitz build of c0 plus an analytic and a coanalytic tail: one Stein
    solve Y(Q) as in ``_build``, with Q = C2* c0 C1 + A2* X Bf C1 + C2* Cg Z,
    X = stein(A2*, C2* Cf, Af) and Z = stein(Ag, Bg C1 A1, A1)."""
    a1, _, c1, _ = space1.realization
    a2, _, c2, _ = space2.realization
    a2h, c2h = a2.conj().T, c2.conj().T
    c0, (cf, af, bf), (cg, ag, bg) = parts
    q = ((c2h @ c0 + a2h @ _chain_times(c2h @ cf, af, a2h) @ bf) @ c1
         + c2h @ cg @ _times_chain(ag, bg @ c1 @ a1, a1))
    return stein(a2h, q, a1)


# Each _verify_* returns the two sides (lhs, rhs) of its identity as matrices;
# verify_transform judges |lhs - rhs| against threshold * (1 + |lhs|).

def _verify_crofoot(inp):
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    lhs = build_matho(k1, k2, phi).matrix
    cro1, cro2 = inp.crofoot1, inp.crofoot2
    d1inv = np.linalg.inv(cro1.D_Wstar)
    d2inv = np.linalg.inv(cro2.D_Wstar)
    # The codomain multiplier rides through the flip J, so it enters the
    # symbol as its inverse adjoint at the reflected argument; that is
    # D^{-1}(I - W2 Theta2~). The domain side simplifies by
    # D(I + Theta1^W W1*)^{-1} = (I - Theta1 W1*) D^{-1}. Both are analytic,
    # so Psi has only the negative lags of Phi's own reach.
    eye = np.eye(k1.dim)
    at, bt, ct, dt = _tilde(k2.realization)
    a1, b1, c1, d1 = k1.realization
    w1s = cro1.W.conj().T
    left = (at, bt, -d2inv @ cro2.W @ ct, d2inv @ (eye - cro2.W @ dt))
    right = (a1, -b1 @ w1s @ d1inv, c1, (eye - d1 @ w1s) @ d1inv)
    delay, fir = _phi_factors(phi)
    coanalytic = _split([delay], [left, fir, right])[2]
    return lhs, _hankel_tail(inp.crofoot_image(1), inp.crofoot_image(2), coanalytic)


def _verify_tau(inp):
    """tau_Theta2 B_Phi tau_Theta1^* = B_Psi with Psi the reflection of
    Theta2~ Phi Theta1: Psi's lag -r is the product's lag r."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k1t, k2t = inp.space("1t"), inp.space("2t")
    b = build_matho(k1, k2, phi).matrix
    lhs = _tau(k2, k2t) @ b @ _tau(k1, k1t).conj().T
    return lhs, _hankel_tail(k1t, k2t, inp.theta_product[1])


def _verify_jstar(build, suffix, inp):
    """Jstar into derived spaces: "jstar" (build_matho, the conjugated spaces "j"),
    prop61c (build_matto, the tilde spaces "t") and prop61d (build_matho, "t")."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k1x, k2x = inp.space("1" + suffix), inp.space("2" + suffix)
    mat = build(k1, k2, phi).matrix
    lhs = _jstar(inp.conj2, k2, k2x) @ np.conj(mat @ _jstar(inp.conj1, k1x, k1))
    psi = sandwich_reflected(inp.conj2, phi, inp.conj1)
    return lhs, build(k1x, k2x, psi).matrix


def _verify_ctheta(inp):
    """C_Theta2 B_Phi C_Theta1 = B_Psi, Psi = J2 (Theta2~ Phi Theta1) J1;
    reported as "ctheta" and as "prop61b"."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    b = build_matho(k1, k2, phi).matrix
    lhs = _ctheta(k2, inp.conj2) @ np.conj(b @ _ctheta(k1, inp.conj1))
    # composing the tau identity with the coefficient conjugations puts the
    # reflected Theta2 on the left; writing Theta2(z) there instead loses the
    # anti-analytic mass of the symbol and breaks the operator equality
    psi = _sandwich(inp.conj2, inp.theta_product, inp.conj1)
    return lhs, _hankel_tail(k1, k2, psi[2])


def _verify_prop61a(inp):
    """C_Theta2 A_Phi C_Theta1 = A_Psi, Psi = J2 (Theta2^* Phi Theta1) J1: the
    coanalytic side is Theta2^* z^e, the analytic side Phi' Theta1."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    a = build_matto(k1, k2, phi).matrix
    lhs = _ctheta(k2, inp.conj2) @ np.conj(a @ _ctheta(k1, inp.conj1))
    delay, fir = _phi_factors(phi)
    inner = _split([_tilde(k2.realization), delay], [fir, k1.realization])
    return lhs, _toeplitz_tails(k1, k2, _sandwich(inp.conj2, inner, inp.conj1))


def _verify_prop61e(inp):
    """C_Theta2 A_Phi Jstar = B_Psi, Psi = J2 (Theta2~ Phi(1/z)) J1."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k1t = inp.space("1t")
    a = build_matto(k1, k2, phi).matrix
    lhs = _ctheta(k2, inp.conj2) @ np.conj(a @ _jstar(inp.conj1, k1t, k1))
    delay, fir = _phi_factors(phi.reflect_z())
    inner = _split([delay], [_tilde(k2.realization), fir])
    return lhs, _hankel_tail(k1t, k2, _sandwich(inp.conj2, inner, inp.conj1)[2])


def _verify_prop61f(inp):
    """Jstar B_Phi C_Theta1 = A_Psi, Psi = J2 (Phi Theta1) J1."""
    phi = inp.symbol
    k1, k2 = inp.space("1"), inp.space("2")
    k2t = inp.space("2t")
    b = build_matho(k1, k2, phi).matrix
    lhs = _jstar(inp.conj2, k2, k2t) @ np.conj(b @ _ctheta(k1, inp.conj1))
    delay, fir = _phi_factors(phi)
    inner = _split([delay], [fir, k1.realization])
    return lhs, _toeplitz_tails(k1, k2t, _sandwich(inp.conj2, inner, inp.conj1))


def _verify_eq_sz(inp):
    k1, k1t = inp.space("1"), inp.space("1t")
    t = _tau(k1, k1t)
    return t @ k1.S @ t.conj().T, k1t.S_star


def _verify_eq_ddd(inp):
    k1, k1t = inp.space("1"), inp.space("1t")
    t_back = _tau(k1t, k1)
    return k1.D_tilde, t_back @ k1t.D @ t_back.conj().T


def _verify_remark412(inp):
    """C_Theta A_Phi C_Theta = A_{Phi^*}, valid only under extra hypotheses."""
    phi = inp.symbol
    k1 = inp.space("1")
    a = build_matto(k1, k1, phi).matrix
    l_c1 = _ctheta(k1, inp.conj1)
    lhs = l_c1 @ np.conj(a @ l_c1)
    return lhs, build_matto(k1, k1, phi.adjoint_star()).matrix


def _remark412_unmet(inp):
    """Why remark412 does not apply (None if it does).

    If Phi fails to be J-symmetric or to commute with Theta pointwise, the
    identity is expected to fail; the report is then a skip that still
    carries the measured residual, so the failure can be demonstrated
    without counting as a broken identity. The symbol defect is the
    coefficient sum of J Phi J - Phi^*, which bounds it on the circle, and
    the commutator is decided exactly (``_commutator_defect``).
    """
    phi = inp.symbol
    g1 = inp.jsym_gaps[0]
    phi_sym = _coefficient_gap(phi.coeffs, inp.conj1)
    commute = _commutator_defect(inp.space("1").realization, phi)
    if (g1 > _JSYM_TOL or not _passes(phi_sym, _JSYM_TOL, phi.norm())
            or not _passes(commute, _JSYM_TOL, phi.norm())):
        return (f"hypotheses not met (theta defect {g1:.2e}, symbol defect "
                f"{phi_sym:.2e}, commutator {commute:.2e})")
    return None


def _commutator_defect(realization, phi):
    """sum of norm((Theta Phi - Phi Theta)_m) over the lags m = lo .. hi + 2n, for
    Phi supported on lo .. hi and Theta of the n-state realization (A, B, C, D).
    Past hi the coefficients are sum_j (C A^(m-j-1) B Phi_j - Phi_j C A^(m-j-1) B),
    the outputs of a 2n-state system with state matrix diag(A, A), so by
    Cayley-Hamilton they all vanish once the first 2n of them do: the sum is 0
    exactly when Theta and Phi commute."""
    lo, hi = phi.support()
    theta = _realization_coeffs(realization, hi - lo + 2 * len(realization[0]))
    out = np.zeros_like(theta)
    for i, p in enumerate(phi.coeffs[phi.order + lo:phi.order + hi + 1]):
        if p.any():
            out[i:] += theta[:len(theta) - i] @ p - p @ theta[:len(theta) - i]
    return float(np.linalg.norm(out, axis=(1, 2)).sum())


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
        g1, g2 = inp.jsym_gaps
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
