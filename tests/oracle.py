"""Reference paths used by the tests.

The circle-quadrature helpers work on boundary values sampled at N roots of
unity plus discrete Fourier projections. None of them touches the package's
coefficient arithmetic (series are only unpacked into raw coefficient
arrays), so when the two paths agree the agreement means something. The
window builds, the symbol-map and kernel-class references and the
shift-invariance predicates at the end are the exceptions (see there), and
so are the per-element JSON encoders, which read the package's objects.
The kernel and projection series work on raw coefficient arrays too.
"""

import numpy as np

from matholab.conjugations import sandwich_pointwise
from matholab.laurent import Laurent
from matholab.modelspace import ModelSpace
from matholab.operators import _complement_basis

N_GRID = 512


def nodes(n=N_GRID):
    return np.exp(2j * np.pi * np.arange(n) / n)


def sample_series(series, n=N_GRID):
    """Boundary values of a coefficient window by a direct power sum."""
    zs = nodes(n)
    ks = np.arange(-series.order, series.order + 1)
    powers = zs[:, None] ** ks[None, :]
    return np.tensordot(powers, series.coeffs, axes=(1, 0))


def sample_series_fft(series, n):
    """Boundary values at the n-th roots of unity by one FFT of the window;
    slots beyond n fold onto slot mod n, so n must exceed the window's reach."""
    bins = np.zeros((n,) + series.coeffs.shape[1:], dtype=complex)
    np.add.at(bins, np.arange(-series.order, series.order + 1) % n, series.coeffs)
    return np.fft.ifft(bins, axis=0) * n


def inner(f_vals, g_vals):
    """L2 inner product <f, g> by the trapezoid rule on the grid."""
    axes = tuple(range(1, f_vals.ndim))
    return complex(np.mean(np.sum(f_vals * np.conj(g_vals), axis=axes)))


def fourier_coeffs(vals, order):
    n = vals.shape[0]
    c = np.fft.fft(vals, axis=0) / n
    out = np.zeros((2 * order + 1,) + vals.shape[1:], dtype=complex)
    for m in range(-order, order + 1):
        out[m + order] = c[m % n]
    return out


def analytic_part(vals):
    """Riesz projection onto nonnegative frequencies, on the value grid."""
    n = vals.shape[0]
    c = np.fft.fft(vals, axis=0)
    c[n // 2:] = 0.0
    return np.fft.ifft(c, axis=0)


def co_analytic_part(vals):
    return vals - analytic_part(vals)


def theta_values(product, zs):
    """Closed-form product values: no series expansion involved."""
    d = product.dim
    out = np.broadcast_to(np.asarray(product.left_unitary, dtype=complex),
                          (len(zs), d, d)).copy()
    eye = np.eye(d)
    for factor in product.factors:
        b = (zs - factor.a) / (1.0 - np.conj(factor.a) * zs)
        p = factor.frame @ factor.frame.conj().T
        core = eye - p + b[:, None, None] * p
        out = out @ (core @ factor.post_unitary)
    return out


def multiply(mat_vals, vec_vals):
    return np.einsum("nab,nb->na", mat_vals, vec_vals)


def model_project(theta_vals, f_vals):
    """P_K f = P+ f - Theta P+ (Theta^* f) at the sample values."""
    adj = np.conj(np.transpose(theta_vals, (0, 2, 1)))
    lifted = analytic_part(multiply(adj, f_vals))
    return analytic_part(f_vals) - multiply(theta_vals, lifted)


def flip_values(f_vals, zs):
    """(J f)(z) = conj(z) f(conj(z)); on the grid conj(z_j) = z_{(n-j) mod n}."""
    n = len(zs)
    idx = (-np.arange(n)) % n
    return np.conj(zs)[:, None] * f_vals[idx]


# -- recursive convolution reference for model spaces ----------------------------
# The construction the state-space realization replaced: each elementary
# factor written out as a constant plus a geometric tail, and the basis built
# by the recursion K_{F_1 ... F_k} = K_{F_1} + F_1 K_{F_2 ... F_k} with the
# package's series products. Truncated analytic products are exact on the
# window, so there the realization must reproduce it up to round-off.

def factor_series(factor, order):
    """Series of one elementary factor (I - P + b_a P) U on [0, order]."""
    p = factor.frame @ factor.frame.conj().T
    out = np.zeros((2 * order + 1, factor.dim, factor.dim), dtype=complex)
    out[order] = (np.eye(factor.dim) - (1.0 + factor.a) * p) @ factor.post_unitary
    powers = np.conj(factor.a) ** np.arange(order)
    out[order + 1:] = (1.0 - abs(factor.a) ** 2) * powers[:, None, None] * (p @ factor.post_unitary)
    return Laurent(out, order)


def _analytic_window(series, order):
    """Coefficients 0 .. order of an analytic series."""
    series = series.with_order(max(series.order, order))
    return series.coeffs[series.order:series.order + order + 1]


def product_series(theta, order):
    """Coefficients 0 .. order of the product, multiplied out factor by factor."""
    cur = Laurent.constant(theta.left_unitary)
    for factor in theta.factors:
        cur = cur.mul(factor_series(factor, order)).truncate(order)
    return _analytic_window(cur, order)


def product_basis(theta, order):
    """Coefficients 0 .. order of the factor-major basis of K_Theta, (order + 1, d, n)."""
    def basis(factors):
        head, rest = factors[0], factors[1:]
        powers = np.conj(head.a) ** np.arange(order + 1)
        own = np.sqrt(1.0 - abs(head.a) ** 2) * powers[:, None, None] * head.frame
        if not rest:
            return own
        tail = basis(rest)
        padded = np.concatenate([np.zeros((order,) + tail.shape[1:]), tail])
        moved = factor_series(head, order).mul(Laurent(padded, order))
        return np.concatenate([own, _analytic_window(moved, order)], axis=2)
    return theta.left_unitary @ basis(theta.factors)


# -- kernel and projection series ----------------------------------------------------
# The reproducing kernels and the projection as they were before the state
# coordinates: products with Theta's series on [0, order], multiplied out
# factor by factor (``product_series``), and Theta(lam) in closed form. Each
# returns the coefficients 0 .. order; they are exact there up to Theta's
# tail past the window, so on exact windows the package must reproduce them.

def series_kernel(theta, order, lam, x, variant):
    """Coefficients 0 .. order of (1 - conj(lam) z)^{-1} (I - Theta(z) Theta(lam)^*) x
    ("k") or of (z - lam)^{-1} (Theta(z) - Theta(lam)) x ("ktilde")."""
    t = product_series(theta, order)
    x = np.asarray(x, dtype=complex)
    out = np.zeros((order + 1,) + x.shape, dtype=complex)
    if variant == "k":
        theta_lam = theta_values(theta, np.array([lam]))[0]
        v = -t @ (theta_lam.conj().T @ x)
        v[0] += x
        acc = np.zeros(x.shape, dtype=complex)
        for n in range(order + 1):
            acc = np.conj(lam) * acc + v[n]
            out[n] = acc
    else:
        # coefficient n is sum_{j > n} lam^(j - n - 1) t_j x, by Horner from the top
        acc = np.zeros(x.shape, dtype=complex)
        for n in range(order - 1, -1, -1):
            acc = lam * acc + t[n + 1] @ x
            out[n] = acc
    return out


def series_project(theta, order, f):
    """Coefficients 0 .. order of P_Theta f = f_+ - Theta P_+(Theta^* f_+), for a
    window f of order at most ``order``."""
    t = product_series(theta, order)
    plus = f.coeffs[f.order:]
    out = np.zeros((order + 1,) + plus.shape[1:], dtype=complex)
    out[:len(plus)] = plus
    # P_+(Theta^* f_+) at n is sum_m t_m^* f_{n+m}; subtract Theta times it
    for n in range(len(plus)):
        lifted = sum(t[m].conj().T @ plus[n + m] for m in range(len(plus) - n))
        out[n:] -= t[:order + 1 - n] @ lifted
    return out


# -- window builds ------------------------------------------------------------------
# The builds and registry maps as they were before the exact symbol map: a
# series times the window basis, paired against the codomain's window basis
# (``ModelSpace.coords``). The window truncates them; on windows whose basis
# tails are below rounding the package must reproduce them.

def window_matto(space1, space2, symbol):
    """Matrix of f -> P_{Theta2}(Phi f): Phi times the whole window basis at once."""
    return space2.coords(symbol.mul(space1.basis))


def window_matho(space1, space2, symbol):
    """Matrix of f -> P_{Theta2} J (I - P_+)(Phi f) on the window basis."""
    return space2.coords(symbol.mul(space1.basis).riesz_split()[1].flip())


def window_map(fn, src, dst):
    """dst-coordinates of fn(window basis of src): the matrix of a linear map,
    or the L of an antilinear map's action c -> L conj(c)."""
    return dst.coords(fn(src.basis))


# -- symbol-map and kernel-class references -----------------------------------
# The symbol map as the window builds of every unit symbol E_ab z^k
# (window_matto and window_matho), written out as one pairing of the two
# window bases per lag; it reads the basis coefficients and nothing else of
# the package. On windows that hold the basis functions it is the exact map,
# and exact_symbol_map rebuilds both spaces from their realizations on such
# a window, which makes it a reference on every window. The kernel class is
# the map's nullspace through one dense least-squares solve. The explicit
# generator list of the J-symmetric class is a second, independent reference
# on exact windows; it builds its generators with the package's series
# products.

# the package's rank cut, relative to the top singular value
RANK_CUT = 1e-8
# dropped L^2 mass per basis function below which a window is exact
EXACT_TAIL = 1e-16


def _matrix_units(dim):
    eye = np.eye(dim)
    return [np.outer(eye[:, i], eye[:, j]) for i in range(dim) for j in range(dim)]


def _pair(x2, x1):
    """[a, b, i, j] = sum_m conj(x2[m, a, i]) x1[m, b, j]: the coordinates
    <E_ab f_j, g_i> of slot-aligned coefficient stacks."""
    return np.tensordot(x2.conj(), x1, axes=([0], [0])).transpose(0, 2, 1, 3)


def symbol_map(space1, space2, family, reach):
    """(lags, M) with column (k, a, b) the flattened window build of the unit
    symbol E_ab z^k: toeplitz lags -reach..reach pair E c1_(m-k) with c2_m
    over the slots both windows hold, hankel lag -s pairs E c1_q with c2_p
    over p + q = s - 1 (c1, c2 the two window bases)."""
    c1 = space1.basis.coeffs[space1.order:]
    c2 = space2.basis.coeffs[space2.order:]
    blocks = []
    if family == "toeplitz":
        lags = list(range(-reach, reach + 1))
        for k in lags:
            lo = max(0, k)
            hi = max(lo, min(len(c2), len(c1) + k))
            blocks.append(_pair(c2[lo:hi], c1[lo - k:hi - k]))
    else:
        lags = list(range(-reach, 0))
        for k in lags:
            p = np.arange(max(0, -k - len(c1)), min(-k, len(c2)))
            blocks.append(_pair(c2[p], c1[-k - 1 - p]))
    return lags, np.stack(blocks).reshape(len(lags) * space1.dim ** 2, -1).T


def exact_window(space):
    """The space rebuilt from its realization on the first doubled window
    whose basis tails are below EXACT_TAIL (the space itself if its own is)."""
    order = space.order
    while space.tails.max(initial=0.0) >= EXACT_TAIL:
        order *= 2
        assert order <= 4096, "no exact window up to 4096"
        space = ModelSpace.from_realization(space.realization, order)
    return space


def exact_symbol_map(space1, space2, family, reach):
    """The exact symbol map: ``symbol_map`` on exact windows of both spaces."""
    return symbol_map(exact_window(space1), exact_window(space2), family, reach)


def full_reach(space1, space2):
    """The lags operators.kernel_test factors the symbol map over: -reach..reach
    for toeplitz, -reach..-1 for hankel, both at the larger window order."""
    return max(space1.order, space2.order)


def map_kernel_distance(symbol, lags, mat):
    """Distance of the symbol's coefficients on lags to ker M: the norm of the
    minimum-norm solution of M x = M phi, with M's rank cut at RANK_CUT."""
    phi = np.concatenate([symbol.coeff(k).ravel() for k in lags])
    return float(np.linalg.norm(np.linalg.lstsq(mat, mat @ phi, rcond=RANK_CUT)[0]))


def map_nullspace(mat):
    """Orthonormal basis (columns) of ker M, M's rank cut at RANK_CUT."""
    _, s, vh = np.linalg.svd(mat)
    return vh[int(np.sum(s > RANK_CUT * s.max(initial=0.0))):].conj().T


def _effective_reach(series, rel=1e-12):
    """(most negative, most positive) index with non-negligible coefficient."""
    norms = np.linalg.norm(series.coeffs.reshape(series.coeffs.shape[0], -1), axis=1)
    top = norms.max()
    if top == 0.0:
        return 0, 0
    idx = np.nonzero(norms > rel * top)[0]
    return int(idx.min() - series.order), int(idx.max() - series.order)


def kernel_generators(space1, space2, family, conj1, conj2):
    """The J-symmetric kernel class's generators, each a series on the pair's
    window: Theta2 z^k E and (Theta1 z^k E)^* (toeplitz), z^k U2 E^T conj(U1)
    and J2 (Theta2~ z^k E Theta1) J1 (hankel), for the k the window holds."""
    order = max(space1.order, space2.order)
    t1, t2 = space1.theta_series, space2.theta_series
    d1, d2 = _effective_reach(t1)[1], _effective_reach(t2)[1]
    units = _matrix_units(space1.dim)
    gens = []
    if family == "toeplitz":
        for k in range(order - d2 + 1):
            for e in units:
                gens.append(t2.mul(Laurent.monomial(k, e)).truncate(order))
        for k in range(order - d1 + 1):
            for e in units:
                gens.append(t1.mul(Laurent.monomial(k, e)).adjoint_star())
    else:
        for k in range(order + 1):
            for e in units:
                gens.append(Laurent.monomial(k, conj2.U @ e.T @ np.conj(conj1.U)))
        tilde2 = t2.tilde()
        for k in range(order - d1 - d2 + 1):
            for e in units:
                inner_k = tilde2.mul(Laurent.monomial(k, e)).mul(t1).truncate(order)
                gens.append(sandwich_pointwise(conj2, inner_k, conj1))
    return [g.with_order(order) for g in gens]


def dense_kernel_distance(symbol, space1, space2, family, conj1, conj2):
    """Least-squares distance of the symbol to the stacked kernel generators."""
    gens = kernel_generators(space1, space2, family, conj1, conj2)
    target = symbol.with_order(max(space1.order, space2.order)).coeffs.ravel()
    stack = np.stack([g.coeffs.ravel() for g in gens], axis=1)
    fit = stack @ np.linalg.lstsq(stack, target, rcond=None)[0]
    return float(np.linalg.norm(target - fit))


# -- shift-invariance predicates in the paper's form ----------------------------
# family, kind -> (right defect on space1, left defect on space2, lhs, rhs): the
# bilinear predicate <lhs f, g> = <rhs f, g> for f and g in the orthocomplements
# of the two defect spaces, where z f and conj(z) g stay in the model spaces and
# act there as the compressed shifts; hankel a reads <B z f, conj(z) g> = <B f, g>.
# It shares operators._complement_basis with the package, so the orthonormal
# bases of the complements, and hence the residuals, can be compared exactly.

INVARIANCE_PREDICATES = {
    ("toeplitz", "a"): ("P_D", "P_D",
                        lambda a, s1, s2: s2 @ a @ s1.conj().T, lambda a, s1, s2: a),
    ("toeplitz", "b"): ("P_Dt", "P_Dt",
                        lambda a, s1, s2: s2.conj().T @ a @ s1, lambda a, s1, s2: a),
    ("toeplitz", "c"): ("P_D", "P_Dt",
                        lambda a, s1, s2: a @ s1.conj().T, lambda a, s1, s2: s2.conj().T @ a),
    ("toeplitz", "d"): ("P_Dt", "P_D",
                        lambda a, s1, s2: a @ s1, lambda a, s1, s2: s2 @ a),
    ("hankel", "a"): ("P_Dt", "P_D",
                      lambda a, s1, s2: s2 @ a @ s1, lambda a, s1, s2: a),
    ("hankel", "b"): ("P_Dt", "P_Dt",
                      lambda a, s1, s2: a @ s1, lambda a, s1, s2: s2.conj().T @ a),
    ("hankel", "c"): ("P_D", "P_Dt",
                      lambda a, s1, s2: s2.conj().T @ a @ s1.conj().T, lambda a, s1, s2: a),
    ("hankel", "d"): ("P_D", "P_D",
                      lambda a, s1, s2: a @ s1.conj().T, lambda a, s1, s2: s2 @ a),
}


def invariance_residual(op, family, kind):
    """max |<(lhs - rhs) f, g>| over orthonormal bases of the two complements."""
    right, left, lhs, rhs = INVARIANCE_PREDICATES[(family, kind)]
    f_basis = _complement_basis(getattr(op.domain, right))
    g_basis = _complement_basis(getattr(op.codomain, left))
    if f_basis.shape[1] == 0 or g_basis.shape[1] == 0:
        return 0.0
    a, s1, s2 = op.matrix, op.domain.S, op.codomain.S
    return float(np.max(np.abs(g_basis.conj().T @ (lhs(a, s1, s2) - rhs(a, s1, s2)) @ f_basis)))


# -- per-element JSON encoders ----------------------------------------------------
# The wire format written one complex scalar at a time: the reference that the
# package's whole-array encoders must reproduce, float repr for float repr.

def complex_to_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_to_json(v):
    return [complex_to_pair(z) for z in np.asarray(v).ravel()]


def matrix_to_json(a):
    return [[complex_to_pair(z) for z in row] for row in np.asarray(a)]


def laurent_to_json(series):
    encode = vector_to_json if series.coeffs.ndim == 2 else matrix_to_json
    doc = {}
    for idx in series._nonzero():
        doc[str(idx - series.order)] = encode(series.coeffs[idx])
    return {"dim": series.dim, "coeffs": doc, "trunc_order": series.order,
            "tail_bound": series.tail_bound}


def describe(space):
    return {
        "dim": space.dim,
        "dim_K": space.dim_K,
        "trunc_order": space.order,
        "defect_dim": space.defect_dim,
        "defect_dim_tilde": space.defect_dim_tilde,
        "S": matrix_to_json(space.S),
        "D": matrix_to_json(space.D),
        "D_tilde": matrix_to_json(space.D_tilde),
        "realization": {k: matrix_to_json(m) for k, m in zip("ABCD", space.realization)},
        "tails": [float(t) for t in space.tails],
    }


# -- sampled J-symmetry defect and commutator ----------------------------------------

def jsymmetry_defect(series, conj_j, n=64):
    """max over n roots of unity of norm(J F(z) J - F(z)^*), from a direct
    power sum: the reference for the exact coefficient checks."""
    vals = sample_series(series, n)
    sym = conj_j.U[None] @ np.conj(vals) @ np.conj(conj_j.U)[None]
    return float(np.linalg.norm(sym - np.conj(np.transpose(vals, (0, 2, 1))), axis=(1, 2)).max())


def commutator_defect(theta, phi, n=64):
    """max over n roots of unity of norm(Theta(z) Phi(z) - Phi(z) Theta(z)), with
    Theta in closed form: the reference for remark412's commutator check."""
    zs = nodes(n)
    tv, pv = theta_values(theta, zs), sample_series(phi, n)
    return float(np.linalg.norm(tv @ pv - pv @ tv, axis=(1, 2)).max())
