"""Seeded random inputs: unitaries, inner functions, symbols, Crofoot data.

Draws keep pole parameters at |a| <= 0.6 so truncation tails at the default
window are far below the tolerances used in tests. Purity is arranged by
construction (at least one full-rank factor, or one pole per diagonal slot),
not by retrying.
"""

import numpy as np

from .blaschke import BlaschkePotapovProduct, PotapovFactor
from .conjugations import Conjugation, CrofootData
from .laurent import Laurent

__all__ = [
    "random_unitary", "random_frame", "random_inner", "random_symmetric_inner",
    "random_symbol", "random_crofoot",
]


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_frame(rng, dim, rank):
    return random_unitary(rng, dim)[:, :rank]


def _random_pole(rng, max_abs):
    return max_abs * rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())


def random_inner(rng, dim, n_factors=2, max_abs=0.6):
    """A pure matrix inner function with n_factors elementary factors.

    The last factor has a full-rank projection, which caps norm(Theta(0))
    by its pole modulus and so guarantees purity."""
    factors = []
    for i in range(n_factors):
        rank = dim if i == n_factors - 1 else int(rng.integers(1, dim + 1))
        factors.append(PotapovFactor(_random_pole(rng, max_abs),
                                     random_frame(rng, dim, rank),
                                     random_unitary(rng, dim)))
    return BlaschkePotapovProduct(dim, random_unitary(rng, dim), factors)


def random_symmetric_inner(rng, dim, n_poles=2, max_abs=0.6):
    """A pair (Theta, J) with J Theta(z) J = Theta(z)^* pointwise.

    Build W diag(b_1, ..., b_d) W^T, whose coefficients are all symmetric
    matrices (J-symmetric for plain conjugation), then transport by a
    random unitary V; the conjugation moves to U = V V^T."""
    w = random_unitary(rng, dim)
    eye = np.eye(dim)
    factors = []
    for i in range(dim):
        for _ in range(int(rng.integers(1, n_poles + 1))):
            factors.append(PotapovFactor(_random_pole(rng, max_abs), w[:, [i]], eye))
    last = factors[-1]
    factors[-1] = PotapovFactor(last.a, last.frame, w @ w.T)
    theta = BlaschkePotapovProduct(dim, None, factors)
    v = random_unitary(rng, dim)
    return theta.transported(v), Conjugation(v @ v.T)


def random_symbol(rng, dim, reach=3, n_terms=4):
    """A matrix Laurent polynomial supported on [-reach, reach]."""
    coeffs = np.zeros((2 * reach + 1, dim, dim), dtype=complex)
    slots = rng.choice(2 * reach + 1, size=min(n_terms, 2 * reach + 1), replace=False)
    for s in slots:
        coeffs[s] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Laurent(coeffs, reach).trim()


def random_crofoot(rng, dim, max_norm=0.5):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g * (max_norm * rng.uniform(0.2, 1.0) / np.linalg.norm(g, 2))
    return CrofootData(w)
