"""Recovering a symbol from an accepted operator.

The symbol of a compressed operator is only determined up to the kernel
of the compression, so recovery picks the minimum-norm representative.
This script rebuilds operators from recovered symbols, then shows the
ambiguity explicitly by shifting a symbol inside its kernel class.
"""

import numpy as np

from matholab import (
    MatrixLaurent,
    ModelSpace,
    build_matho,
    build_matto,
    diagonal_monomial,
    recover_symbol,
)
from matholab.sampling import random_symbol, random_symmetric_inner

rng = np.random.default_rng(2718)

# Toeplitz round trip over asymmetric spaces.
s1 = ModelSpace.from_product(diagonal_monomial([2, 1]), 24)
s2 = ModelSpace.from_product(diagonal_monomial([1, 3]), 24)
phi = random_symbol(rng, 2)
op = build_matto(s1, s2, phi)
psi, resid = recover_symbol(op, "toeplitz")
rebuilt = build_matto(s1, s2, psi)
print("toeplitz recovery:")
print("  fit residual   ", resid)
print("  rebuild error  ", np.linalg.norm(rebuilt.matrix - op.matrix))
print("  symbol norms   ", phi.norm(), "->", psi.norm(), "(minimum-norm pick)")

# Hankel recovery is the same solve; it needs no conjugation of either space.
theta1, _ = random_symmetric_inner(rng, 2, max_abs=0.5)
theta2, _ = random_symmetric_inner(rng, 2, max_abs=0.5)
h1 = ModelSpace.from_product(theta1, 64)
h2 = ModelSpace.from_product(theta2, 64)
hop = build_matho(h1, h2, random_symbol(rng, 2))
psi_h, resid_h = recover_symbol(hop, "hankel")
print("\nhankel recovery:")
print("  fit residual   ", resid_h)
print("  rebuild error  ",
      np.linalg.norm(build_matho(h1, h2, psi_h).matrix - hop.matrix))

# The ambiguity: adding Theta2 z^k E to a Toeplitz symbol changes nothing.
bump = s2.theta_series.mul(MatrixLaurent.monomial(1, [[0.0, 2.0], [1.0, 0.0]]))
shifted = (phi + bump.truncate(24)).truncate(24)
op_shifted = build_matto(s1, s2, shifted)
print("\nkernel ambiguity:")
print("  symbols differ by", (shifted - phi).norm())
print("  operators differ by", np.linalg.norm(op_shifted.matrix - op.matrix))

# Both symbols recover to the same canonical representative.
psi_again, _ = recover_symbol(op_shifted, "toeplitz")
print("  recovered symbols differ by", (psi_again - psi).norm())
