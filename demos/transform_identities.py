"""Running the transform identity registry.

Each named identity relates operators across spaces: the Crofoot change
of variables, the flip tau onto the tilde space, conjugation identities,
and the shift/defect equations. verify_transform measures the residual
of each and reports accept, reject, or skipped when a hypothesis fails.

The last section shows why remark412 is conditional: it needs the symbol
to commute with Theta pointwise, and a generic symbol does not.
"""

import numpy as np

from matholab import MatrixLaurent, TransformInputs, diagonal_monomial, verify_transform
from matholab.sampling import random_crofoot, random_symbol, random_symmetric_inner

rng = np.random.default_rng(61)

theta1, conj1 = random_symmetric_inner(rng, 2, max_abs=0.5)
theta2, conj2 = random_symmetric_inner(rng, 2, max_abs=0.5)
inputs = TransformInputs(
    theta1, theta2, order=48,
    symbol=random_symbol(rng, 2),
    conj1=conj1, conj2=conj2,
    crofoot1=random_crofoot(rng, 2), crofoot2=random_crofoot(rng, 2),
)

print("random J-symmetric pair, full registry:")
for rep in verify_transform("all", inputs):
    line = f"  {rep.name:<10} {rep.verdict:<8} residual {rep.residual:.3e}"
    if rep.reason:
        line += "   " + rep.reason
    print(line)

# remark412 with a symbol that commutes with Theta: scalar case, so any
# symbol commutes and the identity holds on the nose.
scalar = TransformInputs(
    diagonal_monomial([3]), diagonal_monomial([3]), order=16,
    symbol=MatrixLaurent.from_coeff_map({-1: [[1.0]], 2: [[0.5]]}, 1),
)
rep = verify_transform("remark412", scalar)
print("\nremark412, scalar symbol (commutes):")
print(f"  {rep.verdict}  residual {rep.residual:.3e}")

# The same identity with a non-commuting matrix symbol: the registry
# refuses to grade it, but still reports how badly it fails.
stubborn = TransformInputs(
    theta1, theta1, order=48,
    symbol=random_symbol(rng, 2),
    conj1=conj1, conj2=conj1,
)
rep = verify_transform("remark412", stubborn)
print("\nremark412, generic matrix symbol:")
print(f"  {rep.verdict}  residual {rep.residual:.3e}")
print("  " + rep.reason)
