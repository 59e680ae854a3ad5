"""The unitary maps between model spaces, applied to actual functions.

tau carries K_Theta onto K_Theta-tilde, jstar twists by a conjugation,
C_Theta is the canonical conjugation of a J-symmetric space, and the
Crofoot transform moves between K_Theta and K_Theta^W. All of them
preserve norms; the script also checks images land where claimed. A member
with state coordinates c is the window basis times c, and coords reads the
coordinates of any series back.
"""

import numpy as np

from matholab import (
    CTheta,
    ModelSpace,
    crofoot_map,
    crofoot_realization,
    jstar,
    realization_jsymmetry_defect,
    tau,
)
from matholab.sampling import random_crofoot, random_inner, random_symmetric_inner

rng = np.random.default_rng(9)

theta = random_inner(rng, 2, n_factors=2, max_abs=0.5)
space = ModelSpace.from_product(theta, 64)
tilde_space = ModelSpace.from_product(theta.tilde(), 64)
f = space.basis.right_const(rng.standard_normal(space.dim_K)
                            + 1j * rng.standard_normal(space.dim_K))

g = tau(space.theta_series, f).truncate(64)
resid = (tilde_space.basis.right_const(tilde_space.coords(g)) - g).norm()
print("tau:")
print("  norm drift        ", abs(g.norm() - f.norm()))
print("  lands in K_tilde  ", resid)

# C_Theta needs a J-symmetric Theta; realization_jsymmetry_defect sums the
# coefficient gaps of J Theta(z) J - Theta(z)^*, which vanish exactly when it is.
sym_theta, conj = random_symmetric_inner(rng, 2, max_abs=0.5)
print("\nJ-symmetry defects:")
print("  generic theta     ", realization_jsymmetry_defect(space.realization, 64, conj))
sym_space = ModelSpace.from_product(sym_theta, 64)
print("  symmetric theta   ", realization_jsymmetry_defect(sym_space.realization, 64, conj))

c = CTheta(sym_space.theta_series, conj)
h = sym_space.basis.right_const(rng.standard_normal(sym_space.dim_K))
ch = c.apply(h)
print("\nC_Theta (antilinear involution):")
print("  norm drift        ", abs(ch.norm() - h.norm()))
print("  applied twice     ", (c.apply(ch.truncate(64)) - h).norm())

# jstar sends K_Theta to the space of the J-conjugated inner function.
jf = jstar(conj, f)
print("\njstar:")
print("  norm drift        ", abs(jf.norm() - f.norm()))

# Crofoot: unitary onto the model space of the transported inner function
# Theta^W. The adjoint map takes Theta^W as its series and undoes it; the
# image space is read off the realization of Theta^W.
cro = random_crofoot(rng, 2)
cf = crofoot_map(space.theta_series, cro, f, "forward")
image = ModelSpace.from_realization(crofoot_realization(space.realization, cro), 64)
theta_w = image.theta_series
back = crofoot_map(theta_w, cro, cf, "adjoint")
print("\ncrofoot transform:")
print("  norm drift        ", abs(cf.norm() - f.norm()))
print("  adjoint inverts   ", (back - f).norm())
