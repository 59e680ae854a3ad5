"""A first walk through finite-dimensional model spaces.

Builds K_Theta for a diagonal monomial and for a genuine Blaschke-Potapov
product, then pokes at the pieces: the orthonormal state basis, the
coordinates of a function, the reproducing kernels, and the compressed
shift with its defects. Everything is read off the realization (A, B, C, D);
the basis on a window is only there to look at.
"""

import numpy as np

from matholab import Laurent, ModelSpace, diagonal_monomial
from matholab.sampling import random_inner

rng = np.random.default_rng(11)

# --- a space you can check by hand -----------------------------------------
# Theta = diag(z, z^2) leaves K_Theta = span{e1, z e2 ... } of dimension 1+2.
theta = diagonal_monomial([1, 2])
space = ModelSpace.from_product(theta, order=32)
print("diag(z, z^2):")
print("  dim_K            ", space.dim_K)
print("  defect ranks     ", np.linalg.matrix_rank(space.D),
      np.linalg.matrix_rank(space.D_tilde))

# The state basis C (I - zA)^{-1} e_j is orthonormal in the L^2 inner product
# of the circle: its coordinates on the window are the identity.
gram = space.coords(space.basis)
print("  gram defect      ", np.linalg.norm(gram - np.eye(space.dim_K)))

# coords gives the coordinates of the projection: Theta * H^2 has none.
f = space.theta_series.mul(Laurent.monomial(3, [1.0, -2.0]))
print("  |coords(Theta z^3 v)|", np.linalg.norm(space.coords(f.truncate(32))))

# --- reproducing kernels ----------------------------------------------------
# k_lambda x = P_Theta (1 - conj(lambda) z)^{-1} x has the state coordinates
# state_coords(x, conj(lambda)); it reproduces evaluation: <g, k> = <g(lambda), x>.
# A member g with coordinates c is g(z) = C (I - zA)^{-1} c.
lam, x = 0.3 - 0.2j, np.array([1.0, 1.0j])
k = space.state_coords(x[:, None], np.array([[np.conj(lam)]]))[:, 0]
c = rng.standard_normal(space.dim_K)
a_mat, _, c_mat, _ = space.realization
g_lam = c_mat @ np.linalg.solve(np.eye(space.dim_K) - lam * a_mat, c)
print("  kernel reproduces", abs(np.vdot(k, c) - np.vdot(x, g_lam)))

# --- the same story on a random inner function ------------------------------
theta2 = random_inner(rng, 2, n_factors=3, max_abs=0.5)
space2 = ModelSpace.from_product(theta2, order=64)
print("\nrandom Blaschke-Potapov product (3 factors, d=2):")
print("  dim_K            ", space2.dim_K)
print("  series tail bound", space2.theta_series.tail_bound)

# The compressed shift S = A* fails to be unitary by exactly rank d on each side.
d = space2.D
dt = space2.D_tilde
print("  ||I - S S*||     ", np.linalg.norm(d))
print("  rank I - S S*    ", np.linalg.matrix_rank(d, tol=1e-10))
print("  rank I - S* S    ", np.linalg.matrix_rank(dt, tol=1e-10))

# The basis on the window with coordinates c is a member; coords gives c back.
c = rng.standard_normal(space2.dim_K) + 1j * rng.standard_normal(space2.dim_K)
back = space2.coords(space2.basis.right_const(c))
print("  coords round trip", np.linalg.norm(back - c))
