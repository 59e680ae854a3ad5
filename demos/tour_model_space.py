"""A first walk through finite-dimensional model spaces.

Builds K_Theta for a diagonal monomial and for a genuine Blaschke-Potapov
product, then pokes at the pieces: the orthonormal basis, the projection,
the reproducing kernels, and the compressed shift with its defects.
"""

import numpy as np

from matholab import Laurent, ModelSpace, diagonal_monomial, inner_product
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

# The basis is orthonormal in the L^2 inner product of the circle.
gram = np.array([[inner_product(bi, bj) for bj in space.basis_functions()]
                 for bi in space.basis_functions()])
print("  gram defect      ", np.linalg.norm(gram - np.eye(space.dim_K)))

# Projection kills Theta * H^2 and fixes the basis.
f = space.theta_series.mul(Laurent.monomial(3, [1.0, -2.0]))
print("  ||P(Theta z^3 v)||", space.project(f.truncate(32)).norm())

# --- reproducing kernels ----------------------------------------------------
# k_lambda^x reproduces evaluation: <f, k> = <f(lambda), x>.
lam, x = 0.3 - 0.2j, np.array([1.0, 1.0j])
k = space.kernel(lam, x)
g = space.from_coords(rng.standard_normal(space.dim_K))
lhs = inner_product(g, k)
rhs = np.vdot(x, g.evaluate(lam))
print("  kernel reproduces", abs(lhs - rhs))

# --- the same story on a random inner function ------------------------------
theta2 = random_inner(rng, 2, n_factors=3, max_abs=0.5)
space2 = ModelSpace.from_product(theta2, order=64)
print("\nrandom Blaschke-Potapov product (3 factors, d=2):")
print("  dim_K            ", space2.dim_K)
print("  series tail bound", space2.theta_series.tail_bound)

# The compressed shift S fails to be unitary by exactly rank d on each side.
d = space2.D
dt = space2.D_tilde
print("  ||I - S S*||     ", np.linalg.norm(d))
print("  rank I - S S*    ", np.linalg.matrix_rank(d, tol=1e-10))
print("  rank I - S* S    ", np.linalg.matrix_rank(dt, tol=1e-10))

# from_coords / coords invert each other.
c = rng.standard_normal(space2.dim_K) + 1j * rng.standard_normal(space2.dim_K)
back = space2.coords(space2.from_coords(c))
print("  coords round trip", np.linalg.norm(back - c))
