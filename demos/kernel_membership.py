"""Which symbols compress to the zero operator?

kernel_test classifies a symbol against the kernel of the compression in
two independent ways: the symbol's distance to the kernel class, and the
norm of the actually-built operator. "agreement: confirmed" means both
ways said the same thing. The class is the kernel of the linear map from
symbol coefficients to the built matrix, the map recover_symbol solves
on; no conjugation enters, so the hankel queries below would give the
same answers without conj. The map is factored by one SVD per space pair
and family, and every query after the first on a pair reuses it, so the
eight queries below factor it only twice.
"""

import numpy as np

from matholab import (
    Conjugation,
    MatrixLaurent,
    ModelSpace,
    diagonal_monomial,
    kernel_test,
)

s1 = ModelSpace.from_product(diagonal_monomial([2]), 16)
s2 = ModelSpace.from_product(diagonal_monomial([2]), 16)
conj = Conjugation.identity(1)


def scalar(entries):
    return MatrixLaurent.from_coeff_map({n: [[c]] for n, c in entries.items()}, 1)


def show(label, result):
    print(f"{label:<22} {result['verdict']:<14} distance {result['distance']:.3e}"
          f"  operator norm {result['matrix_norm']:.3e}  [{result['agreement']}]")


print("Toeplitz kernel over (z^2, z^2): Theta2 H^2 + conj(Theta1 H^2)")
show("z^2", kernel_test(scalar({2: 1.0}), s1, s2, "toeplitz"))
show("zbar^2", kernel_test(scalar({-2: 1.0}), s1, s2, "toeplitz"))
show("z", kernel_test(scalar({1: 1.0}), s1, s2, "toeplitz"))

print("\nHankel kernel over the same pair:")
show("z (analytic)", kernel_test(scalar({1: 1.0}), s1, s2, "hankel", conj, conj))
show("zbar^4", kernel_test(scalar({-4: 1.0}), s1, s2, "hankel", conj, conj))
show("zbar^2", kernel_test(scalar({-2: 1.0}), s1, s2, "hankel", conj, conj))

# zbar^2 is the interesting one: it is NOT in the Hankel kernel, and its
# compression is the antidiagonal with Frobenius norm sqrt(2).
res = kernel_test(scalar({-2: 1.0}), s1, s2, "hankel", conj, conj)
print("\nzbar^2 compresses to norm", res["matrix_norm"],
      " (sqrt(2) =", np.sqrt(2), ")")

# A combination of kernel members stays in the kernel.
combo = scalar({2: 3.0, 3: -1.5}) + s1.theta_series.adjoint_star().scale(2.0).truncate(16)
print()
show("3z^2 - 1.5z^3 + 2conj", kernel_test(combo.truncate(16), s1, s2, "toeplitz"))
