"""From a metric to its curvature, exactly.

The pipeline: metric -> inverse (adjugate/determinant) -> Christoffel
symbols -> curvature tensor -> Ricci -> scalar curvature, all over the exact
expression field.  The running example is the conformally flat metric
g = x1 * delta on four coordinates.
"""

from curvzoo import (build_chart, christoffel, covariant_derivative,
                     generic_rank, ricci, riemann, scalar_curvature)

chart = build_chart(
    ["x1", "x2", "x3", "x4"],
    [["x1" if i == j else "0" for j in range(4)] for i in range(4)],
    name="conformal")

print("det g =", chart.det_g)
print("g^11  =", chart.g_inv_rows[0][0])  # row 1 of g^-1, nonzero entries

gamma = christoffel(chart)
print("\nnonzero Christoffel symbols Gamma^k_ij (k;ij):")
for (k, i, j), value in gamma.representative_items():   # i <= j
    print(f"  Gamma^{k+1}_{i+1}{j+1} = {value}")

R = riemann(chart)
print("\nsample curvature components R[i,j,k,l]:")
shown = 0
for idx, val in R.nonzero_items():
    print(f"  R{tuple(i+1 for i in idx)} = {val}")
    shown += 1
    if shown == 4:
        break

S = ricci(chart)
print("\nRicci diagonal:", [str(S[i, i]) for i in range(4)])
print("generic rank of Ricci:", generic_rank(S))
print("scalar curvature:", scalar_curvature(chart))

# The Levi-Civita connection is metric: nabla g = 0, exactly.
assert covariant_derivative(chart, chart.g).is_zero()
print("\nnabla g = 0 verified componentwise")
