"""The curvature operator algebra.

Kulkarni-Nomizu products join (0,2) tensors into generalized curvature
tensors; a curvature tensor acts on any covariant tensor as a derivation
(B . T); a (0,2) tensor acts through the metric wedge endomorphism
(the Tachibana tensor Q(A, T)).  Pseudosymmetry conditions are statements
about proportionality between these actions.
"""

from curvzoo import (build_chart, check_gct, check_second_bianchi,
                     dot_action, kulkarni_nomizu, named_tensor, ricci,
                     riemann, solve_linear_combination, tachibana,
                     walker_cyclic_check)

chart = build_chart(
    ["x1", "x2", "x3", "x4"],
    [["x1" if i == j else "0" for j in range(4)] for i in range(4)],
    name="conformal")
g = chart.g
S = ricci(chart)
R = riemann(chart)

print("== Kulkarni-Nomizu products ==")
gg = kulkarni_nomizu(g, g)
print("(g^g)(e1,e2,e1,e2) =", gg[0, 1, 0, 1])
print("g^S has curvature symmetries:", all(check_gct(
    kulkarni_nomizu(g, S)).values()))
print("S^S =", "0" if kulkarni_nomizu(S, S).is_zero() else "nonzero",
      "(the Ricci tensor has rank one here)")

print("\n== derived curvature tensors ==")
for name in ("G", "C", "K", "conh", "P"):
    T = named_tensor(chart, name)
    axioms = check_gct(T)
    print(f"  {name:4} zero={T.is_zero()!s:5} "
          f"first_bianchi={axioms['first_bianchi']!s:5} "
          f"block_interchange={axioms['block_interchange']}")
print("(the Weyl tensor C vanishes: this metric is conformally flat;")
print(" the projective tensor P fails block interchange, as it must)")

print("\n== actions and pseudosymmetry ==")
RR = dot_action(R, R)
QgR = tachibana(g, R)
QSR = tachibana(S, R)
L, = solve_linear_combination(RR, [QgR]).particular
print("R.R = L Q(g,R) with L =", L)
print("R.R = Q(S,R):", (RR - QSR).is_zero())

print("\n== structural identities ==")
print("second Bianchi for R:", check_second_bianchi(chart, R))
print("cyclic curvature-action identity for R:",
      walker_cyclic_check(chart, R))
