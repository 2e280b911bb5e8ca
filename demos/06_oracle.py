"""The randomized identity oracle.

Every positive verdict carries the exact linear identity that certifies it.
The oracle substitutes independent random points of F_p, for the prime
p = 2^61 - 1, for the atoms and compares both sides of every row in F_p.
The atoms are algebraically independent and reduction mod p is a ring
homomorphism, so a *sound* report never disagrees; a corrupted coefficient
escapes a sample only if the point is a root of the residual mod p, so it
is caught with overwhelming probability.
"""

from curvzoo import builtin, classify, render_report
from curvzoo.zoo import Identity, oracle_crosscheck

chart = builtin("ex5_2").to_chart()
report = classify(chart, oracle_samples=50, seed=42)

print(render_report(report, "text"))

print("== corrupting an identity on purpose ==")
target = next(i for i in report.identities
              if any(c for c, _ in i.rows))
occurring = sorted({j for coeffs, _ in target.rows
                    for j, c in coeffs.items() if not c.is_zero})
j = occurring[0]
values = list(target.values)
values[j] = values[j] + 1  # e.g. the proportionality function L -> L + 1
corrupted = Identity(target.name + " (corrupted)", target.rows, values)

report.identities = [corrupted]
summary = oracle_crosscheck(report, chart, samples=50, seed=42)
print(f"corrupted {target.name!r}: "
      f"{summary.disagreements}/{summary.samples} samples disagree")
assert summary.disagreements > 0
