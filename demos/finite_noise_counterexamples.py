"""
Two finite noise families where intuition about sharing fails
=============================================================

Continuous score noise makes two things feel inevitable:

  1. a firm facing a same-ranking rival never beats a firm facing an
     independent one (sharing looks weakly bad), and
  2. moving second behind a weaker screener beats moving second behind
     a stronger one.

Neither survives discrete noise. Both counterexamples below use tiny
atom families, exact utility tables, and margins you can print.
"""

from monoculture import CandidatePool, exact_utility_table
from monoculture.cli import b1_family, b1_polynomial, b2_family

# --- counterexample 1: sharing can strictly help ----------------------------
# three atoms at -delta, 0, +delta with uneven weights; both firms at the
# same accuracy; pool values 1.75 > 0.5 > 0
pool = CandidatePool((1.75, 0.5, 0.0))
print("three-atom noise, equal accuracies, pool (1.75, 0.5, 0)")
print(f"{'delta':>8} {'u_ah - u_aa':>14}")
for delta in (0.4, 0.2, 0.1, 0.05):
    table = exact_utility_table(1.0, 1.0, b1_family(delta), pool)
    print(f"{delta:8.2f} {table.u_ah - table.u_aa:+14.9f}")
print()
print("negative means the independent rival is WORSE for you than the")
print("same-ranking rival, the opposite of the continuous-noise rule.")

# the exact margin collapses to a closed-form polynomial in delta; check one
delta = 0.1
table = exact_utility_table(1.0, 1.0, b1_family(delta), pool)
poly = b1_polynomial(delta, 1.75, 0.5)
print(f"closed form at delta={delta}: {poly:+.9f}  (exact table {table.u_ah - table.u_aa:+.9f})")
print()

# --- counterexample 2: the stronger rival can be better to follow -----------
# four atoms, algorithm slightly more accurate (1.1 vs 0.9); u_ah is your
# payoff moving second behind A, u_hh behind H
pool = CandidatePool((3.0, 2.0, 0.0))
print("four-atom noise, theta_a=1.1 theta_h=0.9, pool (3, 2, 0)")
print(f"{'delta':>8} {'u_ah - u_hh':>14}")
for delta in (0.4, 0.2, 0.1, 0.05):
    table = exact_utility_table(1.1, 0.9, b2_family(delta), pool)
    print(f"{delta:8.2f} {table.u_ah - table.u_hh:+14.9f}")
print()
print("positive means trailing the MORE accurate screener leaves more")
print("value on the table for you. The stronger rival concentrates its")
print("mistakes where they cost you least.")
