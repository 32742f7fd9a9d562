"""Independent oracles for the ranking models, by brute enumeration.

Nothing here imports monoculture. Orders are tuples of 0-based candidate
indices, best first, with candidate 0 the best; each pmf is a dict from
order to probability over all n! orders.
"""

import itertools
import math


def all_orders(n):
    return list(itertools.permutations(range(n)))


def inversions(order):
    """Pairs ranked against the true order: the Kendall tau distance to it."""
    return sum(a > b for a, b in itertools.combinations(order, 2))


def mallows_pmf(phi, n):
    """phi^(-d) over its enumerated sum, d the inversion count."""
    weights = {order: phi ** -inversions(order) for order in all_orders(n)}
    total = math.fsum(weights.values())
    return {order: w / total for order, w in weights.items()}


def luce_pmf(theta, values):
    """Sequential Luce choice: each pick in proportion to exp(theta * value)
    among the candidates not yet picked."""
    top = max(values)
    w = [math.exp(theta * (v - top)) for v in values]
    pmf = {}
    for order in all_orders(len(values)):
        p, left = 1.0, math.fsum(w)
        for c in order:
            p *= w[c] / left
            left -= w[c]
        pmf[order] = p
    return pmf
