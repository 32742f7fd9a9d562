"""Independent oracles for the ranking models, by brute enumeration and,
for continuous noise, scipy's adaptive quadrature.

Nothing here imports monoculture. Orders are tuples of 0-based candidate
indices, best first, with candidate 0 the best; each pmf is a dict from
order to probability over all n! orders.
"""

import itertools
import math

from scipy import integrate


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


def noise_cdf_pdf(kind):
    """Unit-variance cdf and density of a continuous noise kind, as scalar
    functions; gumbel is the max-stable law exp(-exp(-z / s))."""
    if kind == "gaussian":
        return (lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)),
                lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
    if kind == "laplacian":
        s = 1.0 / math.sqrt(2.0)
        return (lambda z: 0.5 * math.exp(z / s) if z < 0 else 1.0 - 0.5 * math.exp(-z / s),
                lambda z: 0.5 / s * math.exp(-abs(z) / s))
    if kind == "gumbel":
        s = math.sqrt(6.0) / math.pi

        def cdf(z):
            return 0.0 if -z / s > 700.0 else math.exp(-math.exp(-z / s))

        def pdf(z):
            return 0.0 if -z / s > 700.0 else math.exp(-z / s - math.exp(-z / s)) / s

        return cdf, pdf
    raise ValueError(kind)


def rum_top_two_quad(kind, theta, values):
    """P[a][b] = Pr(top = a, runner-up = b) of a continuous-noise RUM: for
    each pair, scipy's adaptive quad of f_b (1 - F_a) prod_{c != a, b} F_c
    over b's perturbed value, split at the pool values."""
    cdf, pdf = noise_cdf_pdf(kind)
    n = len(values)
    cuts = sorted(set(values))
    pieces = list(zip([-math.inf] + cuts, cuts + [math.inf]))
    pmf = [[0.0] * n for _ in range(n)]
    for a, b in itertools.permutations(range(n), 2):
        rest = [c for c in range(n) if c not in (a, b)]

        def integrand(t):
            p = theta * pdf(theta * (t - values[b])) * (1.0 - cdf(theta * (t - values[a])))
            for c in rest:
                p *= cdf(theta * (t - values[c]))
            return p

        pmf[a][b] = math.fsum(
            integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            for lo, hi in pieces
        )
    return pmf
