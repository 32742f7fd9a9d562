"""Independent oracles for the ranking models, by brute enumeration, the
distance-based family's closed forms, exact rational arithmetic for
finite-atom noise and, for continuous noise, scipy's adaptive quadrature.

Nothing here imports monoculture. Orders are tuples of 0-based candidate
indices, best first, with candidate 0 the best; each pmf is a dict from
order to probability over all n! orders.
"""

import heapq
import itertools
import math
from fractions import Fraction

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


def mallows_first_survivor(phi, n, removed):
    """Pmf of the best-ranked candidate outside removed, as a list: each
    entry the fsum of phi^(-d) over the orders that candidate heads among
    the survivors, over the fsum of all the weights."""
    terms = [[] for _ in range(n)]
    for order in all_orders(n):
        terms[next(c for c in order if c not in removed)].append(phi ** -inversions(order))
    total = math.fsum(w for t in terms for w in t)
    return [math.fsum(t) / total for t in terms]


def first_survivor(pmf, n, removed):
    """Pmf of the best-ranked candidate outside removed under an order pmf,
    as a list: each entry the fsum of the orders that candidate heads among
    the survivors."""
    terms = [[] for _ in range(n)]
    for order, p in pmf.items():
        terms[next(c for c in order if c not in removed)].append(p)
    return [math.fsum(t) for t in terms]


def mallows_normalizer(phi, n):
    """The distance-based normalizer's product form,
    prod_{j=1..n} sum_{r=0..j-1} phi^(-r)."""
    q = 1.0 / phi
    z = 1.0
    for j in range(1, n + 1):
        z *= (1.0 - q**j) / (1.0 - q)
    return z


def mallows_block_first_choice(phi, m, rank):
    """Probability that the rank-th best of a contiguous run of m surviving
    ranks is picked first: (1 - q) q^(rank - 1) / (1 - q^m), q = 1/phi.
    The run's relative order is again distance-based with the same phi;
    with nothing removed the run is the whole pool (m = n)."""
    q = 1.0 / phi
    return (1.0 - q) * q ** (rank - 1) / (1.0 - q**m)


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


def atom_cells(atoms, theta, values):
    """Each candidate's perturbed value under each (value, probability)
    atom, as the float x + v / theta; floats compare exactly."""
    return [[x + v / theta for v, _ in atoms] for x in values]


def atom_top_two(atoms, theta, values):
    """Pr(top = a, runner-up = b) of a finite-atom RUM as an n x n list of
    Fractions, by enumerating every atom combination with exact weights:
    each float probability is an integer over a common power of two.
    Assumes no two candidates' cells are equal."""
    n = len(values)
    den = max(p.as_integer_ratio()[1] for _, p in atoms)
    nums = [p.as_integer_ratio()[0] * (den // p.as_integer_ratio()[1]) for _, p in atoms]
    totals = [[0] * n for _ in range(n)]
    for combo in itertools.product(*[list(zip(row, nums)) for row in atom_cells(atoms, theta, values)]):
        top, second = heapq.nlargest(2, range(n), key=lambda c: combo[c][0])
        totals[top][second] += math.prod(w for _, w in combo)
    return [[Fraction(t, den**n) for t in row] for row in totals]


def atom_first_choice(atoms, theta, values):
    """Pr(a on top) = sum_j p_j prod_{c != a} Pr(X_c < cell_aj) of a
    finite-atom RUM, as Fractions; assumes no two candidates' cells are equal."""
    cells = atom_cells(atoms, theta, values)
    probs = [Fraction(p) for _, p in atoms]

    def below(c, t):
        return sum(p for cell, p in zip(cells[c], probs) if cell < t)

    return [sum(p * math.prod(below(c, t) for c in range(len(values)) if c != a)
                for t, p in zip(cells[a], probs))
            for a in range(len(values))]


def top_two(pmf, n):
    """Pr(top = a, runner-up = b) of an order pmf, as an n x n list: the
    fsum of the probabilities of the orders that start (a, b)."""
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for order, p in pmf.items():
        terms[order[0]][order[1]].append(p)
    return [[math.fsum(t) for t in row] for row in terms]


def pref_first_position(P, x):
    """E[(x_top - x_runner_up of one ranking) * 1{another ranking's top differs}]
    for two independent rankings with top-two pmf P:
    sum_{a,b} P[a][b] (x_a - x_b) (1 - p1[a]), p1 the first-pick pmf."""
    n = len(x)
    p1 = [math.fsum(row) for row in P]
    return math.fsum(P[a][b] * (x[a] - x[b]) * (1.0 - p1[a])
                     for a in range(n) for b in range(n))


def pref_weaker_competition(P_strong, P_weak, x):
    """E[value of a weak ranking's top avoiding a weak rival's top] minus the
    same avoiding a strong rival's top: (p1_weak - p1_strong) . G, with
    G[c] = p1 . x - p1[c] x_c + (P x)[c] the value a weak ranking takes when
    candidate c is gone."""
    n = len(x)
    p1_weak = [math.fsum(row) for row in P_weak]
    p1_strong = [math.fsum(row) for row in P_strong]
    mean_top = math.fsum(p * v for p, v in zip(p1_weak, x))
    G = [mean_top - p1_weak[c] * x[c] + math.fsum(P_weak[c][b] * x[b] for b in range(n))
         for c in range(n)]
    return math.fsum((w - s) * g for w, s, g in zip(p1_weak, p1_strong, G))
