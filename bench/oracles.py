"""Reference computations behind the benchmark's correctness checks.

Nothing here calls the monoculture package: every number is rebuilt from
the model definitions (phi^-inversions, sequential Luce choice, products
of noise atoms, scipy quadrature of the noise density, the closed form of
contiguous survivor blocks), so the checks keep working when the engines
they check are replaced.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy import integrate, special

ENTRIES = ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh")
EXACT_TOL = 1e-12  # enumerated tables and removed-set means
QUAD_TOL = 1e-9  # gaussian tables, two independent quadratures
Z_MAX = 5.0  # sampled estimates against an exact reference
Z_SIGN = 3.0  # sampled estimates whose sign the paper predicts


@lru_cache(maxsize=None)
def perms(n: int) -> np.ndarray:
    """All n! orders of 0..n-1, best first, in lexicographic order."""
    out = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def inversions(n: int) -> np.ndarray:
    """Pairs each order ranks the wrong way round (distance to the truth)."""
    p = perms(n)
    count = np.zeros(len(p))
    for i in range(n):
        for j in range(i + 1, n):
            count += p[:, i] > p[:, j]
    return count


def lex_rank(orders: np.ndarray) -> np.ndarray:
    """Row of each order in perms(n), from its Lehmer code."""
    n = orders.shape[1]
    rank = np.zeros(len(orders), dtype=np.int64)
    for i in range(n - 1):
        smaller = (orders[:, i + 1:] < orders[:, i:i + 1]).sum(axis=1)
        rank += smaller * math.factorial(n - 1 - i)
    return rank


def mallows_probs(phi: float, n: int) -> np.ndarray:
    w = phi ** -inversions(n)
    return w / w.sum()


def luce_probs(theta: float, x: np.ndarray) -> np.ndarray:
    """Each pick proportional to exp(theta * value) among those left."""
    p = perms(len(x))
    w = np.exp(theta * (x - x.max()))
    prob = np.ones(len(p))
    left = np.full(len(p), w.sum())
    for k in range(len(x)):
        pick = w[p[:, k]]
        prob *= pick / left
        left = left - pick
    return prob


def atom_probs(atoms, theta: float, x: np.ndarray) -> np.ndarray:
    """Sum of atom-product weights over every joint noise draw."""
    n = len(x)
    values = np.array([v for v, _ in atoms])
    weights = np.array([w for _, w in atoms])
    combos = np.array(list(itertools.product(range(len(atoms)), repeat=n)))
    scores = x[None, :] + values[combos] / theta
    orders = np.argsort(-scores, axis=1, kind="stable")
    ranked = np.take_along_axis(scores, orders, axis=1)
    if np.any(ranked[:, :-1] == ranked[:, 1:]):
        raise ValueError("tied perturbed scores; the ranking is not defined")
    joint = np.prod(weights[combos], axis=1)
    return np.bincount(lex_rank(orders), weights=joint, minlength=math.factorial(n))


def gaussian3_probs(theta: float, x: np.ndarray) -> np.ndarray:
    """Pr[X_a > X_b > X_c] for X = x + N(0,1)/theta, integrating over the
    quantile u of the middle score, so the integrand is bounded on (0, 1)."""
    s = 1.0 / theta
    out = np.empty(6)
    for row, (a, b, c) in enumerate(perms(3)):
        def integrand(u, a=a, b=b, c=c):
            t = x[b] + s * special.ndtri(u)
            return special.ndtr((x[a] - t) / s) * special.ndtr((t - x[c]) / s)

        out[row], _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=500)
    return out


@lru_cache(maxsize=4096)
def perm_probs(model: tuple, theta: float, x: tuple) -> np.ndarray:
    """Pmf over perms(n) for a model key: ("mallows",), ("plackett_luce",),
    ("atoms", atoms) or ("gaussian",)."""
    xs = np.asarray(x)
    kind = model[0]
    if kind == "mallows":
        return mallows_probs(1.0 + theta, len(xs))
    if kind == "plackett_luce":
        return luce_probs(theta, xs)
    if kind == "atoms":
        return atom_probs(model[1], theta, xs)
    if kind == "gaussian" and len(xs) == 3:
        return gaussian3_probs(theta, xs)
    raise ValueError(f"no reference pmf for {model} at n={len(xs)}")


def utility_table(model: tuple, theta_a: float, theta_h: float, x) -> dict[str, float]:
    """The six two-firm utilities from the two ranking pmfs.

    The second mover's pick depends on the first mover's ranking only
    through its top candidate, so the double sum over ranking pairs is
    summed over that top candidate first.
    """
    x = tuple(float(v) for v in x)
    xs = np.asarray(x)
    p_a = perm_probs(model, float(theta_a), x)
    p_h = perm_probs(model, float(theta_h), x)
    order = perms(len(x))
    first, second = order[:, 0], order[:, 1]

    def avoiding(probs: np.ndarray) -> np.ndarray:
        # value of this ranking's pick when candidate c is already gone
        return np.array([probs @ np.where(first == c, xs[second], xs[first]) for c in range(len(x))])

    top_a = np.bincount(first, weights=p_a, minlength=len(x))
    top_h = np.bincount(first, weights=p_h, minlength=len(x))
    k_a, k_h = avoiding(p_a), avoiding(p_h)
    return {
        "u_first_a": float(p_a @ xs[first]),
        "u_first_h": float(p_h @ xs[first]),
        "u_aa": float(p_a @ xs[second]),
        "u_ah": float(top_a @ k_h),
        "u_ha": float(top_h @ k_a),
        "u_hh": float(top_h @ k_h),
    }


def dominance_margins(t: dict[str, float]) -> tuple[float, float]:
    """A-minus-H payoff margins against an A rival and against an H rival."""
    return (
        (t["u_first_a"] + t["u_aa"]) - (t["u_first_h"] + t["u_ah"]),
        (t["u_first_a"] + t["u_ha"]) - (t["u_first_h"] + t["u_hh"]),
    )


def first_survivor_mean(phi: float, x, removed0) -> float:
    """E[value of the best-ranked survivor] under phi^-inversions."""
    xs = np.asarray(x, dtype=float)
    order = perms(len(xs))
    alive = ~np.isin(order, list(removed0))
    top = np.take_along_axis(order, np.argmax(alive, axis=1)[:, None], axis=1)[:, 0]
    return float(mallows_probs(phi, len(xs)) @ xs[top])


def contiguous_survivor_mean(phi: float, x, removed0) -> float:
    """Closed form when the survivors are a run of consecutive ranks: their
    relative order is again distance-based with the same phi, so the r-th
    best survivor comes first with probability q^(r-1) (1-q) / (1-q^m)."""
    survivors = sorted(set(range(len(x))) - set(removed0))
    if survivors[-1] - survivors[0] + 1 != len(survivors):
        raise ValueError(f"survivors {survivors} are not contiguous")
    q = 1.0 / phi
    m = len(survivors)
    return math.fsum(
        q**r * (1.0 - q) / (1.0 - q**m) * float(x[c]) for r, c in enumerate(survivors)
    )


def shared_ranking_utilities(phi: float, x, k: int) -> list[float]:
    """All-A hiring: firm j takes the j-th entry of one shared ranking."""
    xs = np.asarray(x, dtype=float)
    probs = mallows_probs(phi, len(xs))
    order = perms(len(xs))
    return [float(probs @ xs[order[:, j]]) for j in range(k)]


def within(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


def z_within(value: float, stderr: float, expected: float) -> bool:
    return stderr > 0 and math.isfinite(value) and abs(value - expected) <= Z_MAX * stderr
