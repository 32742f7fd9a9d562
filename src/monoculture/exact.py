"""Exact selection probabilities, utility tables, and sequential hiring.

Utility tables are linear in the n x n top-two pmf (`top_two_pmf`): closed
forms for the distance-based family and Plackett-Luce, and for every RUM one
support-point sum, `_support_sum`, over the nodes of a composite
Gauss-Legendre rule or the cells of finite-atom noise. A lattice takes all
its accuracies' pmfs from one batched call, `_top_two_pmfs`. Neither tables
nor selection pmfs have a size cap; only the full-ranking pmf enumerates
rankings and atoms.
Sequential hiring keeps the mass of each state (S, R) after m hires: S the
hired set, R the entries of the shared ranking revealed so far. Firms
playing A and H move it by one step over move tables cached per (n, m),
with at most MAX_LEVEL_STATES states at any level. All are exact up to
rounding and quadrature error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .core import (
    CandidatePool,
    CandidateDistribution,
    PoolOrDistribution,
)
from .models import (
    NoiseSpec,
    RankingModelSpec,
    TieError,
    UnsupportedModelError,
    mallows_perm_probs,
)
from .permspace import perm_space

MAX_LEVEL_STATES = 1 << 17
MAX_QUADRATURE_N = 3
# continuous-noise quadrature: 16-point Gauss-Legendre panels of width at most
# 1/theta over candidate windows of R = 40 noise units either side
_GL_POINTS = 16
_GL_WINDOW = 40.0

ENTRY_NAMES = ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh")


@dataclass(frozen=True)
class UtilityTable:
    """First-mover and second-mover expected utilities for one (A, H) pair.

    u_first_a / u_first_h are the utilities of moving first with the
    algorithmic / human ranking; u_xy is the second mover's utility when
    the first mover played x and the second plays y. stderr_* fields are
    zero for exact computation. The solver judges every margin of a table,
    exact or sampled, by one rule, `estimators._strict`: strict when it
    exceeds both DEFAULT_Z_THRESHOLD times its stderr and STRICT_TOL, a tie
    when neither it nor its negation is strict.
    """

    u_first_a: float
    u_first_h: float
    u_aa: float
    u_ah: float
    u_ha: float
    u_hh: float
    stderr_u_first_a: float = 0.0
    stderr_u_first_h: float = 0.0
    stderr_u_aa: float = 0.0
    stderr_u_ah: float = 0.0
    stderr_u_ha: float = 0.0
    stderr_u_hh: float = 0.0
    n_samples: int = 0


def permutation_probabilities(spec: RankingModelSpec, pool: CandidatePool) -> np.ndarray:
    """Exact pmf over all n! rankings, aligned with permspace row order.

    Supported: the distance-based family (any pool, value-independent),
    Plackett-Luce, discrete-noise RUMs (joint atom enumeration), and
    continuous-noise RUMs up to n = 3, where the top two fix the ranking.
    """
    n = pool.n
    if spec.kind == "mallows":
        return mallows_perm_probs(spec.phi, n)
    if spec.kind == "plackett_luce":
        return _pl_perm_probs(spec.theta, pool.as_array())
    if spec.noise.kind == "discrete":
        return _discrete_rum_perm_probs(spec.noise, spec.theta, pool.as_array())
    if n > MAX_QUADRATURE_N:
        raise UnsupportedModelError(
            f"continuous-noise models are exact only up to n={MAX_QUADRATURE_N}; "
            "use the estimators module for larger pools"
        )
    perms = perm_space(n).perms
    return top_two_pmf(spec, pool.as_array())[perms[:, 0], perms[:, 1]]


def top_two_pmf(spec: RankingModelSpec, x) -> np.ndarray:
    """Joint pmf P[a, b] = Pr(top = a, runner-up = b) of one ranking of pool
    values x, as a read-only n x n array over 0-based candidates.

    Distance-based: q^(a + r_b) / (Z_n Z_{n-1}), q = 1/phi, r_b = b's rank
    without a (the multistage decomposition, Fligner & Verducci 1986).
    Plackett-Luce: w_a/W * w_b/(W - w_a), w = exp(theta x) (Luce's choice
    axiom). RUMs: one support-point sum over perturbed values t_k,
    sum_k mass_b(t_k) Pr(X_a > t_k) prod_{c!=a,b} Pr(X_c < t_k). Continuous
    noise sums over the nodes of one composite 16-point Gauss-Legendre rule
    (panels at most 1/theta wide over x_c +- 40/theta, split at the pool
    values), mass_b the weighted density of X_b; UnsupportedModelError if the
    pmf misses 1 by over 1e-8. Finite-atom noise sums over the n m perturbed
    cells, mass_b the atom's probability on b's own cells, with TieError on a
    tie anywhere in a ranking. The last 128 pmfs are cached by spec and
    values (by n for the distance-based family); lattices read the cache
    for continuous noise only (`_top_two_pmfs`).
    """
    key = len(x) if spec.value_independent else tuple(float(v) for v in x)
    return _top_two_pmf(spec, key)


@lru_cache(maxsize=128)
def _top_two_pmf(spec: RankingModelSpec, key) -> np.ndarray:
    x = np.zeros(key) if spec.value_independent else np.array(key)  # key is n if values are unread
    if spec.kind == "rum" and spec.noise.is_continuous:
        pmf = _continuous_rum_top_two(spec.noise, spec.theta, x)
    else:
        pmfs, errors = _top_two_pmfs(spec, [spec.theta], x)
        if errors:
            raise errors[0]
        pmf = pmfs[0]
    pmf.setflags(write=False)
    return pmf


def _top_two_pmfs(family: RankingModelSpec, thetas, x: np.ndarray) -> tuple:
    """Top-two pmfs of family at each accuracy, as a (T, n, n) stack, and the
    ValueError, `with_theta`'s or the pmf's, of each accuracy without one.
    Closed forms and finite atoms run as one batch, continuous noise through
    the cached `top_two_pmf`; nothing is reduced across accuracies, so no
    pmf depends on its batch."""
    n, continuous = len(x), family.kind == "rum" and family.noise.is_continuous
    pmfs, errors, t = np.zeros((len(thetas), n, n)), {}, np.ones(len(thetas))
    for k, theta in enumerate(thetas):
        try:
            spec = family.with_theta(theta)
            t[k] = spec.theta
            if continuous:
                pmfs[k] = top_two_pmf(spec, x)
        except ValueError as exc:
            errors[k] = exc
    # a refused accuracy keeps t = 1 as a placeholder, and its own error
    if family.kind == "mallows":
        pmfs = _mallows_top_two(t + 1.0, n)
    elif family.kind == "plackett_luce":
        pmfs = _pl_top_two(t, x)
    elif not continuous:
        pmfs, ties = _discrete_rum_top_two(family.noise, t, x)
        errors = {**ties, **errors}
    return pmfs, errors


def _mallows_top_two(phis: np.ndarray, n: int) -> np.ndarray:
    c = np.arange(n)
    weights = (1.0 / phis[:, None, None]) ** (c[:, None] + c[None, :] - (c[None, :] > c[:, None]))
    weights[:, c, c] = 0.0
    return weights / weights.sum(axis=(1, 2), keepdims=True)


@lru_cache(maxsize=128)
def _mallows_first_survivor_pmf(phi: float, n: int, removed0: tuple[int, ...]) -> np.ndarray:
    """Pmf of the best-ranked candidate outside removed0 (0-based) in one
    distance-based ranking, as a read-only n-vector, by repeated insertion
    (Doignon, Pekec & Regenwetter 2004). Candidates enter in reference
    order, candidate j at position p in 0..j with probability proportional
    to q^(j - p), q = 1/phi. mass[a, t] is the probability that survivor a
    heads the survivors entered so far, at position t; `none` is the
    probability that no survivor has entered. A removed entrant at p <= t
    pushes the head down one place; a survivor entering at p <= t, or into
    `none`, becomes the head at p. O(n^2) per entrant, O(n^3) in all."""
    q = 1.0 / phi
    removed = set(removed0)
    mass = np.zeros((n, n))
    none = 1.0
    for j in range(n):
        w = q ** np.arange(j, -1, -1.0)
        w /= w.sum()
        # at_or_above[t] = Pr(p <= t), below[t] = Pr(p > t), both as direct
        # sums so that neither is a difference of numbers near 1
        at_or_above = np.cumsum(w[:j])
        below = np.cumsum(w[::-1])[::-1][1:]
        old = mass[:j, :j]
        if j in removed:
            shifted = old * at_or_above
            old *= below
            mass[:j, 1 : j + 1] += shifted
        else:
            tail = np.cumsum(old.sum(axis=0)[::-1])[::-1]
            old *= below
            mass[j, : j + 1] = w * (none + np.append(tail, 0.0))
            none = 0.0
    pmf = mass.sum(axis=1)
    pmf.setflags(write=False)
    return pmf


def _pl_top_two(thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    # each row shifts by its own max, so W - w_a never cancels to 0 / 0
    theta = thetas[:, None, None]
    scores = np.where(np.eye(len(x), dtype=bool), -np.inf, theta * x)
    w = np.exp(scores - scores.max(axis=2, keepdims=True))
    first = np.exp(theta * x[:, None] - theta * x.max())
    return first / first.sum(axis=1, keepdims=True) * w / w.sum(axis=2, keepdims=True)


def _continuous_rum_top_two(noise: NoiseSpec, theta: float, x: np.ndarray) -> np.ndarray:
    t, w = _gauss_legendre_grid(theta, x)
    z = theta * (t[:, None] - x)
    cdf = noise.cdf(z)
    pmf = _support_sum(w[:, None] * theta * noise.pdf(z), cdf, 1.0 - cdf)
    total = pmf.sum()
    if abs(total - 1.0) > 1e-8:
        raise UnsupportedModelError(f"quadrature pmf sums to {total!r}")
    return pmf / total


def _support_sum(mass: np.ndarray, below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """P[a, b] = sum_k mass[k, b] above[k, a] prod_{c != a, b} below[k, c]
    over support points t_k (rows; columns are candidates), as the product
    (above * prod_{c != a} below)^T (mass / below), so that no K x n x n
    array is formed; leading axes are a batch, one product each. The product
    over c != a is an exclusive prefix times an exclusive suffix cumprod; b's
    own factor is divided out of its mass, with below floored at 1e-300 in
    that division only, where b's mass is negligible."""
    prefix, suffix = np.ones_like(below), np.ones_like(below)
    np.cumprod(below[..., :-1], axis=-1, out=prefix[..., 1:])
    np.cumprod(below[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
    pmf = np.swapaxes(above * (prefix * suffix), -1, -2) @ (mass / np.maximum(below, 1e-300))
    c = np.arange(pmf.shape[-1])
    pmf[..., c, c] = 0.0
    return pmf


def _gauss_legendre_grid(theta: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule in perturbed-value space:
    panels at most 1/theta wide over the union of the windows x_c +- R/theta,
    with breakpoints at the pool values (the laplacian kink)."""
    nodes, weights = _legendre_rule()
    half = _GL_WINDOW / theta
    edges = np.unique(np.concatenate([x - half, x, x + half]))
    lo, hi = edges[:-1], edges[1:]
    inside = np.abs(0.5 * (lo + hi)[:, None] - x).min(axis=1) < half
    lo, hi = lo[inside], hi[inside]
    panels = np.ceil((hi - lo) * theta).astype(int)
    width = np.repeat((hi - lo) / panels, panels)
    first = np.repeat(np.cumsum(panels) - panels, panels)
    start = np.repeat(lo, panels) + (np.arange(panels.sum()) - first) * width
    t = start[:, None] + 0.5 * width[:, None] * (nodes + 1.0)
    return t.ravel(), (0.5 * width[:, None] * weights).ravel()


@lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    # on first use, not at import: the eigensolver behind leggauss adds about
    # 1 MB of peak memory to every process that imports the package
    return np.polynomial.legendre.leggauss(_GL_POINTS)


def _atom_enumeration(noise: NoiseSpec, theta: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed values and joint probability of every atom combination, one
    row each (the full-ranking pmf); TieError if any combination ties two."""
    n, m = len(x), len(noise.atoms)
    if m**n > 2_000_000:
        raise UnsupportedModelError(f"joint atom support {m}^{n} too large")
    cells, _, ties = _atom_cells(noise, np.array([theta]), x)
    if ties:
        raise ties[0]
    cells = cells.reshape(n, m)
    probs = np.array([p for _, p in noise.atoms])
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=1)
    return cells[np.arange(n), combos], np.prod(probs[combos], axis=1)


def _atom_cells(noise: NoiseSpec, thetas: np.ndarray, x: np.ndarray) -> tuple:
    """Perturbed values, one row per accuracy with candidate c under atom j
    at c m + j, each row's stable ascending order, and a TieError for each
    accuracy at which some ranking ties two candidates."""
    values = np.array([v for v, _ in noise.atoms])
    # every combination has positive probability, so two candidates tie in
    # some ranking exactly when two cells of different candidates are equal
    cells = (x[:, None] + values / thetas[:, None, None]).reshape(len(thetas), len(x) * len(values))
    order = np.argsort(cells, axis=1, kind="stable")
    return cells, order, _tie_errors(np.take_along_axis(cells, order, axis=1), order // len(values))


def _tie_errors(ranked: np.ndarray, owners: np.ndarray) -> dict[int, TieError]:
    """For each row of ranked (sorted values) whose equal neighbours belong to
    two owners (0-based candidates), a TieError naming the first such pair."""
    clash = (ranked[:, :-1] == ranked[:, 1:]) & (owners[:, :-1] != owners[:, 1:])
    errors = {}
    for r in np.flatnonzero(clash.any(axis=1)).tolist():
        k = int(np.argmax(clash[r]))
        a, b = sorted((int(owners[r, k]) + 1, int(owners[r, k + 1]) + 1))
        errors[r] = TieError(f"candidates {a} and {b} tie at perturbed value {float(ranked[r, k])}")
    return errors


def _discrete_rum_top_two(noise: NoiseSpec, thetas: np.ndarray, x: np.ndarray) -> tuple:
    """`_support_sum` over each accuracy's sorted cells, each carrying its
    atom's probability as its owner's mass; below = Pr(X_c <= t) and above =
    Pr(X_c > t) are direct cumulative sums. Exact up to rounding where
    `_atom_cells` finds no tie, as <= and < then agree for every c != b."""
    cells, order, ties = _atom_cells(noise, thetas, x)
    (size, cols), m = cells.shape, len(noise.atoms)
    mass = np.zeros((size, cols, cols // m))
    probs = np.array([q for _, q in noise.atoms])
    mass[np.arange(size)[:, None], np.arange(cols), order // m] = probs[order % m]
    above = np.zeros_like(mass)
    np.cumsum(mass[:, :0:-1], axis=1, out=above[:, -2::-1])
    return _support_sum(mass, np.cumsum(mass, axis=1), above), ties


def _pl_perm_probs(theta: float, x: np.ndarray) -> np.ndarray:
    # per-stage log-probabilities, so no stage divides 0 by 0 once exp underflows
    scores = theta * x
    picked = (scores - scores.max())[perm_space(len(x)).perms]
    remaining = np.logaddexp.accumulate(picked[:, ::-1], axis=1)[:, ::-1]
    return np.exp((picked - remaining).sum(axis=1))


def _discrete_rum_perm_probs(noise: NoiseSpec, theta: float, x: np.ndarray) -> np.ndarray:
    space = perm_space(len(x))
    perturbed, joint = _atom_enumeration(noise, theta, x)
    rows = space.rows_of(np.argsort(-perturbed, axis=1, kind="stable"))
    return np.bincount(rows, weights=joint, minlength=space.size)


def exact_selection_pmf(
    spec: RankingModelSpec,
    pool: CandidatePool,
    removed: frozenset[int] | set[int] = frozenset(),
) -> np.ndarray:
    """Pmf of the best-ranked surviving candidate after removing a set of
    1-based candidates, as a length-n array over 0-based candidates whose
    removed entries are 0: the distance-based `_mallows_first_survivor_pmf`
    (cached, read-only), else the top of the survivors' own ranking (Luce's
    axiom; independent noise), with TieError on any discrete tie in the pool."""
    n = pool.n
    removed0 = _removed0(removed, n)
    if spec.kind == "mallows":
        return _mallows_first_survivor_pmf(spec.phi, n, removed0)
    x = pool.as_array()
    if spec.noise is not None and not spec.noise.is_continuous:
        top_two_pmf(spec, x)  # TieError on a tie anywhere in the pool, removed candidates too
    survivors = np.setdiff1d(np.arange(n), removed0)
    first = top_two_pmf(spec, x[survivors]).sum(axis=1) if len(survivors) > 1 else np.ones(1)
    return np.bincount(survivors, first / first.sum(), n)


def _removed0(removed, n: int) -> tuple[int, ...]:
    """A proper subset of 1..n, checked, as sorted 0-based candidates."""
    removed = frozenset(int(c) for c in removed)
    if not removed <= set(range(1, n + 1)) or len(removed) >= n:
        raise ValueError(f"removed {sorted(removed)} is not a proper subset of 1..{n}")
    return tuple(sorted(c - 1 for c in removed))


def _exact_pool(pool_or_d: PoolOrDistribution, value_independent: bool) -> CandidatePool | None:
    """A fixed pool as itself; a drawn one as its mean pool if value_independent,
    else None; TypeError for anything else (the one pool-kind check)."""
    if isinstance(pool_or_d, CandidatePool):
        return pool_or_d
    if isinstance(pool_or_d, CandidateDistribution):
        return pool_or_d.mean_pool() if value_independent else None
    raise TypeError(f"expected pool or distribution, got {type(pool_or_d)!r}")


def exact_utility_table(theta_a: float, theta_h: float, family: RankingModelSpec,
                        pool: PoolOrDistribution) -> UtilityTable:
    """All six expected utilities of the two-firm hiring interaction: the
    one-cell `exact_utility_lattice`, raising its cell's error."""
    table = exact_utility_lattice([theta_h], [theta_a], family, pool)[0][0]
    if isinstance(table, ValueError):
        raise table
    return table


def exact_utility_lattice(theta_h_values, theta_a_values, family: RankingModelSpec,
                          pool: PoolOrDistribution) -> list[list[UtilityTable | ValueError]]:
    """The utility table of every cell (theta_h, theta_a) of an accuracy
    lattice, one list per theta_h, from one `_top_two_pmfs` stack.

    The first mover takes the top of its ranking; the second mover takes
    the top remaining candidate of its own ranking. Matching strategies
    (AA) share one realized ranking; every other pairing draws independent
    rankings. With P a ranking's top-two pmf and p1 = P.sum(1), a first
    mover gets p1 @ x, a sharing second mover P.sum(0) @ x, and an
    independent one G = p1 @ x - p1 x + P @ x contracted against the first
    mover's p1: one matrix product over all accuracies, checked against
    double enumeration of ranking pairs. A cell whose accuracy has a
    ValueError instead of a pmf holds it, theta_a's when both have one.
    """
    fixed = _exact_pool(pool, family.value_independent)
    if fixed is None:
        raise UnsupportedModelError("exact expectations over a pool distribution need a "
                                    "value-independent model; use the estimators module")
    x = fixed.as_array()
    index = {theta: k for k, theta in enumerate(dict.fromkeys([*theta_h_values, *theta_a_values]))}
    pmfs, errors = _top_two_pmfs(family, list(index), x)
    first, g, own = np.zeros((len(index), len(x))), np.zeros((len(index), len(x))), []
    for k, pmf in enumerate(pmfs):  # a failing accuracy's entries go unread
        first[k] = pmf.sum(axis=1)
        g[k] = first[k] @ x - first[k] * x + pmf @ x
        own.append((float(first[k] @ x), float(pmf.sum(axis=0) @ x)))
    # cross[s][t]: an independent second mover at accuracy t against a first
    # mover at s; one product for all pairs, so u_ha = u_hh where theta_a = theta_h
    cross = (first @ g.T).tolist()
    cols = [index[theta] for theta in theta_a_values]
    return [
        [errors.get(a) or errors.get(h) or UtilityTable(
            own[a][0], own[h][0], own[a][1], cross[a][h], cross[h][a], cross[h][h]) for a in cols]
        for h in (index[theta] for theta in theta_h_values)
    ]


def exact_welfare(table: UtilityTable, profile: str) -> float:
    """Total welfare (both firms' utility) for a strategy profile.

    AA and HH sum the first-mover and matching second-mover entries; the
    mixed profile averages the two hiring orders with weight 1/2 each.
    """
    p = profile.upper()
    if p == "AA":
        return table.u_first_a + table.u_aa
    if p == "HH":
        return table.u_first_h + table.u_hh
    if p in ("AH", "HA"):
        return 0.5 * (table.u_first_a + table.u_ah) + 0.5 * (table.u_first_h + table.u_ha)
    raise ValueError(f"unknown profile {profile!r}")


def _level_states(n: int, m: int) -> int:
    """States (S, R) after m hires from n: C(n, m) sets S, 2^m R within each."""
    return math.comb(n, m) << m


class _Moves(NamedTuple):
    """Read-only moves out of the states after m hires, free of phi.

    State (S, R) has index i * 2^m + code: S is the i-th m-subset in
    `combinations` order, and bit j of code is set when S's j-th smallest
    member is in R. Hiring outside[i, e] from state (i, code) leads to state
    dest_a[i, code, e] after m + 1 hires if the firm played A, which reveals
    the hire, and to dest_h[i, code, e] if it played H. reveals[t] =
    (src, dst, slot) reveal one member of S from the states with t entries
    revealed. A reveal's probability is entry slot of the table in
    `_reveal_weights`; hire_slot[i, code, e] is that of outside[i, e].
    """

    outside: np.ndarray
    dest_a: np.ndarray
    dest_h: np.ndarray
    hire_slot: np.ndarray
    reveals: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=64)
def _moves(n: int, m: int) -> _Moves:
    sets = list(combinations(range(n), m))
    following = {s: i for i, s in enumerate(combinations(range(n), m + 1))}
    # per outsider e of S: e, the members below it, and the index of S + e
    rows = [[(e, sum(c < e for c in s), following[tuple(sorted((*s, e)))])
             for e in range(n) if e not in s] for s in sets]
    outside, p, nxt = np.array(rows, dtype=np.intp).reshape(len(sets), n - m, 3).transpose(2, 0, 1)
    members = np.array(sets, dtype=np.intp).reshape(len(sets), m)
    code, p = np.arange(1 << m)[:, None], p[:, None, :]
    below = code & ((1 << p) - 1)
    dest_h = (nxt[:, None, :] << (m + 1)) | below | ((code >> p) << (p + 1))
    unrevealed = n - np.bitwise_count(code)
    hire_slot = (unrevealed - 1) * n + outside[:, None, :] - np.bitwise_count(below)
    reveals = []
    for t in range(m):
        c, j = np.nonzero((unrevealed == n - t) & ((code >> np.arange(m)) & 1 == 0))
        src = (np.arange(len(sets))[:, None] << m) | c
        r = members[:, j] - np.bitwise_count(c & ((1 << j) - 1))
        reveals.append((src.ravel(), (src | (1 << j)).ravel(), ((n - t - 1) * n + r).ravel()))
    moves = _Moves(outside, dest_h | (1 << p), dest_h, hire_slot, tuple(reveals))
    for arr in (*moves[:4], *(a for reveal in reveals for a in reveal)):
        arr.setflags(write=False)
    return moves


@lru_cache(maxsize=64)
def _reveal_weights(phi: float, n: int, m: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Read-only probabilities of the reveals of `_moves(n, m)`, round by
    round, and of its hires. Given a revealed prefix, the rest of a
    distance-based ranking is again distance-based with the same phi (the
    multistage property, Fligner & Verducci 1986), so its next entry is the
    r-th best of the s unrevealed candidates with probability
    q^r / sum_{j < s} q^j, q = 1/phi."""
    powers = (1.0 / phi) ** np.arange(n)
    table = (powers / np.cumsum(powers)[:, None]).ravel()
    moves = _moves(n, m)
    rounds, hire = tuple(table[slot] for _, _, slot in moves.reveals), table[moves.hire_slot]
    for arr in (*rounds, hire):
        arr.setflags(write=False)
    return rounds, hire


def _arrivals(mass: np.ndarray, moves: _Moves, rounds: tuple[np.ndarray, ...]) -> np.ndarray:
    """Probability of standing at each state when a ranking's next reveal is
    drawn: mass plus what the reveal rounds carry there."""
    mass = mass.copy()
    for (src, dst, _), w in zip(moves.reveals, rounds):
        mass += np.bincount(dst, mass[src] * w, len(mass))
    return mass


@lru_cache(maxsize=64)
def _fresh_weights(phi_h: float, n: int, m: int) -> np.ndarray:
    """Read-only first-survivor pmf of a fresh ranking for every removed set
    after m hires, over its outside candidates: reveal from R empty until an
    entry is not in S."""
    moves = _moves(n, m)
    rounds, hire = _reveal_weights(phi_h, n, m)
    start = np.zeros(_level_states(n, m))
    start[:: 1 << m] = 1.0
    pmf = (_arrivals(start, moves, rounds).reshape(len(hire), -1, 1) * hire).sum(axis=1)
    pmf.setflags(write=False)
    return pmf


class SequentialState:
    """Forward state of the k-firm hiring recursion.

    mass holds the probability of each state (S, R) of `_moves`: S is the
    set of candidates hired so far, R the entries of the shared algorithmic
    ranking revealed so far. A firm playing A reveals entries until one is
    not in S and hires it; a firm playing H hires the first survivor of a
    fresh ranking and reveals nothing.
    """

    def __init__(self, phi_a: float, phi_h: float, x: np.ndarray):
        self.phi_a, self.phi_h, self.x = phi_a, phi_h, x
        self.mass = np.ones(1)
        self.hired = 0
        self._steps: dict[str, tuple[float, np.ndarray, np.ndarray]] = {}

    def _step(self, strategy: str) -> tuple[float, np.ndarray, np.ndarray]:
        """The next firm's utility, hire flows and their destinations,
        computed once per firm and strategy."""
        if strategy not in self._steps:
            n, m = len(self.x), self.hired
            if m >= n:
                raise UnsupportedModelError("no candidates left to hire")
            moves = _moves(n, m)
            if strategy == "A":
                rounds, weights = _reveal_weights(self.phi_a, n, m)
                mass, dest = _arrivals(self.mass, moves, rounds), moves.dest_a
            else:
                weights = _fresh_weights(self.phi_h, n, m)[:, None, :]
                mass, dest = self.mass, moves.dest_h
            flows = mass.reshape(len(moves.outside), -1, 1) * weights
            utility = float((flows.sum(axis=1) * self.x[moves.outside]).sum())
            self._steps[strategy] = utility, flows, dest
        return self._steps[strategy]

    def utility_of_next(self, strategy: str) -> float:
        return self._step(strategy)[0]

    def hire(self, strategy: str) -> None:
        _, flows, dest = self._step(strategy)
        self.hired += 1
        self.mass = np.bincount(dest.ravel(), flows.ravel(), _level_states(len(self.x), self.hired))
        self._steps = {}


def _validate_sequence(sequence) -> tuple[str, ...]:
    """A nonempty A/H sequence, in either case, as an upper-case tuple."""
    seq = tuple(str(s).upper() for s in sequence)
    if not seq or any(s not in ("A", "H") for s in seq):
        raise ValueError(f"sequence must be nonempty over A/H, got {sequence!r}")
    return seq


def _sequential_values(k: int, phi_a: float, phi_h: float, pool_or_d: PoolOrDistribution) -> np.ndarray:
    """Check the arguments of k firms hiring in order; returns the pool values."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    for phi in (phi_a, phi_h):
        RankingModelSpec.mallows(phi)  # UnsupportedModelError unless phi > 1
    x = _exact_pool(pool_or_d, value_independent=True).as_array()
    n = len(x)
    if k > n:
        raise UnsupportedModelError(f"{k} firms cannot hire from {n} candidates")
    states = max(_level_states(n, m) for m in range(k + 1))
    if states > MAX_LEVEL_STATES:
        raise UnsupportedModelError(f"{k} firms hiring from {n} candidates need {states} "
                                    f"states at one level, over the bound {MAX_LEVEL_STATES}")
    return x


def exact_sequential_utilities(
    sequence,
    phi_a: float,
    phi_h: float,
    pool_or_d: PoolOrDistribution,
) -> list[float]:
    """Per-firm expected utilities when firms hire in the given order.

    Firms take the best surviving candidate of their ranking: one shared
    ranking for all A-firms, independent fresh rankings for H-firms. Only
    the distance-based family is supported; pool distributions enter
    through expected order statistics (the ranking distribution does not
    depend on the values).
    """
    seq = _validate_sequence(sequence)
    x = _sequential_values(len(seq), phi_a, phi_h, pool_or_d)
    state = SequentialState(phi_a, phi_h, x)
    utilities = []
    for strategy in seq:
        utilities.append(state.utility_of_next(strategy))
        state.hire(strategy)
    return utilities
