"""Exact selection probabilities, utility tables, and sequential hiring.

Utility tables are linear in the n x n top-two pmf (`top_two_pmf`): closed
forms, one composite Gauss-Legendre rule shared by all candidate pairs, or
atom enumeration (at most 2e6 atom combinations). Selection pmfs enumerate
all n! rankings (n <= 8), and continuous-noise permutation probabilities
stop at n <= 3. The distance-based first-survivor pmf that Monte Carlo
draws from is computed by repeated insertion for any n. Sequential hiring
(n <= 7) keeps one array of mass over (removed set, shared ranking) per
number of firms hired. All are exact up to rounding and quadrature error.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
from .permspace import mask_of, perm_space

MAX_SEQUENTIAL_N = 7
MAX_PMF_N = 8
MAX_QUADRATURE_N = 3
_DISCRETE_SUPPORT_CAP = 2_000_000
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
    axiom). Continuous RUMs: the integral of f_b (1 - F_a) prod_{c!=a,b} F_c
    over b's perturbed value, by one composite 16-point Gauss-Legendre rule
    for all pairs (panels at most 1/theta wide over x_c +- 40/theta, split at
    the pool values); UnsupportedModelError if the pmf misses 1 by over 1e-8.
    Discrete RUMs: atom enumeration, with TieError on a tie anywhere in a
    ranking. The last 128 pmfs are cached by spec and values (by n for the
    distance-based family), so a lattice's rows and columns share them.
    """
    key = len(x) if spec.value_independent else tuple(float(v) for v in x)
    return _top_two_pmf(spec, key)


@lru_cache(maxsize=128)
def _top_two_pmf(spec: RankingModelSpec, key) -> np.ndarray:
    if spec.kind == "mallows":
        pmf = _mallows_top_two(spec.phi, key)
    elif spec.kind == "plackett_luce":
        pmf = _pl_top_two(spec.theta, np.array(key))
    elif spec.noise.is_continuous:
        pmf = _continuous_rum_top_two(spec.noise, spec.theta, np.array(key))
    else:
        pmf = _discrete_rum_top_two(spec.noise, spec.theta, np.array(key))
    pmf.setflags(write=False)
    return pmf


def _mallows_top_two(phi: float, n: int) -> np.ndarray:
    c = np.arange(n)
    weights = (1.0 / phi) ** (c[:, None] + c[None, :] - (c[None, :] > c[:, None]))
    np.fill_diagonal(weights, 0.0)
    return weights / weights.sum()


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


def _pl_top_two(theta: float, x: np.ndarray) -> np.ndarray:
    # each row shifts by its own max, so W - w_a never cancels to 0 / 0
    scores = np.where(np.eye(len(x), dtype=bool), -np.inf, theta * x)
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    first = np.exp(theta * x - theta * x.max())
    return (first / first.sum())[:, None] * w / w.sum(axis=1, keepdims=True)


def _continuous_rum_top_two(noise: NoiseSpec, theta: float, x: np.ndarray) -> np.ndarray:
    pmf = _pair_integrals(noise, theta, x)
    total = pmf.sum()
    if abs(total - 1.0) > 1e-8:
        raise UnsupportedModelError(f"quadrature pmf sums to {total!r}")
    return pmf / total


def _pair_integrals(noise: NoiseSpec, theta: float, x: np.ndarray) -> np.ndarray:
    """P[a, b] = sum_k w_k f_b (1 - F_a) prod_{c != a, b} F_c over the nodes
    t_k, as the product A^T B so that no K x n x n array is formed. F is
    floored at 1e-300 before L = log F is taken; f_b exp(-L_b) stays bounded
    there for all three kinds."""
    t, w = _gauss_legendre_grid(theta, x)
    z = theta * (t[:, None] - x)
    cdf = noise.cdf(z)
    logs = np.log(np.maximum(cdf, 1e-300))
    a = w[:, None] * (1.0 - cdf) * np.exp(logs.sum(axis=1, keepdims=True) - logs)
    b = theta * noise.pdf(z) * np.exp(-logs)
    pmf = a.T @ b
    np.fill_diagonal(pmf, 0.0)
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
    row each; TieError if any combination ties two candidates."""
    n = len(x)
    values = np.array([v for v, _ in noise.atoms])
    probs = np.array([p for _, p in noise.atoms])
    m = len(values)
    if m**n > _DISCRETE_SUPPORT_CAP:
        raise UnsupportedModelError(f"joint atom support {m}^{n} too large")
    # every combination has positive probability, so two candidates tie in
    # some ranking exactly when two cells in different rows are equal
    cells = x[:, None] + values[None, :] / theta
    flat = cells.ravel()
    order = np.argsort(flat, kind="stable")
    owner = order // m
    clash = (flat[order[:-1]] == flat[order[1:]]) & (owner[:-1] != owner[1:])
    if clash.any():
        k = int(np.argmax(clash))
        a, b = sorted((int(owner[k]) + 1, int(owner[k + 1]) + 1))
        raise TieError(f"candidates {a} and {b} tie at perturbed value {flat[order[k]]!r}")
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=1)
    return cells[np.arange(n), combos], np.prod(probs[combos], axis=1)


def _discrete_rum_top_two(noise: NoiseSpec, theta: float, x: np.ndarray) -> np.ndarray:
    n = len(x)
    perturbed, joint = _atom_enumeration(noise, theta, x)
    top = np.argmax(perturbed, axis=1)
    perturbed[np.arange(len(top)), top] = -np.inf
    second = np.argmax(perturbed, axis=1)
    return np.bincount(top * n + second, weights=joint, minlength=n * n).reshape(n, n)


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
    removed entries are 0."""
    n = pool.n
    if n > MAX_PMF_N:
        raise UnsupportedModelError(f"exact selection pmf capped at n={MAX_PMF_N}")
    removed = frozenset(int(c) for c in removed)
    if not removed <= set(range(1, n + 1)):
        raise ValueError(f"removed {sorted(removed)} out of range 1..{n}")
    if len(removed) >= n:
        raise ValueError("cannot remove every candidate")
    probs = permutation_probabilities(spec, pool)
    space = perm_space(n)
    pmf = space.first_choice(probs, mask_of({c - 1 for c in removed}))
    return pmf / pmf.sum()


def _resolve_exact_values(pool_or_d: PoolOrDistribution, value_independent: bool) -> np.ndarray:
    if isinstance(pool_or_d, CandidatePool):
        return pool_or_d.as_array()
    if isinstance(pool_or_d, CandidateDistribution):
        if not value_independent:
            raise UnsupportedModelError(
                "exact expectations over a pool distribution need a value-independent "
                "model; use the estimators module"
            )
        return pool_or_d.mean_pool().as_array()
    raise TypeError(f"expected pool or distribution, got {type(pool_or_d)!r}")


def exact_utility_table(
    theta_a: float,
    theta_h: float,
    family: RankingModelSpec,
    pool: PoolOrDistribution,
) -> UtilityTable:
    """All six expected utilities of the two-firm hiring interaction.

    The first mover takes the top of its ranking; the second mover takes
    the top remaining candidate of its own ranking. Matching strategies
    (AA) share one realized ranking; every other pairing draws independent
    rankings. With P a ranking's top-two pmf and p1 = P.sum(1), a first
    mover gets p1 @ x, a sharing second mover P.sum(0) @ x, and an
    independent one G = p1 @ x - p1 x + P @ x contracted against the first
    mover's p1. Tests check this against double enumeration of ranking pairs.
    """
    x = _resolve_exact_values(pool, family.value_independent)
    p_a = top_two_pmf(family.with_theta(theta_a), x)
    p_h = top_two_pmf(family.with_theta(theta_h), x)
    first_a = p_a.sum(axis=1)
    first_h = p_h.sum(axis=1)
    g_a = first_a @ x - first_a * x + p_a @ x
    g_h = first_h @ x - first_h * x + p_h @ x
    return UtilityTable(
        u_first_a=float(first_a @ x),
        u_first_h=float(first_h @ x),
        u_aa=float(p_a.sum(axis=0) @ x),
        u_ah=float(first_a @ g_h),
        u_ha=float(first_h @ g_a),
        u_hh=float(first_h @ g_h),
    )


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


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Read-only removed-set tables: the masks with h bits set for each h,
    each mask's index within its level, and tops[mask, row], the first
    candidate of ranking row not in mask, for every mask but the full one."""
    space = perm_space(n)
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    masks = tuple(np.flatnonzero(sizes == h) for h in range(n + 1))
    index = np.zeros(1 << n, dtype=np.intp)
    for level in masks:
        index[level] = np.arange(len(level))
    tops = np.array([space.top_of_available(m) for m in range((1 << n) - 1)])
    for arr in (*masks, index, tops):
        arr.setflags(write=False)
    return masks, index, tops


@lru_cache(maxsize=64)
def _human_steps(phi_h: float, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per level h < n, the read-only pair (Q_h, W_h): a fresh ranking's
    first-choice pmf under each removed set with h members (C(n,h) x n),
    and the transition it induces onto the sets with h + 1 (C(n,h+1) x C(n,h))."""
    masks, index, tops = _levels(n)
    probs = mallows_perm_probs(phi_h, n)
    steps = []
    for level, nxt in zip(masks, masks[1:]):
        q = np.array([np.bincount(tops[m], weights=probs, minlength=n) for m in level])
        q /= q.sum(axis=1, keepdims=True)
        src, c = np.nonzero(((level[:, None] >> np.arange(n)) & 1) == 0)
        w = np.zeros((len(nxt), len(level)))
        w[index[level[src] | (1 << c)], src] = q[src, c]
        q.setflags(write=False)
        w.setflags(write=False)
        steps.append((q, w))
    return tuple(steps)


class SequentialState:
    """Forward state of the k-firm hiring recursion.

    mass[i, row] is the probability that the firms hired so far removed the
    i-th set of their level and that the shared algorithmic ranking is row.
    A firm playing A moves each row's mass to its set plus the row's top
    survivor; a firm playing H draws a fresh ranking, which integrates out
    to the transition W_h between removed sets.
    """

    def __init__(self, phi_a: float, phi_h: float, x: np.ndarray):
        self.x = x
        self.levels, self.index, self.tops = _levels(len(x))
        self.steps_h = _human_steps(phi_h, len(x))
        self.mass = mallows_perm_probs(phi_a, len(x))[None, :]
        self.hired = 0

    def _level(self) -> np.ndarray:
        if self.hired >= len(self.x):
            raise UnsupportedModelError("no candidates left to hire")
        return self.levels[self.hired]

    def utility_of_next(self, strategy: str) -> float:
        level = self._level()
        if strategy == "A":
            return float(np.sum(self.mass * self.x[self.tops[level]]))
        q, _ = self.steps_h[self.hired]
        return float(self.mass.sum(axis=1) @ (q @ self.x))

    def hire(self, strategy: str) -> None:
        level = self._level()
        if strategy == "A":
            size = self.mass.shape[1]
            taken = level[:, None] | (1 << self.tops[level].astype(np.intp))
            dest = self.index[taken] * size + np.arange(size)
            nxt = len(self.levels[self.hired + 1])
            self.mass = np.bincount(dest.ravel(), self.mass.ravel(), nxt * size).reshape(nxt, size)
        else:
            self.mass = self.steps_h[self.hired][1] @ self.mass
        self.hired += 1


def _validate_sequence(sequence) -> tuple[str, ...]:
    seq = tuple(str(s).upper() for s in sequence)
    if not seq or any(s not in ("A", "H") for s in seq):
        raise ValueError(f"sequence must be nonempty over A/H, got {sequence!r}")
    return seq


def _sequential_values(k: int, phi_a: float, phi_h: float, pool_or_d: PoolOrDistribution) -> np.ndarray:
    """Check the arguments of k firms hiring in order; returns the pool values."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not (phi_a > 1 and phi_h > 1):
        raise UnsupportedModelError(f"need phi > 1, got phi_a={phi_a}, phi_h={phi_h}")
    x = _resolve_exact_values(pool_or_d, value_independent=True)
    n = len(x)
    if n > MAX_SEQUENTIAL_N:
        raise UnsupportedModelError(f"sequential hiring capped at n={MAX_SEQUENTIAL_N}")
    if k > n:
        raise UnsupportedModelError(f"{k} firms cannot hire from {n} candidates")
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
