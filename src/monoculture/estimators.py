"""Coupled Monte Carlo estimation of utilities and condition checks.

Trials are partitioned into chunks of CHUNK_SIZE (8192) rows by one driver,
`_run_chunks`, which every estimator call runs once. Chunk c draws from the
rng keyed by (seed, 0, c): its pool rows first (fresh from a distribution,
C-contiguous; a fixed pool draws nothing), then its rankings (laplacian
noise from `models._laplace`). Per-chunk moments (count,
mean, centred sum of squares) are merged in chunk order, so results are
bit-identical for a given seed on any number of workers; `threads=None` runs
one per core, at most one per chunk. Within a trial all quantities share the
same draws (common random numbers), which shrinks the variance of every
estimated difference: the cells of an `mc_utility_lattice` and the grid
points of a sampled `check_monotonicity` share them too.

No estimator samples a whole ranking. Every two-firm estimand reads only
the top two of each ranking, and the monotonicity check only the best
survivor of a removed set. One rule, `_Role`, chooses the sampler of each
ranking role (one ranking per trial, at one or more accuracies) once per
estimator call, before any chunk runs: the same law on every row means an
exact-law draw. Rows share one law on a fixed pool, and under the
distance-based family on any pool; their picks come from `top_two_pmf`
(first survivors: `exact_selection_pmf`), one uniform per ranking inverted
through its cumulative sum. Continuous noise takes that path only while its
quadrature grid has at most CHUNK_SIZE nodes. Elsewhere, a drawn pool under
a value-dependent family or a fixed pool past that grid, `_perturbed_picks`
takes argmax passes over the perturbed scores that `sample_rankings`, the
public API's full-ranking sampler, sorts, so equal seeds give equal picks;
exact-law picks have the same law but come from different draws. A role
draws once per chunk for all its accuracies, as no draw's size depends on
one, so an accuracy's picks are those of a role of its own, bit for bit,
unless the role mixes the two samplers: then all its accuracies perturb.

Finite-atom noise raises TieError where two candidates can tie: on a fixed
pool by the exact engine's rule, a tie in any ranking, before any draw; on
a drawn pool when a sampled row ties.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import PoolOrDistribution
from .exact import (
    ENTRY_NAMES,
    UtilityTable,
    _exact_pool,
    _gauss_legendre_grid,
    _removed0,
    _tie_errors,
    exact_selection_pmf,
    top_two_pmf,
)
from .models import RankingModelSpec, TieError

CHUNK_SIZE = 1 << 13
_KEY_ROWS = 1 << 10
DEFAULT_Z_THRESHOLD = 3.0
STRICT_TOL = 1e-12
DEFAULT_CONDITION_SAMPLES = 1_000_000
DEFAULT_SWEEP_SAMPLES = 100_000
# check_monotonicity is exact only up to this n, though no selection pmf has a
# size cap: the benchmark's survivors workload (bench/workloads.py) requires
# its distance-based and gaussian n = 10 checks to run Monte Carlo
_EXACT_MONOTONICITY_N = 8

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"
_VERDICTS = (VERDICT_FAILS, VERDICT_INCONCLUSIVE, VERDICT_HOLDS)  # at `_sign` + 1


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    stderr: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")

    @property
    def z_score_vs_zero(self) -> float:
        """mean / stderr, for display, and NaN without a stderr; verdicts are
        judged by `_strict`."""
        return self.mean / self.stderr if self.stderr > 0 else math.nan

    @staticmethod
    def exact(mean: float) -> "EstimateWithError":
        return EstimateWithError(float(mean), 0.0, 0)


def _strict(margin: float, se: float) -> bool:
    """The one strictness rule: a margin is strict when it clears both the z
    threshold on its stderr and the rounding floor STRICT_TOL, so exact and
    sampled results share it and no branch infers exactness. A margin (or
    NaN) is a tie when neither it nor its negation is strict. Two comparisons
    match `margin > max(...)` on all floats, NaN included, with no call, and
    `&` applies the rule elementwise to arrays of margins."""
    return (margin > DEFAULT_Z_THRESHOLD * se) & (margin > STRICT_TOL)


def _sign(margin: float, se: float) -> int:
    """The one rule for every two-sided decision, `_strict` both ways: 1 when
    the margin is strict, -1 when its negation is, 0 on a tie (NaN too)."""
    return _strict(margin, se) - _strict(-margin, se)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one behavioral-condition check.

    Built by `_report` alone. verdict follows `_sign`, the rule the solver
    judges margins by, for exact and sampled estimates alike: holds when the
    estimate exceeds both DEFAULT_Z_THRESHOLD times its stderr and
    STRICT_TOL, fails when its negation does, and is inconclusive otherwise.
    """

    condition: str
    estimate: EstimateWithError
    verdict: str
    detail: dict = field(default_factory=dict)


def _increasing_grid(values, name: str) -> list[float]:
    """values as floats; ValueError unless they strictly increase."""
    grid = [float(v) for v in values]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly increasing, got {grid}")
    return grid


def _report(condition: str, steps: list[EstimateWithError], detail: dict) -> ConditionReport:
    """The one maker of every ConditionReport. Each step is judged by `_sign`:
    the report fails if any fails, holds if all hold (so no step holds), and
    is inconclusive otherwise. Its estimate is the first step whose sign is
    the report's, or an exact 0 without steps (no step, no trial)."""
    signs = [_sign(d.mean, d.stderr) for d in steps]
    worst = min(signs, default=1)
    estimate = next((d for d, s in zip(steps, signs) if s == worst), EstimateWithError.exact(0.0))
    return ConditionReport(condition, estimate, _VERDICTS[worst + 1], detail)


def _pool_matrix(pool_or_d: PoolOrDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    fixed = _exact_pool(pool_or_d, value_independent=False)
    if fixed is None:
        return pool_or_d.sample_matrix(rng, size)
    return np.broadcast_to(fixed.as_array(), (size, fixed.n))


def _mallows_orders(phi: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized repeated-insertion sampling; rows are 0-based orders."""
    q = 1.0 / phi
    out = np.zeros((size, n), dtype=np.int64)
    for j in range(1, n):
        weights = q ** np.arange(j + 1)
        cum = np.cumsum(weights)
        u = rng.uniform(0.0, cum[-1], size)
        r = np.searchsorted(cum, u, side="right")
        r = np.minimum(r, j)
        pos = (j - r)[:, None]
        idx = np.arange(j + 1)[None, :]
        src = np.clip(idx - (idx > pos), 0, j - 1)
        grown = np.take_along_axis(out[:, :j], src, axis=1)
        grown[idx == pos] = j
        out[:, : j + 1] = grown
    return out


def _raise_on_ties(keys: np.ndarray) -> None:
    """Raise TieError naming the best-placed tied pair of the first row with a tie."""
    ranked = np.sort(keys, axis=1)
    tied_rows = np.any(ranked[:, :-1] == ranked[:, 1:], axis=1)
    if np.any(tied_rows):
        row = keys[np.argmax(tied_rows)]
        order = np.argsort(-row, kind="stable")
        raise _tie_errors(row[order][None], order[None])[0]


def _noise(spec: RankingModelSpec, pools: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The draw behind one RUM or Plackett-Luce ranking per pool row:
    standard Gumbel for Plackett-Luce (the max-trick), else the noise."""
    if spec.kind == "plackett_luce":
        return rng.gumbel(0.0, 1.0, pools.shape)
    return spec.noise.sample(rng, pools.shape)


def _perturbed_keys(spec: RankingModelSpec, pools: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Scores whose descending order is one ranking per row, from a `_noise`
    draw: theta x + Gumbel, or x + noise / theta for a RUM, where finite-atom
    noise raises TieError on the first row that ties."""
    if spec.kind == "plackett_luce":
        keys = pools * spec.theta
        keys += noise
        return keys
    keys = noise / spec.theta
    keys += pools
    if not spec.noise.is_continuous:
        _raise_on_ties(keys)
    return keys


def _perturbed_picks(spec: RankingModelSpec, pools: np.ndarray, noise: np.ndarray,
                     removed0=None, top_only=False) -> np.ndarray:
    """(top, runner-up) of one ranking per row as 0-based candidates (with
    top_only, the top column alone), or with removed0 the best survivor, in
    the smallest integer type that holds -n: argmax passes over
    `_perturbed_keys` built _KEY_ROWS rows at a time, so a draw shared by
    accuracies costs no second full-size matrix."""
    out = np.empty((len(pools), 2 - top_only) if removed0 is None else len(pools),
                   dtype=np.min_scalar_type(-pools.shape[1]))
    for start in range(0, len(pools), _KEY_ROWS):
        rows = slice(start, start + _KEY_ROWS)
        keys = _perturbed_keys(spec, pools[rows], noise[rows])
        if removed0 is not None:
            keys[:, removed0] = -np.inf
            out[rows] = np.argmax(keys, axis=1)
            continue
        top = out[rows, 0] = np.argmax(keys, axis=1)
        if not top_only:
            keys[np.arange(len(keys)), top] = -np.inf
            out[rows, 1] = np.argmax(keys, axis=1)
    return out


def sample_rankings(
    spec: RankingModelSpec, pools: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One ranking per pool row, as (size, n) 0-based orders, best first.

    The distance-based family ignores the pool values and uses repeated
    insertion; RUM and Plackett-Luce sort the perturbed scores.
    """
    size, n = pools.shape
    if spec.kind == "mallows":
        return _mallows_orders(spec.phi, n, size, rng)
    keys = _perturbed_keys(spec, pools, _noise(spec, pools, rng))
    return np.argsort(-keys, axis=1, kind="stable")


def _law_table(spec: RankingModelSpec, pool_or_d: PoolOrDistribution, removed0):
    """(picks, cumulative weights, last pick of nonzero weight) of spec's
    exact law, or None where rows differ in law or, past CHUNK_SIZE grid
    nodes, the pmf's K x n work arrays would outgrow a chunk. The clip to
    the last pick catches a uniform that rounds up onto the total."""
    fixed = _exact_pool(pool_or_d, spec.value_independent)
    if fixed is None or (spec.kind == "rum" and spec.noise.is_continuous and len(
            _gauss_legendre_grid(spec.theta, fixed.as_array())[0]) > CHUNK_SIZE):
        return None
    if removed0 is None:
        picks = np.argwhere(~np.eye(fixed.n, dtype=bool))
        weights = top_two_pmf(spec, fixed.as_array())[picks[:, 0], picks[:, 1]]
    else:
        picks = np.setdiff1d(np.arange(fixed.n), removed0)
        weights = exact_selection_pmf(spec, fixed, {c + 1 for c in removed0})[picks]
    last = np.flatnonzero(weights)[-1]
    return picks.astype(np.min_scalar_type(-fixed.n)), np.cumsum(weights), last


class _Role:
    """One ranking per trial at each of several accuracies, drawn once per
    chunk by the module's rule (`picks`). errors maps each accuracy without
    a sampler to its ValueError: `with_theta`'s, or its pmf's (TieError on a
    fixed pool, UnsupportedModelError from the quadrature)."""

    def __init__(self, family: RankingModelSpec, thetas, pool_or_d: PoolOrDistribution,
                 removed0=None):
        self.family, self.removed0, self.errors, self.live = family, removed0, {}, {}
        for theta in dict.fromkeys(thetas):
            try:
                spec = family.with_theta(theta)
                self.live[theta] = spec, _law_table(spec, pool_or_d, removed0)
            except ValueError as exc:
                self.errors[theta] = exc
        self.exact = all(law is not None for _, law in self.live.values())

    def picks(self, pools: np.ndarray, rng: np.random.Generator, top_only=False) -> dict:
        """Each accuracy's picks for one chunk's pool rows, from one draw; a
        drawn finite-atom row that ties leaves its TieError instead. top_only
        stops a perturbation draw at the top; an exact-law one keeps pairs."""
        if self.exact:
            u = rng.random(len(pools))
            return {theta: np.take(picks, np.minimum(
                        np.searchsorted(cum, cum[-1] * u, side="right"), last), axis=0)
                    for theta, (_, (picks, cum, last)) in self.live.items()}
        noise, out = _noise(self.family, pools, rng), {}
        for theta, (spec, _) in self.live.items():
            try:
                out[theta] = _perturbed_picks(spec, pools, noise, self.removed0, top_only)
            except TieError as exc:
                out[theta] = exc
        return out


def _picks(family: RankingModelSpec, thetas, pool_or_d: PoolOrDistribution, removed0=None):
    """(pools, rng, top_only=False) -> a list of each accuracy's (top,
    runner-up), or with top_only its column 0 alone, of one ranking per pool
    row, or with removed0 its best survivor: the raising view of a `_Role`
    over thetas, raising its first refused accuracy's error now and a drawn
    tie's TieError when drawn."""
    role = _Role(family, thetas, pool_or_d, removed0)
    if role.errors:
        raise next(iter(role.errors.values()))

    def picks(pools: np.ndarray, rng: np.random.Generator, top_only=False) -> list[np.ndarray]:
        got = role.picks(pools, rng, top_only)
        for p in got.values():
            if isinstance(p, TieError):
                raise p
        return [got[theta] for theta in thetas]

    return picks


def _values_at(pools: np.ndarray, picks: np.ndarray) -> np.ndarray:
    if pools.strides[0] == 0:  # one fixed pool, the stride-0 view of `_pool_matrix`
        return pools[0][picks]
    return np.take(pools, picks + np.arange(0, pools.size, pools.shape[1]))  # by row offsets


def _top_avoiding(top_two: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Top candidate of each ranking, or the runner-up when the top is blocked."""
    return np.where(top_two[:, 0] != blocked, top_two[:, 0], top_two[:, 1])


def _cores() -> int:  # the cores this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(threads: int | None) -> int:
    """threads, checked, or for None the cores this process may run on."""
    if threads is None:
        return _cores()
    if isinstance(threads, bool) or not (isinstance(threads, (int, np.integer)) and threads >= 1):
        raise ValueError(f"threads must be None or an int >= 1, got {threads!r}")
    return threads


def _moments(v: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, centred sum of squares) of v; its temporary dies here."""
    mean = float(v.mean())
    d = v - mean
    d *= d
    return v.size, mean, float(d.sum())


def _run_chunks(kernel, pool_or_d: PoolOrDistribution, n_samples: int, seed: int,
                threads: int | None) -> dict[str, EstimateWithError]:
    """Mean and stderr of each (name, per-trial array) pair that
    `kernel(pools, rng)` yields, over n_samples trials in chunks of
    CHUNK_SIZE on up to `threads` workers; each array is reduced as it comes.
    Chunk c draws its pool rows, then the kernel's draws, from the rng keyed
    by (seed, 0, c): the 0 is a retired stream index, kept so that every
    seeded result keeps its bits. Per-chunk centred moments are merged in
    chunk order (Chan, Golub & LeVeque 1979), which keeps the variance
    accurate where E[v^2] - E[v]^2 would cancel. A ValueError yielded for an
    array is the name's result, the earliest chunk's; a stderr needs an int
    n_samples >= 2."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError(f"need an integer n_samples >= 2, got {n_samples!r}")
    sizes = [min(CHUNK_SIZE, n_samples - start) for start in range(0, n_samples, CHUNK_SIZE)]
    workers = min(_workers(threads), len(sizes))

    def moments(c: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, c)))
        pools = _pool_matrix(pool_or_d, rng, sizes[c])
        return {name: v if isinstance(v, ValueError) else _moments(v)
                for name, v in kernel(pools, rng)}

    merged = {}

    def merge(part: dict) -> None:  # called in chunk order, so only running totals are kept
        for name, m in part.items():
            acc = merged.get(name, (0, 0.0, 0.0))
            if isinstance(acc, ValueError) or isinstance(m, ValueError):
                merged[name] = acc if isinstance(acc, ValueError) else m  # the earliest error
                continue
            (count, mean, m2), (n_c, mean_c, m2_c) = acc, m
            total = count + n_c
            delta = mean_c - mean
            merged[name] = (total, mean + delta * n_c / total,
                            m2 + (m2_c + delta * delta * count * n_c / total))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            for part in executor.map(moments, range(len(sizes))):
                merge(part)
    else:
        for c in range(len(sizes)):
            merge(moments(c))
    return {name: m if isinstance(m, ValueError) else
            EstimateWithError(m[1], math.sqrt(m[2] / m[0] / m[0]), m[0]) for name, m in merged.items()}


def mc_utility_lattice(theta_h_values, theta_a_values, spec: RankingModelSpec,
                       pool_or_d: PoolOrDistribution, n_samples: int, seed: int,
                       threads: int | None = None) -> list[list[UtilityTable | ValueError]]:
    """The Monte Carlo utility table of every cell (theta_h, theta_a) of an
    accuracy lattice, one list per theta_h, from one `_run_chunks` pass.

    Per trial: one pool, an algorithmic ranking sigma and two independent
    human rankings pi and tau. A chunk draws its pool rows, then one `_Role`
    draw each for sigma (at every theta_a), pi and tau (at every theta_h),
    and reads every cell's entries from them: cell (i, j) is the one-cell
    `mc_utility_table` at the same seed, errors included. Where both of its
    accuracies fail, theta_a's error wins; a drawn finite-atom tie comes
    from the earliest chunk, sigma's before pi's before tau's. A bad
    n_samples, seed or threads raises only if some cell is sampled: where
    every accuracy fails, the lattice of their errors returns unchecked.
    """
    rows, cols = [float(t) for t in theta_h_values], [float(t) for t in theta_a_values]
    role_a, role_h = _Role(spec, cols, pool_or_d), _Role(spec, rows, pool_or_d)
    cells = {(i, j): role_a.errors.get(a) or role_h.errors.get(h)
             for i, h in enumerate(rows) for j, a in enumerate(cols)}
    live = [cell for cell, error in cells.items() if error is None]

    def kernel(pools: np.ndarray, rng: np.random.Generator):
        sigma = role_a.picks(pools, rng)
        pi, tau = role_h.picks(pools, rng), role_h.picks(pools, rng)
        for i, j in live:
            s, p, t = sigma[cols[j]], pi[rows[i]], tau[rows[i]]
            tie = next((e for e in (s, p, t) if isinstance(e, TieError)), None)
            if tie is not None:
                yield from (((i, j, name), tie) for name in ENTRY_NAMES)
                continue
            for name, picks in zip(ENTRY_NAMES, (
                    s[:, 0], p[:, 0], s[:, 1], _top_avoiding(p, s[:, 0]),
                    _top_avoiding(s, p[:, 0]), _top_avoiding(t, p[:, 0]))):
                yield (i, j, name), _values_at(pools, picks)

    est = _run_chunks(kernel, pool_or_d, n_samples, seed, threads) if live else {}
    for i, j in live:
        entries = [est[i, j, name] for name in ENTRY_NAMES]
        cells[i, j] = entries[0] if isinstance(entries[0], ValueError) else UtilityTable(
            *(e.mean for e in entries), *(e.stderr for e in entries), entries[0].n_samples)
    return [[cells[i, j] for j in range(len(cols))] for i in range(len(rows))]


def mc_utility_table(theta_a: float, theta_h: float, spec: RankingModelSpec,
                     pool_or_d: PoolOrDistribution, n_samples: int, seed: int,
                     threads: int | None = None) -> UtilityTable:
    """Monte Carlo counterpart of the exact utility table: the one-cell
    `mc_utility_lattice`, raising its cell's error."""
    [[table]] = mc_utility_lattice([theta_h], [theta_a], spec, pool_or_d, n_samples, seed, threads)
    if isinstance(table, ValueError):
        raise table
    return table


def mc_utility_trials(theta_a: float, theta_h: float, spec: RankingModelSpec,
                      pool_or_d: PoolOrDistribution, n_samples: int, seed: int,
                      threads: int | None = None) -> dict[str, EstimateWithError]:
    """`mc_utility_table`'s six entries as estimates named as in ENTRY_NAMES.
    The coupled differences behind the paper's two conditions are the
    estimands of `check_pref_first_position` and `check_pref_weaker_competition`."""
    table = mc_utility_table(theta_a, theta_h, spec, pool_or_d, n_samples, seed, threads)
    return {name: EstimateWithError(getattr(table, name), getattr(table, f"stderr_{name}"),
                                    table.n_samples) for name in ENTRY_NAMES}


def check_pref_first_position(
    spec: RankingModelSpec,
    theta: float,
    pool_or_d: PoolOrDistribution,
    n_samples: int = DEFAULT_CONDITION_SAMPLES,
    seed: int = 0,
    threads: int | None = None,
) -> ConditionReport:
    """Estimate E[(top gap of one ranking) * 1{tops of two rankings differ}].

    Two equal-accuracy rankings are drawn per trial; the estimand is the
    unconditional product form whose sign matches the conditional
    first-position preference, and whose value equals the second mover's
    utility loss or gain from sharing the first mover's ranking.
    """
    picks = _picks(spec, [theta], pool_or_d)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
        [pi], [sigma] = picks(pools, rng), picks(pools, rng, top_only=True)
        gap = _values_at(pools, pi[:, 0]) - _values_at(pools, pi[:, 1])
        hit = (pi[:, 0] != sigma[:, 0]).astype(float)
        return [("estimand", gap * hit)]

    est = _run_chunks(kernel, pool_or_d, n_samples, seed, threads)["estimand"]
    return _report("pref_first_position", [est], {"theta": theta})


def check_pref_weaker_competition(
    spec: RankingModelSpec,
    theta1: float,
    theta2: float,
    pool_or_d: PoolOrDistribution,
    n_samples: int = DEFAULT_CONDITION_SAMPLES,
    seed: int = 0,
    threads: int | None = None,
) -> ConditionReport:
    """Whether choosing after a weaker first mover beats a stronger one.

    Per trial one ranking pi at accuracy theta2 is scored against two
    rivals: a strong one at theta1 and a weak one at theta2. The paired
    estimand is value(top of pi avoiding the weak rival's pick) minus
    value(top of pi avoiding the strong rival's pick); positive means the
    weaker competitor leaves more on the table.
    """
    if not theta1 > theta2:
        raise ValueError(f"need theta1 > theta2, got {theta1} <= {theta2}")
    strong, weak = _picks(spec, [theta1], pool_or_d), _picks(spec, [theta2], pool_or_d)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
        [sigma], [pi], [tau] = strong(pools, rng, True), weak(pools, rng), weak(pools, rng, True)
        after_weak = _values_at(pools, _top_avoiding(pi, tau[:, 0]))
        after_strong = _values_at(pools, _top_avoiding(pi, sigma[:, 0]))
        return [("estimand", after_weak - after_strong)]

    est = _run_chunks(kernel, pool_or_d, n_samples, seed, threads)["estimand"]
    return _report("pref_weaker_competition", [est], {"theta1": theta1, "theta2": theta2})


def _mc_selection_mean(spec: RankingModelSpec, grid: list[float], pool_or_d: PoolOrDistribution,
                       removed0: tuple[int, ...], n_samples: int, seed: int,
                       threads: int | None = None):
    """(means, steps): Monte Carlo E[value of the best survivor] at each
    accuracy of grid and each paired step between neighbours, from one pass
    whose `_Role` draws each ranking once for the whole grid. A step is
    written into the older value array, so it allocates no array."""
    picks = _picks(spec, grid, pool_or_d, removed0)

    def kernel(pools: np.ndarray, rng: np.random.Generator):
        prev = None
        for i, p in enumerate(picks(pools, rng)):
            values = _values_at(pools, p)
            yield ("mean", i), values
            if prev is not None:
                yield ("step", i), np.subtract(values, prev, out=prev)
            prev = values

    est = _run_chunks(kernel, pool_or_d, n_samples, seed, threads)
    return [est["mean", i] for i in range(len(grid))], [est["step", i] for i in range(1, len(grid))]


def check_monotonicity(
    spec: RankingModelSpec,
    theta_grid,
    removed: frozenset[int] | set[int],
    pool: PoolOrDistribution,
    n_samples: int = DEFAULT_CONDITION_SAMPLES,
    seed: int = 0,
    threads: int | None = None,
) -> ConditionReport:
    """Whether the expected top surviving value increases with accuracy.

    Evaluates E[value of best survivor] on the accuracy grid, exactly or by
    Monte Carlo as picked from family, pool kind and n before anything is
    computed (exact-path errors propagate). The steps between consecutive
    grid points are judged by `_report` (so a one-point grid holds); a
    sampled step is paired, the mean of per-trial differences over draws
    the whole grid shares, with the stderr of those differences.
    """
    _workers(threads)  # checked even when the exact path leaves it unused
    grid = _increasing_grid(theta_grid, "theta")
    removed0 = _removed0(removed, pool.n)

    fixed = _exact_pool(pool, spec.value_independent) if pool.n <= _EXACT_MONOTONICITY_N else None
    exact_mode = fixed is not None
    if exact_mode:
        x = fixed.as_array()
        pmfs = [exact_selection_pmf(spec.with_theta(t), fixed, removed) for t in grid]
        means = [EstimateWithError.exact(float(pmf @ x)) for pmf in pmfs]
        steps = [EstimateWithError.exact(b.mean - a.mean) for a, b in zip(means, means[1:])]
    else:
        means, steps = _mc_selection_mean(spec, grid, pool, removed0, n_samples, seed, threads)

    return _report("monotonicity", steps, {
        "theta_grid": tuple(grid),
        "removed": tuple(c + 1 for c in removed0),
        "means": tuple(m.mean for m in means),
        "stderrs": tuple(m.stderr for m in means),
        "exact": exact_mode,
    })
