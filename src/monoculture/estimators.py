"""Coupled Monte Carlo estimation of utilities and condition checks.

Trials are partitioned into chunks of CHUNK_SIZE (8192) rows by one driver,
`_run_chunks`. Chunk c draws from an rng stream keyed by (seed, stream, c):
its pool rows first (fresh from a distribution; a fixed pool draws nothing),
then its rankings. Per-chunk moments (count, mean, centred sum of squares)
are merged in chunk order, so results are bit-identical for a given seed on
any number of workers; `threads=None` runs one per core, at most one per
chunk. Within a trial all quantities share the same draws (common random
numbers), which shrinks the variance of every estimated difference.

No estimator samples a whole ranking. Every two-firm estimand reads only
the top two of each ranking, and the monotonicity check only the best
survivor of a removed set. One rule, `_picks`, chooses each ranking spec's
sampler once per estimator call, before any chunk runs: the same law on
every row means an exact-law draw. Rows share one law on a fixed pool, and
under the distance-based family on any pool; their picks come from
`top_two_pmf` (first survivors: `exact_selection_pmf`), one uniform per
ranking inverted through its cumulative sum. Continuous noise takes that
path only while its quadrature grid has at most CHUNK_SIZE nodes.
Elsewhere, a drawn pool under a value-dependent family or a fixed pool past
that grid, `sample_top_two` and `_first_survivors` take argmax passes over
the perturbed scores that `sample_rankings`, the public API's full-ranking
sampler, sorts, so equal seeds give equal picks; exact-law picks have the
same law but come from different draws.

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
from .models import RankingModelSpec

CHUNK_SIZE = 1 << 13
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
    match `margin > max(...)` on all floats, NaN included, with no call."""
    return margin > DEFAULT_Z_THRESHOLD * se and margin > STRICT_TOL


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one behavioral-condition check.

    verdict follows `_strict`, the rule the solver judges margins by, for
    exact and sampled estimates alike: holds when the estimate exceeds both
    DEFAULT_Z_THRESHOLD times its stderr and STRICT_TOL, fails when its
    negation does, and is inconclusive otherwise.
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


def _verdict(est: EstimateWithError) -> str:
    if _strict(est.mean, est.stderr):
        return VERDICT_HOLDS
    if _strict(-est.mean, est.stderr):
        return VERDICT_FAILS
    return VERDICT_INCONCLUSIVE


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


def _inverse_cdf(weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """size indices into weights, drawn in proportion to them: one uniform per
    row, inverted through their cumulative sum. The clip catches a uniform
    that rounds up onto the total, so no draw leaves the support."""
    cum = np.cumsum(weights)
    idx = np.searchsorted(cum, rng.uniform(0.0, cum[-1], size), side="right")
    return np.minimum(idx, np.flatnonzero(weights)[-1])


def _raise_on_ties(keys: np.ndarray) -> None:
    """Raise TieError naming the best-placed tied pair of the first row with a tie."""
    ranked = np.sort(keys, axis=1)
    tied_rows = np.any(ranked[:, :-1] == ranked[:, 1:], axis=1)
    if np.any(tied_rows):
        row = keys[np.argmax(tied_rows)]
        order = np.argsort(-row, kind="stable")
        raise _tie_errors(row[order][None], order[None])[0]


def _perturbed_keys(spec: RankingModelSpec, pools: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Scores whose descending order is one RUM or Plackett-Luce ranking per row.

    Plackett-Luce uses the max-trick with standard Gumbel draws; RUMs
    perturb values directly, and finite-atom noise raises TieError on the
    first row that ties.
    """
    size, n = pools.shape
    if spec.kind == "plackett_luce":
        return spec.theta * pools + rng.gumbel(0.0, 1.0, (size, n))
    keys = pools + spec.noise.sample(rng, (size, n)) / spec.theta
    if not spec.noise.is_continuous:
        _raise_on_ties(keys)
    return keys


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
    return np.argsort(-_perturbed_keys(spec, pools, rng), axis=1, kind="stable")


def sample_top_two(
    spec: RankingModelSpec, pools: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(top, runner-up) of one RUM or Plackett-Luce ranking per pool row, as
    (size, 2) 0-based candidates: two argmax passes over the perturbed scores
    that `sample_rankings` sorts, so equal seeds give its first two columns.
    Estimators call it only where rows differ in law (`_picks`).
    """
    keys = _perturbed_keys(spec, pools, rng)
    top = np.argmax(keys, axis=1)
    keys[np.arange(len(keys)), top] = -np.inf
    return np.stack((top, np.argmax(keys, axis=1)), axis=1)


def _first_survivors(
    spec: RankingModelSpec, pools: np.ndarray, removed0: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Best-ranked candidate outside removed0 in one RUM or Plackett-Luce
    ranking per pool row: the argmax of the perturbed scores with removed0
    masked out."""
    keys = _perturbed_keys(spec, pools, rng)
    keys[:, removed0] = -np.inf
    return np.argmax(keys, axis=1)


def _picks(spec: RankingModelSpec, pool_or_d: PoolOrDistribution, removed0=None):
    """(pools, rng) -> the (top, runner-up) of one ranking per pool row, as
    (size, 2) 0-based candidates, or with removed0 its best survivor: the
    module's sampler rule. Where `_exact_pool` gives a pool, picks follow
    `top_two_pmf` (`exact_selection_pmf`) on it through `_inverse_cdf`, but
    for continuous noise only while its quadrature grid has at most
    CHUNK_SIZE nodes, past which the pmf's K x n work arrays outgrow a chunk."""
    fixed = _exact_pool(pool_or_d, spec.value_independent)
    if (fixed is not None and spec.kind == "rum" and spec.noise.is_continuous
            and len(_gauss_legendre_grid(spec.theta, fixed.as_array())[0]) > CHUNK_SIZE):
        fixed = None
    if fixed is None:
        if removed0 is None:
            return lambda pools, rng: sample_top_two(spec, pools, rng)
        return lambda pools, rng: _first_survivors(spec, pools, removed0, rng)
    if removed0 is None:
        picks = np.argwhere(~np.eye(fixed.n, dtype=bool))
        weights = top_two_pmf(spec, fixed.as_array())[picks[:, 0], picks[:, 1]]
    else:
        picks = np.setdiff1d(np.arange(fixed.n), removed0)
        weights = exact_selection_pmf(spec, fixed, {c + 1 for c in removed0})[picks]
    return lambda pools, rng: np.take(picks, _inverse_cdf(weights, len(pools), rng), axis=0)


def _values_at(pools: np.ndarray, picks: np.ndarray) -> np.ndarray:
    if pools.strides[0] == 0:  # one fixed pool, the stride-0 view of `_pool_matrix`
        return pools[0][picks]
    return np.take_along_axis(pools, picks[:, None], axis=1)[:, 0]


def _top_avoiding(top_two: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Top candidate of each ranking, or the runner-up when the top is blocked."""
    return np.where(top_two[:, 0] != blocked, top_two[:, 0], top_two[:, 1])


def _cores() -> int:  # the cores this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(threads: int | None) -> int:
    """threads, checked, or for None the cores this process may run on."""
    if threads is None:
        return _cores()
    if not (isinstance(threads, (int, np.integer)) and threads >= 1):
        raise ValueError(f"threads must be None or an int >= 1, got {threads!r}")
    return threads


def _run_chunks(kernel, pool_or_d: PoolOrDistribution, n_samples: int, seed: int,
                threads: int | None, stream: int = 0) -> dict[str, EstimateWithError]:
    """Mean and stderr of each per-trial array of `kernel(pools, rng)`, over
    n_samples trials in chunks of CHUNK_SIZE on up to `threads` workers.
    Chunk c draws its pool rows, then the kernel's draws, from the rng keyed
    by (seed, stream, c). Per-chunk centred moments are merged in chunk
    order (Chan, Golub & LeVeque 1979), which keeps the variance accurate
    where E[v^2] - E[v]^2 would cancel; a stderr needs 2+ trials."""
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    sizes = [min(CHUNK_SIZE, n_samples - start) for start in range(0, n_samples, CHUNK_SIZE)]
    workers = min(_workers(threads), len(sizes))

    def moments(c: int) -> dict[str, tuple[int, float, float]]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, c)))
        pools = _pool_matrix(pool_or_d, rng, sizes[c])
        out = {}
        for name, v in kernel(pools, rng).items():
            mean = float(v.mean())
            d = v - mean
            out[name] = (v.size, mean, float((d * d).sum()))
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            parts = list(executor.map(moments, range(len(sizes))))
    else:
        parts = [moments(c) for c in range(len(sizes))]
    estimates = {}
    for name in parts[0]:
        count, mean, m2 = 0, 0.0, 0.0
        for part in parts:
            n_c, mean_c, m2_c = part[name]
            total = count + n_c
            delta = mean_c - mean
            mean += delta * n_c / total
            m2 += m2_c + delta * delta * count * n_c / total
            count = total
        estimates[name] = EstimateWithError(mean, math.sqrt(m2 / count / count), count)
    return estimates


def mc_utility_trials(
    theta_a: float,
    theta_h: float,
    spec: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    n_samples: int,
    seed: int,
    threads: int | None = None,
) -> dict[str, EstimateWithError]:
    """All six utility entries, named as in ENTRY_NAMES, from shared draws.

    Per trial: one pool (fresh from D, or the fixed pool), one algorithmic
    ranking and two independent human rankings. The coupled differences
    behind the paper's two conditions are `check_pref_first_position`'s and
    `check_pref_weaker_competition`'s estimands.
    """
    picks_a = _picks(spec.with_theta(theta_a), pool_or_d)
    picks_h = _picks(spec.with_theta(theta_h), pool_or_d)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        sigma, pi, tau = picks_a(pools, rng), picks_h(pools, rng), picks_h(pools, rng)
        return dict(zip(ENTRY_NAMES, (_values_at(pools, picks) for picks in (
            sigma[:, 0], pi[:, 0], sigma[:, 1], _top_avoiding(pi, sigma[:, 0]),
            _top_avoiding(sigma, pi[:, 0]), _top_avoiding(tau, pi[:, 0])))))

    return _run_chunks(kernel, pool_or_d, n_samples, seed, threads)


def mc_utility_table(
    theta_a: float,
    theta_h: float,
    spec: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    n_samples: int,
    seed: int,
    threads: int | None = None,
) -> UtilityTable:
    """Monte Carlo counterpart of the exact utility table."""
    est = mc_utility_trials(theta_a, theta_h, spec, pool_or_d, n_samples, seed, threads)
    return UtilityTable(
        **{name: est[name].mean for name in ENTRY_NAMES},
        **{f"stderr_{name}": est[name].stderr for name in ENTRY_NAMES},
        n_samples=n_samples,
    )


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
    picks = _picks(spec.with_theta(theta), pool_or_d)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        pi = picks(pools, rng)
        sigma = picks(pools, rng)
        gap = _values_at(pools, pi[:, 0]) - _values_at(pools, pi[:, 1])
        hit = (pi[:, 0] != sigma[:, 0]).astype(float)
        return {"estimand": gap * hit}

    est = _run_chunks(kernel, pool_or_d, n_samples, seed, threads)["estimand"]
    return ConditionReport(
        condition="pref_first_position",
        estimate=est,
        verdict=_verdict(est),
        detail={"theta": theta},
    )


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
    picks_strong = _picks(spec.with_theta(theta1), pool_or_d)
    picks_weak = _picks(spec.with_theta(theta2), pool_or_d)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        sigma = picks_strong(pools, rng)
        pi = picks_weak(pools, rng)
        tau = picks_weak(pools, rng)
        after_weak = _values_at(pools, _top_avoiding(pi, tau[:, 0]))
        after_strong = _values_at(pools, _top_avoiding(pi, sigma[:, 0]))
        return {"estimand": after_weak - after_strong}

    est = _run_chunks(kernel, pool_or_d, n_samples, seed, threads)["estimand"]
    return ConditionReport(
        condition="pref_weaker_competition",
        estimate=est,
        verdict=_verdict(est),
        detail={"theta1": theta1, "theta2": theta2},
    )


def _mc_selection_mean(
    spec: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    removed0: tuple[int, ...],
    n_samples: int,
    seed: int,
    stream: int,
    threads: int | None = None,
) -> EstimateWithError:
    picks = _picks(spec, pool_or_d, removed0)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {"estimand": _values_at(pools, picks(pools, rng))}

    return _run_chunks(kernel, pool_or_d, n_samples, seed, threads, stream)["estimand"]


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
    computed (exact-path errors propagate). Each consecutive difference is
    judged by `_verdict`: the check fails if any fails, holds if all hold (so
    a one-point grid holds), and is inconclusive otherwise. The reported
    estimate is the first difference whose verdict is the report's.
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
    else:
        means = [
            _mc_selection_mean(
                spec.with_theta(t), pool, removed0, n_samples, seed, stream=i, threads=threads
            )
            for i, t in enumerate(grid)
        ]

    diffs = [
        EstimateWithError(b.mean - a.mean, math.hypot(a.stderr, b.stderr),
                          max(a.n_samples, b.n_samples))
        for a, b in zip(means, means[1:])
    ]
    verdicts = [_verdict(d) for d in diffs]
    # the worst verdict of any difference; with no differences, holds
    verdict = min(verdicts, key=(VERDICT_FAILS, VERDICT_INCONCLUSIVE, VERDICT_HOLDS).index,
                  default=VERDICT_HOLDS)
    return ConditionReport(
        condition="monotonicity",
        estimate=next((d for d, v in zip(diffs, verdicts) if v == verdict),
                      EstimateWithError.exact(0.0)),  # no difference, no trial
        verdict=verdict,
        detail={
            "theta_grid": tuple(grid),
            "removed": tuple(c + 1 for c in removed0),
            "means": tuple(m.mean for m in means),
            "stderrs": tuple(m.stderr for m in means),
            "exact": exact_mode,
        },
    )
