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
survivor of a removed set, so those paths draw just (top, runner-up) with
`sample_top_two` and the best survivor with `_first_survivors`. The
distance-based family draws pairs and first survivors from their exact
laws, one uniform per row inverted through the cumulative closed-form
top-two pmf or the repeated-insertion first-survivor pmf. RUM and
Plackett-Luce take argmax passes over the same perturbed scores that
`sample_rankings`, the public API's full-ranking sampler, sorts. Under equal
seeds the RUM and Plackett-Luce picks equal the matching entries of
`sample_rankings`; the distance-based picks have the same law but come from
different draws.

Finite-atom noise raises TieError where two candidates can tie: on a fixed
pool by the exact engine's rule, a tie in any ranking, whether or not one is
drawn; on a drawn pool when a sampled row ties.
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
    _mallows_first_survivor_pmf,
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
    NaN) is a tie when neither it nor its negation is strict."""
    return margin > max(DEFAULT_Z_THRESHOLD * se, STRICT_TOL)


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
    return np.minimum(idx, cum.size - 1)


def _mallows_top_two(spec: RankingModelSpec, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(top, runner-up) pairs as (size, 2) 0-based candidates, drawn from the
    closed-form pmf of `top_two_pmf`."""
    first, second = np.nonzero(~np.eye(n, dtype=bool))
    idx = _inverse_cdf(top_two_pmf(spec, range(n))[first, second], size, rng)
    return np.stack((first[idx], second[idx]), axis=1)


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
    perturb values directly; finite-atom noise follows the module's tie rule:
    rows that are one fixed pool, the stride-0 view `_pool_matrix` makes,
    are judged by `top_two_pmf` before the draw, other rows after it.
    """
    size, n = pools.shape
    if spec.kind == "plackett_luce":
        return spec.theta * pools + rng.gumbel(0.0, 1.0, (size, n))
    fixed = pools.strides[0] == 0
    if fixed and not spec.noise.is_continuous:
        top_two_pmf(spec, pools[0])
    keys = pools + spec.noise.sample(rng, (size, n)) / spec.theta
    if not (fixed or spec.noise.is_continuous):
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
    """(top, runner-up) of one ranking per pool row, as (size, 2) 0-based candidates.

    Same law as the first two columns of `sample_rankings`. For RUM and
    Plackett-Luce the draws are the same too, so equal seeds give equal picks.
    """
    size, n = pools.shape
    if spec.kind == "mallows":
        return _mallows_top_two(spec, n, size, rng)
    keys = _perturbed_keys(spec, pools, rng)
    top = np.argmax(keys, axis=1)
    keys[np.arange(size), top] = -np.inf
    return np.stack((top, np.argmax(keys, axis=1)), axis=1)


def _first_survivors(
    spec: RankingModelSpec, pools: np.ndarray, removed0: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Best-ranked candidate outside removed0 in one ranking per pool row.

    The distance-based family draws it from its exact law,
    `_mallows_first_survivor_pmf`, restricted to the survivors; RUM and
    Plackett-Luce take the argmax of the perturbed scores with removed0
    masked out.
    """
    if spec.kind == "mallows":
        size, n = pools.shape
        survivors = np.setdiff1d(np.arange(n), removed0)
        pmf = _mallows_first_survivor_pmf(spec.phi, n, removed0)
        return survivors[_inverse_cdf(pmf[survivors], size, rng)]
    keys = _perturbed_keys(spec, pools, rng)
    keys[:, removed0] = -np.inf
    return np.argmax(keys, axis=1)


def _values_at(pools: np.ndarray, picks: np.ndarray) -> np.ndarray:
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
    """All six utility entries plus two paired differences, from shared draws.

    Per trial: one pool (fresh from D, or the fixed pool), one algorithmic
    ranking and two independent human rankings. The paired differences
    d_ah_aa and d_hh_ah are computed trial-by-trial before averaging, so
    their stderr reflects the common-random-number coupling.
    """
    spec_a = spec.with_theta(theta_a)
    spec_h = spec.with_theta(theta_h)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        sigma = sample_top_two(spec_a, pools, rng)
        pi = sample_top_two(spec_h, pools, rng)
        tau = sample_top_two(spec_h, pools, rng)
        u_first_a = _values_at(pools, sigma[:, 0])
        u_first_h = _values_at(pools, pi[:, 0])
        u_aa = _values_at(pools, sigma[:, 1])
        u_ah = _values_at(pools, _top_avoiding(pi, sigma[:, 0]))
        u_ha = _values_at(pools, _top_avoiding(sigma, pi[:, 0]))
        u_hh = _values_at(pools, _top_avoiding(tau, pi[:, 0]))
        return {
            "u_first_a": u_first_a,
            "u_first_h": u_first_h,
            "u_aa": u_aa,
            "u_ah": u_ah,
            "u_ha": u_ha,
            "u_hh": u_hh,
            "d_ah_aa": u_ah - u_aa,
            "d_hh_ah": u_hh - u_ah,
        }

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
    spec_t = spec.with_theta(theta)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        pi = sample_top_two(spec_t, pools, rng)
        sigma = sample_top_two(spec_t, pools, rng)
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
    spec_strong = spec.with_theta(theta1)
    spec_weak = spec.with_theta(theta2)

    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        sigma = sample_top_two(spec_strong, pools, rng)
        pi = sample_top_two(spec_weak, pools, rng)
        tau = sample_top_two(spec_weak, pools, rng)
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
    def kernel(pools: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        picks = _first_survivors(spec, pools, removed0, rng)
        return {"estimand": _values_at(pools, picks)}

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
                      EstimateWithError(0.0, 0.0, means[0].n_samples)),
        verdict=verdict,
        detail={
            "theta_grid": tuple(grid),
            "removed": tuple(c + 1 for c in removed0),
            "means": tuple(m.mean for m in means),
            "stderrs": tuple(m.stderr for m in means),
            "exact": exact_mode,
        },
    )
