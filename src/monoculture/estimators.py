"""Coupled Monte Carlo estimation of utilities and condition checks.

Trials are partitioned into fixed-size chunks; chunk c uses an rng stream
derived from (seed, c), and per-chunk moments (count, mean, centred sum of
squares) are merged in chunk order, so results are bit-identical for a
given seed no matter how many workers run the chunks. Within a trial all
quantities share the same draws (common random numbers), which shrinks the
variance of every estimated difference.

Every two-firm estimand reads only the top two of each ranking, so those
paths draw just (top, runner-up) with `sample_top_two`: the distance-based
family samples the pair from its closed-form n x n pmf, and RUM and
Plackett-Luce take two argmax passes over the same perturbed scores that
`sample_rankings`, the full-ranking sampler, sorts. Under equal seeds the
RUM and Plackett-Luce picks equal the first two columns of
`sample_rankings`; the distance-based pairs have the same law but come from
different draws.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import CandidateDistribution, CandidatePool, PoolOrDistribution
from .exact import UtilityTable, exact_selection_pmf
from .models import RankingModelSpec, TieError, UnsupportedModelError

CHUNK_SIZE = 1 << 15
DEFAULT_Z_THRESHOLD = 3.0
DEFAULT_CONDITION_SAMPLES = 1_000_000
DEFAULT_SWEEP_SAMPLES = 100_000

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
        if self.stderr > 0:
            return self.mean / self.stderr
        if self.mean == 0:
            return 0.0
        return math.copysign(math.inf, self.mean)

    @staticmethod
    def exact(mean: float) -> "EstimateWithError":
        return EstimateWithError(float(mean), 0.0, 0)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one behavioral-condition check.

    verdict follows the z rule: holds iff z > z_threshold, fails iff
    z < -z_threshold, inconclusive otherwise. Exact computations carry
    stderr 0 and an infinite z of the appropriate sign.
    """

    condition: str
    estimate: EstimateWithError
    verdict: str
    z_threshold: float = DEFAULT_Z_THRESHOLD
    detail: dict = field(default_factory=dict)


def _verdict(z: float, z_threshold: float) -> str:
    if z > z_threshold:
        return VERDICT_HOLDS
    if z < -z_threshold:
        return VERDICT_FAILS
    return VERDICT_INCONCLUSIVE


def _chunk_rng(seed: int, chunk_index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, chunk_index)))


def _chunk_sizes(n_samples: int) -> list[int]:
    full, rest = divmod(n_samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _pool_matrix(pool_or_d: PoolOrDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    if isinstance(pool_or_d, CandidatePool):
        return np.broadcast_to(pool_or_d.as_array(), (size, pool_or_d.n))
    if isinstance(pool_or_d, CandidateDistribution):
        return pool_or_d.sample_matrix(rng, size)
    raise TypeError(f"expected pool or distribution, got {type(pool_or_d)!r}")


def _pool_n(pool_or_d: PoolOrDistribution) -> int:
    return pool_or_d.n


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


def _mallows_top_two(phi: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(top, runner-up) pairs as (size, 2) 0-based candidates, one uniform per row.

    The top is a with probability q^a / Z_n (q = 1/phi). The rest of the
    ranking is again distance-based with the same phi (the multistage
    decomposition of Fligner & Verducci), so the runner-up is b with
    probability q^r / Z_{n-1}, where r is b's rank once a is removed.
    """
    q = 1.0 / phi
    first, second = np.nonzero(~np.eye(n, dtype=bool))
    cum = np.cumsum(q ** (first + second - (second > first)))
    idx = np.searchsorted(cum, rng.uniform(0.0, cum[-1], size), side="right")
    idx = np.minimum(idx, cum.size - 1)
    return np.stack((first[idx], second[idx]), axis=1)


def _raise_on_ties(keys: np.ndarray) -> None:
    """Raise TieError naming the first tied pair of the first row with a tie."""
    ranked = np.sort(keys, axis=1)
    tied_rows = np.any(ranked[:, :-1] == ranked[:, 1:], axis=1)
    if not np.any(tied_rows):
        return
    row = keys[np.argmax(tied_rows)]
    order = np.argsort(-row, kind="stable")
    ranked = row[order]
    col = np.argmax(ranked[:-1] == ranked[1:])
    a, b = sorted((int(order[col]) + 1, int(order[col + 1]) + 1))
    raise TieError(f"perturbed scores tie candidates {a} and {b}")


def _perturbed_keys(spec: RankingModelSpec, pools: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Scores whose descending order is one RUM or Plackett-Luce ranking per row.

    Plackett-Luce uses the max-trick with standard Gumbel draws; RUMs
    perturb values directly. Continuous perturbations are tie-free with
    probability one; discrete ones raise TieError on a tie anywhere in a
    ranking, as the exact engine does.
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
    """(top, runner-up) of one ranking per pool row, as (size, 2) 0-based candidates.

    Same law as the first two columns of `sample_rankings`. For RUM and
    Plackett-Luce the draws are the same too, so equal seeds give equal picks.
    """
    size, n = pools.shape
    if spec.kind == "mallows":
        return _mallows_top_two(spec.phi, n, size, rng)
    keys = _perturbed_keys(spec, pools, rng)
    top = np.argmax(keys, axis=1)
    keys[np.arange(size), top] = -np.inf
    return np.stack((top, np.argmax(keys, axis=1)), axis=1)


def _first_survivors(
    spec: RankingModelSpec, pools: np.ndarray, removed0: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Best-ranked candidate outside removed0 in one ranking per pool row."""
    if spec.kind == "mallows":
        orders = sample_rankings(spec, pools, rng)
        first = np.argmax(~np.isin(orders, removed0), axis=1)
        return np.take_along_axis(orders, first[:, None], axis=1)[:, 0]
    keys = _perturbed_keys(spec, pools, rng)
    keys[:, removed0] = -np.inf
    return np.argmax(keys, axis=1)


def _values_at(pools: np.ndarray, picks: np.ndarray) -> np.ndarray:
    return np.take_along_axis(pools, picks[:, None], axis=1)[:, 0]


def _top_avoiding(top_two: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Top candidate of each ranking, or the runner-up when the top is blocked."""
    return np.where(top_two[:, 0] != blocked, top_two[:, 0], top_two[:, 1])


class _MomentAccumulator:
    """Per-chunk (count, mean, centred sum of squares), merged in chunk order.

    Centred moments merged pairwise (Chan, Golub & LeVeque 1979) keep the
    variance accurate when values sit far from zero, where the raw form
    E[v^2] - E[v]^2 cancels to nothing.
    """

    def __init__(self, names: tuple[str, ...], n_chunks: int):
        self.names = names
        self._partials: list[dict[str, tuple[int, float, float]] | None] = [None] * n_chunks

    def put(self, chunk_index: int, values: dict[str, np.ndarray]) -> None:
        entry = {}
        for name in self.names:
            v = values[name]
            mean = float(v.mean())
            d = v - mean
            entry[name] = (v.size, mean, float((d * d).sum()))
        self._partials[chunk_index] = entry

    def finalize(self) -> dict[str, EstimateWithError]:
        out = {}
        for name in self.names:
            count, mean, m2 = 0, 0.0, 0.0
            for entry in self._partials:
                n_c, mean_c, m2_c = entry[name]
                total = count + n_c
                delta = mean_c - mean
                mean += delta * n_c / total
                m2 += m2_c + delta * delta * count * n_c / total
                count = total
            var = m2 / count
            stderr = math.sqrt(var / count) if count > 1 else 0.0
            out[name] = EstimateWithError(mean, stderr, count)
        return out


def _run_chunks(kernel, n_samples: int, names: tuple[str, ...], threads: int = 1):
    """Run `kernel(chunk_index, start, size)` over all chunks and reduce."""
    sizes = _chunk_sizes(n_samples)
    acc = _MomentAccumulator(names, len(sizes))

    def job(args) -> None:
        index, start, size = args
        acc.put(index, kernel(index, start, size))

    tasks = []
    start = 0
    for index, size in enumerate(sizes):
        tasks.append((index, start, size))
        start += size
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(job, tasks))
    else:
        for t in tasks:
            job(t)
    return acc.finalize()


_TABLE_NAMES = (
    "u_first_a",
    "u_first_h",
    "u_aa",
    "u_ah",
    "u_ha",
    "u_hh",
    "d_ah_aa",
    "d_hh_ah",
)


def mc_utility_trials(
    theta_a: float,
    theta_h: float,
    spec: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> dict[str, EstimateWithError]:
    """All six utility entries plus two paired differences, from shared draws.

    Per trial: one pool (fresh from D, or the fixed pool), one algorithmic
    ranking and two independent human rankings. The paired differences
    d_ah_aa and d_hh_ah are computed trial-by-trial before averaging, so
    their stderr reflects the common-random-number coupling.
    """
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    spec_a = spec.with_theta(theta_a)
    spec_h = spec.with_theta(theta_h)

    def kernel(chunk_index: int, start: int, size: int) -> dict[str, np.ndarray]:
        rng = _chunk_rng(seed, chunk_index)
        pools = _pool_matrix(pool_or_d, rng, size)
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

    return _run_chunks(kernel, n_samples, _TABLE_NAMES, threads)


def mc_utility_table(
    theta_a: float,
    theta_h: float,
    spec: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> UtilityTable:
    """Monte Carlo counterpart of the exact utility table."""
    est = mc_utility_trials(theta_a, theta_h, spec, pool_or_d, n_samples, seed, threads)
    return UtilityTable(
        u_first_a=est["u_first_a"].mean,
        u_first_h=est["u_first_h"].mean,
        u_aa=est["u_aa"].mean,
        u_ah=est["u_ah"].mean,
        u_ha=est["u_ha"].mean,
        u_hh=est["u_hh"].mean,
        stderr_u_first_a=est["u_first_a"].stderr,
        stderr_u_first_h=est["u_first_h"].stderr,
        stderr_u_aa=est["u_aa"].stderr,
        stderr_u_ah=est["u_ah"].stderr,
        stderr_u_ha=est["u_ha"].stderr,
        stderr_u_hh=est["u_hh"].stderr,
        n_samples=n_samples,
    )


def check_pref_first_position(
    spec: RankingModelSpec,
    theta: float,
    pool_or_d: PoolOrDistribution,
    n_samples: int = DEFAULT_CONDITION_SAMPLES,
    seed: int = 0,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    threads: int = 1,
) -> ConditionReport:
    """Estimate E[(top gap of one ranking) * 1{tops of two rankings differ}].

    Two equal-accuracy rankings are drawn per trial; the estimand is the
    unconditional product form whose sign matches the conditional
    first-position preference, and whose value equals the second mover's
    utility loss or gain from sharing the first mover's ranking.
    """
    spec_t = spec.with_theta(theta)

    def kernel(chunk_index: int, start: int, size: int) -> dict[str, np.ndarray]:
        rng = _chunk_rng(seed, chunk_index)
        pools = _pool_matrix(pool_or_d, rng, size)
        pi = sample_top_two(spec_t, pools, rng)
        sigma = sample_top_two(spec_t, pools, rng)
        gap = _values_at(pools, pi[:, 0]) - _values_at(pools, pi[:, 1])
        hit = (pi[:, 0] != sigma[:, 0]).astype(float)
        return {"estimand": gap * hit}

    est = _run_chunks(kernel, n_samples, ("estimand",), threads)["estimand"]
    return ConditionReport(
        condition="pref_first_position",
        estimate=est,
        verdict=_verdict(est.z_score_vs_zero, z_threshold),
        z_threshold=z_threshold,
        detail={"theta": theta},
    )


def check_pref_weaker_competition(
    spec: RankingModelSpec,
    theta1: float,
    theta2: float,
    pool_or_d: PoolOrDistribution,
    n_samples: int = DEFAULT_CONDITION_SAMPLES,
    seed: int = 0,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    threads: int = 1,
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

    def kernel(chunk_index: int, start: int, size: int) -> dict[str, np.ndarray]:
        rng = _chunk_rng(seed, chunk_index)
        pools = _pool_matrix(pool_or_d, rng, size)
        sigma = sample_top_two(spec_strong, pools, rng)
        pi = sample_top_two(spec_weak, pools, rng)
        tau = sample_top_two(spec_weak, pools, rng)
        after_weak = _values_at(pools, _top_avoiding(pi, tau[:, 0]))
        after_strong = _values_at(pools, _top_avoiding(pi, sigma[:, 0]))
        return {"estimand": after_weak - after_strong}

    est = _run_chunks(kernel, n_samples, ("estimand",), threads)["estimand"]
    return ConditionReport(
        condition="pref_weaker_competition",
        estimate=est,
        verdict=_verdict(est.z_score_vs_zero, z_threshold),
        z_threshold=z_threshold,
        detail={"theta1": theta1, "theta2": theta2},
    )


def _mc_selection_mean(
    spec: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    removed: frozenset[int],
    n_samples: int,
    seed: int,
    stream: int,
    threads: int = 1,
) -> EstimateWithError:
    removed0 = np.array(sorted(c - 1 for c in removed), dtype=np.int64)

    def kernel(chunk_index: int, start: int, size: int) -> dict[str, np.ndarray]:
        rng = _chunk_rng(seed, chunk_index, stream)
        pools = _pool_matrix(pool_or_d, rng, size)
        picks = _first_survivors(spec, pools, removed0, rng)
        return {"estimand": _values_at(pools, picks)}

    return _run_chunks(kernel, n_samples, ("estimand",), threads)["estimand"]


def check_monotonicity(
    spec: RankingModelSpec,
    theta_grid,
    removed: frozenset[int] | set[int],
    pool: PoolOrDistribution,
    n_samples: int = DEFAULT_CONDITION_SAMPLES,
    seed: int = 0,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
    threads: int = 1,
) -> ConditionReport:
    """Whether the expected top surviving value increases with accuracy.

    Evaluates E[value of best survivor] on the accuracy grid, exactly when
    the model admits enumeration and by Monte Carlo otherwise, and examines
    consecutive differences. The reported estimate is the worst difference
    by z-score; a one-point grid holds trivially.
    """
    grid = [float(t) for t in theta_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"theta grid must be increasing, got {grid}")
    removed = frozenset(int(c) for c in removed)
    n = _pool_n(pool)
    if len(removed) >= n:
        raise ValueError("cannot remove every candidate")

    means: list[EstimateWithError] = []
    exact_mode = True
    try:
        if isinstance(pool, CandidateDistribution) and pool.kind != "fixed":
            if not spec.value_independent:
                raise UnsupportedModelError("value-dependent model over a pool distribution")
            fixed = pool.mean_pool()
        elif isinstance(pool, CandidateDistribution):
            fixed = CandidatePool(pool.fixed_values)
        else:
            fixed = pool
        x = fixed.as_array()
        for t in grid:
            pmf = exact_selection_pmf(spec.with_theta(t), fixed, removed)
            means.append(EstimateWithError.exact(pmf.expectation(x)))
    except UnsupportedModelError:
        exact_mode = False
        means = [
            _mc_selection_mean(
                spec.with_theta(t), pool, removed, n_samples, seed, stream=i, threads=threads
            )
            for i, t in enumerate(grid)
        ]

    detail = {
        "theta_grid": tuple(grid),
        "removed": tuple(sorted(removed)),
        "means": tuple(m.mean for m in means),
        "stderrs": tuple(m.stderr for m in means),
        "exact": exact_mode,
    }
    if len(grid) == 1:
        report_estimate = EstimateWithError.exact(0.0) if exact_mode else means[0]
        return ConditionReport(
            condition="monotonicity",
            estimate=EstimateWithError(0.0, 0.0, report_estimate.n_samples),
            verdict=VERDICT_HOLDS,
            z_threshold=z_threshold,
            detail=detail,
        )

    worst: EstimateWithError | None = None
    for a, b in zip(means, means[1:]):
        diff = b.mean - a.mean
        stderr = math.hypot(a.stderr, b.stderr)
        est = EstimateWithError(diff, stderr, max(a.n_samples, b.n_samples))
        if worst is None or est.z_score_vs_zero < worst.z_score_vs_zero:
            worst = est
    return ConditionReport(
        condition="monotonicity",
        estimate=worst,
        verdict=_verdict(worst.z_score_vs_zero, z_threshold),
        z_threshold=z_threshold,
        detail=detail,
    )
