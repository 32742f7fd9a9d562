"""Monte Carlo estimators: coupling, chunked reproducibility, calibration,
and the behavioral-condition checks."""

import math

import numpy as np
import pytest

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    EstimateWithError,
    NoiseSpec,
    RankingModelSpec,
    TieError,
    check_monotonicity,
    check_pref_first_position,
    check_pref_weaker_competition,
    exact_utility_table,
    mallows_perm_probs,
    mc_utility_table,
    mc_utility_trials,
    sample_rankings,
)
from monoculture.estimators import (
    CHUNK_SIZE,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    _first_survivors,
    sample_top_two,
)
from monoculture.permspace import perm_space

POOL3 = CandidatePool((1.0, 0.5, 0.0))
POOL4 = CandidatePool((1.0, 0.7, 0.3, 0.0))
POOL7 = CandidatePool((1.0, 0.85, 0.6, 0.5, 0.3, 0.1, 0.0))
MALLOWS = RankingModelSpec.mallows(2.0)
GAUSSIAN = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
LAPLACIAN = RankingModelSpec.rum(NoiseSpec.laplacian(), 0.7)
SOFTMAX = RankingModelSpec.plackett_luce(1.3)
UNIFORM15 = CandidateDistribution.uniform_centered_zero(1.7320508, 15)


# ---------------------------------------------------------------- estimates


def test_estimate_z_score_rules():
    assert EstimateWithError(0.02, 0.01, 100).z_score_vs_zero == pytest.approx(2.0)
    assert EstimateWithError(-0.03, 0.01, 100).z_score_vs_zero == pytest.approx(-3.0)
    exact = EstimateWithError.exact(0.5)
    assert exact.stderr == 0.0
    assert exact.z_score_vs_zero == math.inf
    assert EstimateWithError.exact(-0.5).z_score_vs_zero == -math.inf
    assert EstimateWithError.exact(0.0).z_score_vs_zero == 0.0
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)


def test_trials_require_at_least_one_sample():
    with pytest.raises(ValueError):
        mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, 0, seed=1)


# ---------------------------------------------------------------- sampling


def test_vectorized_ranking_sampler_matches_permutation_probabilities():
    spec = MALLOWS.with_theta(1.0)  # phi = 2
    size = 300_000
    pools = np.broadcast_to(POOL3.as_array(), (size, 3))
    rng = np.random.default_rng(7)
    orders = sample_rankings(spec, pools, rng)
    space = perm_space(3)
    want = mallows_perm_probs(2.0, 3)
    keys = {tuple(int(c) for c in row): p for row, p in zip(space.perms, want)}
    tv = 0.0
    rows, counts = np.unique(orders, axis=0, return_counts=True)
    for row, cnt in zip(rows, counts):
        tv += abs(cnt / size - keys[tuple(int(c) for c in row)])
    assert tv / 2 < 0.005


@pytest.mark.parametrize("n", [3, 6])
def test_mallows_top_two_matches_the_pair_marginal(n):
    spec = MALLOWS.with_theta(1.0)  # phi = 2
    size = 1_000_000
    pools = np.zeros((size, n))
    pairs = sample_top_two(spec, pools, np.random.default_rng(11))
    perms = perm_space(n).perms
    want = np.zeros((n, n))
    np.add.at(want, (perms[:, 0], perms[:, 1]), mallows_perm_probs(2.0, n))
    got = np.zeros((n, n))
    np.add.at(got, (pairs[:, 0], pairs[:, 1]), 1.0 / size)
    assert np.all(np.diag(got) == 0)
    assert np.abs(got - want).sum() / 2 < 0.005


def _drawn_pools(size):
    return UNIFORM15.sample_matrix(np.random.default_rng(23), size)


@pytest.mark.parametrize("spec", [GAUSSIAN, LAPLACIAN, SOFTMAX], ids=lambda s: s.kind)
@pytest.mark.parametrize("drawn", [False, True], ids=["fixed7", "drawn15"])
def test_top_two_picks_equal_the_full_ranking_prefix(spec, drawn):
    size = 20_000
    pools = _drawn_pools(size) if drawn else np.broadcast_to(POOL7.as_array(), (size, 7))
    pairs = sample_top_two(spec, pools, np.random.default_rng(4))
    orders = sample_rankings(spec, pools, np.random.default_rng(4))
    assert np.array_equal(pairs, orders[:, :2])


@pytest.mark.parametrize("spec", [GAUSSIAN, SOFTMAX], ids=lambda s: s.kind)
def test_masked_argmax_picks_the_first_survivor_of_the_full_ranking(spec):
    size = 20_000
    pools = _drawn_pools(size)
    removed0 = np.array([0, 2, 3, 9])
    picks = _first_survivors(spec, pools, removed0, np.random.default_rng(6))
    orders = sample_rankings(spec, pools, np.random.default_rng(6))
    first_alive = np.argmax(~np.isin(orders, removed0), axis=1)
    assert np.array_equal(picks, orders[np.arange(size), first_alive])


def test_vectorized_tie_detection_names_the_pair():
    atoms = NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5)))
    spec = RankingModelSpec.rum(atoms, 1.0)
    pools = np.broadcast_to(np.array([1.0, 0.0]), (500, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(TieError) as err:
        sample_rankings(spec, pools, rng)
    assert "1" in str(err.value) and "2" in str(err.value)


def test_tie_anywhere_in_a_ranking_raises_through_the_table_trials():
    # the tie sits between the bottom two candidates, below the top two
    atoms = NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5)))
    spec = RankingModelSpec.rum(atoms, 1.0)
    pool = CandidatePool((10.0, 5.0, 1.0, 0.0))
    with pytest.raises(TieError) as err:
        mc_utility_trials(1.0, 1.0, spec, pool, 1_000, seed=0)
    assert "candidates 3 and 4" in str(err.value)


# ---------------------------------------------------------------- accuracy


def test_mc_table_agrees_with_exact_within_four_stderr():
    theta_a, theta_h = 1.5, 1.0
    exact = exact_utility_table(theta_a, theta_h, MALLOWS, POOL4)
    mc = mc_utility_table(theta_a, theta_h, MALLOWS, POOL4, 400_000, seed=314)
    for name in ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh"):
        gap = abs(mc.entry(name) - exact.entry(name))
        assert gap < 4 * mc.stderr(name), name
        assert mc.stderr(name) > 0
    assert mc.n_samples == 400_000


def test_mc_respects_the_softmax_null():
    est = mc_utility_trials(1.0, 1.0, RankingModelSpec.plackett_luce(1.0),
                            POOL3, 400_000, seed=2718)
    d = est["d_ah_aa"]
    assert abs(d.mean) < 4 * d.stderr


def test_paired_difference_beats_unpaired_error():
    est = mc_utility_trials(1.5, 1.5, MALLOWS, POOL4, 200_000, seed=99)
    unpaired = math.hypot(est["u_ah"].stderr, est["u_aa"].stderr)
    assert est["d_ah_aa"].stderr < unpaired


def test_mc_over_pool_distribution_matches_order_statistic_means():
    d = CandidateDistribution.uniform(0.0, 1.0, 4)
    exact = exact_utility_table(1.5, 1.0, MALLOWS, d)
    mc = mc_utility_table(1.5, 1.0, MALLOWS, d, 400_000, seed=55)
    for name in ("u_first_a", "u_hh"):
        assert abs(mc.entry(name) - exact.entry(name)) < 4 * mc.stderr(name)


# ---------------------------------------------------------------- reproducibility


def test_same_seed_same_numbers_different_seed_different():
    a = mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, 50_000, seed=5)
    b = mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, 50_000, seed=5)
    c = mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, 50_000, seed=6)
    assert a["u_ah"].mean == b["u_ah"].mean
    assert a["u_ah"].stderr == b["u_ah"].stderr
    assert a["u_ah"].mean != c["u_ah"].mean


_THREAD_CASES = [
    pytest.param(n, family, pool_or_d, id=f"{label}{n}")
    for label, family, pool_or_d in (
        ("", MALLOWS, POOL3),
        ("plackett_luce-", RankingModelSpec.plackett_luce(1.0), POOL3),
        ("gaussian_drawn-", GAUSSIAN, UNIFORM15),
    )
    for n in (CHUNK_SIZE, CHUNK_SIZE + 7, 3 * CHUNK_SIZE + 11)
]


@pytest.mark.parametrize("n_samples, family, pool_or_d", _THREAD_CASES)
def test_thread_count_never_changes_the_result(n_samples, family, pool_or_d):
    # per-chunk generators are seeded by chunk index and reduced in fixed
    # order, so the thread count must be invisible in the output bits
    single = mc_utility_trials(1.5, 1.0, family, pool_or_d, n_samples, seed=17, threads=1)
    multi = mc_utility_trials(1.5, 1.0, family, pool_or_d, n_samples, seed=17, threads=4)
    for name in single:
        assert single[name].mean == multi[name].mean
        assert single[name].stderr == multi[name].stderr


def test_sample_count_is_chunk_partition_independent_of_threads():
    est = mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, CHUNK_SIZE + 7, seed=17, threads=2)
    assert est["u_aa"].n_samples == CHUNK_SIZE + 7


def test_stderr_survives_a_large_pool_offset():
    # the raw E[v^2] - E[v]^2 form cancels to 0 at this offset; the draws
    # ignore pool values, so the shifted stderr must match the unshifted one
    values = POOL4.as_array()
    shifted = CandidatePool(tuple(1e8 + values))
    near = mc_utility_table(1.5, 1.0, MALLOWS, POOL4, 100_000, seed=3)
    far = mc_utility_table(1.5, 1.0, MALLOWS, shifted, 100_000, seed=3)
    for name in ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh"):
        assert far.stderr(name) > 0, name
        assert far.stderr(name) == pytest.approx(near.stderr(name), rel=1e-6), name


# ---------------------------------------------------------------- calibration


def test_interval_calibration_on_the_exact_table():
    # 99.9% normal intervals from 1000 independent runs should cover the
    # exact value at least 99% of the time, entry by entry
    theta_a, theta_h = 1.5, 1.0
    exact = exact_utility_table(theta_a, theta_h, MALLOWS, POOL3)
    z999 = 3.2905267314919255  # two-sided 99.9%
    runs = 1000
    n = 10_000
    names = ("u_first_a", "u_first_h", "u_aa", "u_ah", "u_ha", "u_hh")
    covered = dict.fromkeys(names, 0)
    for r in range(runs):
        mc = mc_utility_table(theta_a, theta_h, MALLOWS, POOL3, n, seed=10_000 + r)
        for name in names:
            half = z999 * mc.stderr(name)
            if abs(mc.entry(name) - exact.entry(name)) <= half:
                covered[name] += 1
    for name in names:
        assert covered[name] >= 990, (name, covered[name])


# ---------------------------------------------------------------- conditions


def test_first_position_preference_holds_for_the_distance_family():
    report = check_pref_first_position(MALLOWS, 1.0, POOL3, n_samples=200_000, seed=8)
    assert report.condition == "pref_first_position"
    assert report.verdict == VERDICT_HOLDS
    assert report.estimate.z_score_vs_zero > 3
    assert report.detail["theta"] == 1.0


def test_first_position_preference_is_inconclusive_for_softmax():
    report = check_pref_first_position(
        RankingModelSpec.plackett_luce(1.0), 1.0, POOL3, n_samples=200_000, seed=8
    )
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_weaker_competition_preference_holds_for_the_distance_family():
    report = check_pref_weaker_competition(
        MALLOWS, 2.0, 1.0, POOL3, n_samples=200_000, seed=8
    )
    assert report.verdict == VERDICT_HOLDS
    assert report.detail == {"theta1": 2.0, "theta2": 1.0}


def test_weaker_competition_requires_a_strictly_stronger_rival():
    with pytest.raises(ValueError):
        check_pref_weaker_competition(MALLOWS, 1.0, 1.0, POOL3, n_samples=100)


def test_condition_checks_hold_for_gaussian_scores():
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    first = check_pref_first_position(spec, 1.0, POOL3, n_samples=400_000, seed=31)
    weaker = check_pref_weaker_competition(spec, 1.5, 1.0, POOL3, n_samples=400_000, seed=31)
    assert first.verdict == VERDICT_HOLDS
    assert weaker.verdict == VERDICT_HOLDS


def test_monotonicity_exact_path_strictly_increasing():
    report = check_monotonicity(MALLOWS, (0.5, 1.0, 2.0, 4.0), set(), POOL3)
    assert report.verdict == VERDICT_HOLDS
    assert report.detail["exact"]
    means = report.detail["means"]
    assert all(b > a for a, b in zip(means, means[1:]))
    assert report.estimate.stderr == 0.0


def test_monotonicity_exact_path_with_removal():
    report = check_monotonicity(MALLOWS, (0.5, 1.0, 2.0), {1}, POOL3)
    assert report.verdict == VERDICT_HOLDS
    assert report.detail["removed"] == (1,)


def test_monotonicity_falls_back_to_sampling_for_large_continuous_models():
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    report = check_monotonicity(
        spec, (0.5, 1.0, 2.0), {1}, POOL4, n_samples=200_000, seed=4
    )
    assert not report.detail["exact"]
    assert report.verdict in (VERDICT_HOLDS, VERDICT_INCONCLUSIVE)
    assert report.verdict != VERDICT_FAILS
    means = report.detail["means"]
    stderrs = report.detail["stderrs"]
    for (m0, m1), (s0, s1) in zip(zip(means, means[1:]), zip(stderrs, stderrs[1:])):
        assert m1 - m0 > -4 * math.hypot(s0, s1)


def test_monotonicity_single_point_grid_holds():
    report = check_monotonicity(MALLOWS, (1.0,), set(), POOL3)
    assert report.verdict == VERDICT_HOLDS


def test_monotonicity_validates_its_grid():
    with pytest.raises(ValueError):
        check_monotonicity(MALLOWS, (1.0, 1.0), set(), POOL3)
    with pytest.raises(ValueError):
        check_monotonicity(MALLOWS, (1.0, 2.0), {1, 2, 3}, POOL3)
