"""Monte Carlo estimators: coupling, chunked reproducibility, calibration,
and the behavioral-condition checks."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    EstimateWithError,
    NoiseSpec,
    RankingModelSpec,
    TieError,
    UnsupportedModelError,
    check_monotonicity,
    check_pref_first_position,
    check_pref_weaker_competition,
    exact_selection_pmf,
    exact_utility_table,
    mallows_perm_probs,
    mc_utility_table,
    mc_utility_trials,
    sample_rankings,
    sweep_plane,
)
from monoculture.estimators import (
    CHUNK_SIZE,
    DEFAULT_Z_THRESHOLD,
    STRICT_TOL,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    _noise,
    _perturbed_picks,
    _picks,
    _strict,
    _verdict,
    mc_utility_lattice,
)
from monoculture.exact import ENTRY_NAMES, top_two_pmf
from monoculture import estimators, exact as exact_engine
from monoculture.permspace import perm_space
from tests import oracles

POOL3 = CandidatePool((1.0, 0.5, 0.0))
POOL4 = CandidatePool((1.0, 0.7, 0.3, 0.0))
POOL7 = CandidatePool((1.0, 0.85, 0.6, 0.5, 0.3, 0.1, 0.0))
POOL10 = CandidatePool(tuple(np.linspace(1.0, 0.1, 10)))
MALLOWS = RankingModelSpec.mallows(2.0)
GAUSSIAN = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
LAPLACIAN = RankingModelSpec.rum(NoiseSpec.laplacian(), 0.7)
SOFTMAX = RankingModelSpec.plackett_luce(1.3)
UNIFORM15 = CandidateDistribution.uniform_centered_zero(1.7320508, 15)
SEVEN_ATOMS = NoiseSpec.discrete(tuple((0.1234567 * k, 1 / 7) for k in range(-3, 4)))
ATOMS7 = RankingModelSpec.rum(SEVEN_ATOMS, 1.0)


def _spread(n):
    # irregular gaps, so no atom offset ties two candidates
    return CandidatePool(tuple(2.7 - 0.37 * i - 0.011 * i * i for i in range(n)))


# ---------------------------------------------------------------- estimates


def test_estimate_z_score_rules():
    assert EstimateWithError(0.02, 0.01, 100).z_score_vs_zero == pytest.approx(2.0)
    assert EstimateWithError(-0.03, 0.01, 100).z_score_vs_zero == pytest.approx(-3.0)
    exact = EstimateWithError.exact(0.5)
    assert exact.stderr == 0.0
    # z is undefined without a stderr, whatever the mean
    for mean in (0.5, -0.5, 0.0):
        assert math.isnan(EstimateWithError.exact(mean).z_score_vs_zero)
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)


def test_trials_require_at_least_one_sample():
    with pytest.raises(ValueError):
        mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, 0, seed=1)


@pytest.mark.parametrize("n_samples", [0, 1, pytest.param(1e4, id="float"),
                                       pytest.param(np.float64(1e4), id="float64"),
                                       pytest.param(True, id="bool")])
@pytest.mark.parametrize("estimate", [
    lambda n: mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, n, seed=1),
    lambda n: mc_utility_table(1.5, 1.0, GAUSSIAN, UNIFORM15, n, seed=1),
    lambda n: check_pref_first_position(MALLOWS, 1.0, POOL3, n_samples=n, seed=0),
    lambda n: check_pref_weaker_competition(MALLOWS, 2.0, 1.0, POOL3, n_samples=n),
    lambda n: check_monotonicity(GAUSSIAN, (0.5, 1.0), {1}, POOL10, n_samples=n),
], ids=["trials", "table", "first-position", "weaker-competition", "monotonicity"])
def test_every_sampled_estimate_needs_two_trials(estimate, n_samples):
    # one trial has no stderr; it must not pass for an exact result. A count
    # must be an int: a float one, even a whole one, is refused as well
    with pytest.raises(ValueError, match="n_samples >= 2"):
        estimate(n_samples)


def test_a_rounding_level_estimate_is_inconclusive():
    # a z test alone would call these decisive (z = +-1000)
    for mean in (1e-12, -1e-12, 5e-13):
        assert _verdict(EstimateWithError(mean, 1e-15, 10**6)) == VERDICT_INCONCLUSIVE
    assert _verdict(EstimateWithError(math.nan, 0.0, 0)) == VERDICT_INCONCLUSIVE


@settings(deadline=None, max_examples=500)
@given(st.floats(), st.floats(min_value=0.0) | st.sampled_from([-0.0, math.nan]))
def test_strict_agrees_with_the_max_form(margin, se):
    # floats() draws NaN, +-inf, +-0 and subnormals for the margin
    assert _strict(margin, se) == (margin > max(DEFAULT_Z_THRESHOLD * se, STRICT_TOL))


@pytest.mark.parametrize("margin, se, strict", [
    (STRICT_TOL, 0.0, False), (math.nextafter(STRICT_TOL, 1.0), 0.0, True),
    (STRICT_TOL, STRICT_TOL / 4, False), (3.0, 1.0, False), (math.nextafter(3.0, 4.0), 1.0, True),
    (1.5, 0.5, False), (math.nan, 0.0, False), (1.0, math.nan, False),
    (math.inf, math.inf, False), (math.inf, 0.0, True), (-0.0, -0.0, False),
])
def test_strict_at_its_thresholds(margin, se, strict):
    # a margin equal to STRICT_TOL or to 3 stderrs is not strict
    assert _strict(margin, se) == strict == (margin > max(DEFAULT_Z_THRESHOLD * se, STRICT_TOL))


EDGE_MARGINS = (math.nan, 0.0, -0.0, STRICT_TOL, -STRICT_TOL, math.nextafter(STRICT_TOL, 1.0),
                -math.nextafter(STRICT_TOL, 1.0), math.inf, -math.inf, 3.0, -3.0)


@pytest.mark.parametrize("se", [0.0, -0.0, STRICT_TOL / 4, 1.0, math.inf, math.nan])
def test_strict_on_an_array_is_the_scalar_rule_elementwise(se):
    # the batched k-firm pick judges a whole row of margins by one call
    want = [_strict(margin, se) for margin in EDGE_MARGINS]
    assert all(type(strict) is bool for strict in want)
    for ses in (se, np.full(len(EDGE_MARGINS), se)):
        got = _strict(np.array(EDGE_MARGINS), ses)
        assert got.dtype == bool and got.tolist() == want


@settings(deadline=None, max_examples=200)
@given(st.floats(), st.floats(min_value=0.0))
def test_negating_an_estimate_swaps_holds_and_fails(mean, stderr):
    swap = {VERDICT_HOLDS: VERDICT_FAILS, VERDICT_FAILS: VERDICT_HOLDS,
            VERDICT_INCONCLUSIVE: VERDICT_INCONCLUSIVE}
    verdict = _verdict(EstimateWithError(mean, stderr, 100))
    assert _verdict(EstimateWithError(-mean, stderr, 100)) == swap[verdict]


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


# the exact-law draw that every family takes on a fixed pool; the
# distance-based family keeps the ids it had when it was the only one
_LAW_FAMILIES = (("", MALLOWS), ("plackett_luce-", SOFTMAX), ("gaussian-", GAUSSIAN),
                 ("atoms-", ATOMS7))


@pytest.mark.parametrize("spec, n", [
    pytest.param(spec, n, id=f"{label}{n}") for label, spec in _LAW_FAMILIES for n in (3, 6)
])
def test_mallows_top_two_matches_the_pair_marginal(spec, n):
    size, pool = 1_000_000, _spread(n)
    pools = np.broadcast_to(pool.as_array(), (size, n))
    [pairs] = _picks(spec, [spec.theta], pool)(pools, np.random.default_rng(11))
    got = np.zeros((n, n))
    np.add.at(got, (pairs[:, 0], pairs[:, 1]), 1.0 / size)
    assert np.all(np.diag(got) == 0)
    assert np.abs(got - top_two_pmf(spec, pool.as_array())).sum() / 2 < 0.005


@pytest.mark.parametrize("spec, removed0", [
    pytest.param(spec, removed0, id=f"{label}removed0{i}") for label, spec in _LAW_FAMILIES
    for i, removed0 in enumerate([(), (1, 3), (0, 2, 3, 4)])
])
def test_mallows_first_survivors_match_the_selection_pmf(spec, removed0):
    n, size, pool = 6, 1_000_000, _spread(6)
    pools = np.broadcast_to(pool.as_array(), (size, n))
    [picks] = _picks(spec, [spec.theta], pool, removed0)(pools, np.random.default_rng(12))
    want = exact_selection_pmf(spec, pool, {c + 1 for c in removed0})
    got = np.bincount(picks, minlength=n) / size
    assert not np.isin(picks, removed0).any()
    assert np.abs(got - want).sum() / 2 < 0.005


def _reach_perturbation(*args):
    raise AssertionError("perturbation path reached")


@pytest.mark.parametrize("spec", [SOFTMAX, GAUSSIAN, ATOMS7], ids=["plackett_luce", "gaussian",
                                                                   "atoms"])
def test_a_fixed_pool_draws_every_pick_from_its_exact_law(spec, monkeypatch):
    monkeypatch.setattr(estimators, "_perturbed_keys", _reach_perturbation)
    pool = _spread(10)
    mc_utility_table(1.5, 1.0, spec, pool, 2_000, 1)
    check_pref_first_position(spec, 1.0, pool, 2_000, 2)
    check_pref_weaker_competition(spec, 1.5, 1.0, pool, 2_000, 3)
    assert not check_monotonicity(spec, (0.5, 1.0), {2, 5}, pool, 2_000, 4).detail["exact"]


@pytest.mark.parametrize("spec", [SOFTMAX, GAUSSIAN, ATOMS7], ids=["plackett_luce", "gaussian",
                                                                   "atoms"])
def test_a_drawn_pool_perturbs_every_ranking(spec, monkeypatch):
    monkeypatch.setattr(estimators, "_perturbed_keys", _reach_perturbation)
    drawn = CandidateDistribution.uniform(0.0, 1.0, 10)
    for run in (lambda: mc_utility_table(1.5, 1.0, spec, drawn, 2_000, 1),
                lambda: check_pref_first_position(spec, 1.0, drawn, 2_000, 2),
                lambda: check_pref_weaker_competition(spec, 1.5, 1.0, drawn, 2_000, 3),
                lambda: check_monotonicity(spec, (0.5, 1.0), {2, 5}, drawn, 2_000, 4)):
        with pytest.raises(AssertionError, match="perturbation path reached"):
            run()


def test_a_fixed_gaussian_pool_past_the_grid_bound_perturbs_without_a_pmf(monkeypatch):
    # the quadrature grid of 200 candidates at theta = 1 outgrows one chunk
    x = np.linspace(1.0, 0.0, 200)
    assert len(exact_engine._gauss_legendre_grid(1.0, x)[0]) > CHUNK_SIZE
    calls = []
    perturbed_keys = estimators._perturbed_keys
    monkeypatch.setattr(estimators, "_perturbed_keys",
                        lambda *args: calls.append(1) or perturbed_keys(*args))
    monkeypatch.setattr(exact_engine, "_top_two_pmfs", lambda *args: pytest.fail("pmf computed"))
    pool = CandidatePool(tuple(x))
    blocks = math.ceil(3_000 / estimators._KEY_ROWS)  # scores are built block by block
    mc_utility_table(1.0, 1.0, GAUSSIAN, pool, 3_000, 0)
    assert len(calls) == 3 * blocks
    assert not check_monotonicity(GAUSSIAN, (1.0,), {1}, pool, 3_000, 0).detail["exact"]
    assert len(calls) == 4 * blocks


def _drawn_pools(size):
    return UNIFORM15.sample_matrix(np.random.default_rng(23), size)


@pytest.mark.parametrize("spec", [GAUSSIAN, LAPLACIAN, SOFTMAX], ids=lambda s: s.kind)
@pytest.mark.parametrize("drawn", [False, True], ids=["fixed7", "drawn15"])
def test_top_two_picks_equal_the_full_ranking_prefix(spec, drawn):
    size = 20_000
    pools = _drawn_pools(size) if drawn else np.broadcast_to(POOL7.as_array(), (size, 7))
    pairs = _perturbed_picks(spec, pools, _noise(spec, pools, np.random.default_rng(4)))
    orders = sample_rankings(spec, pools, np.random.default_rng(4))
    assert np.array_equal(pairs, orders[:, :2])


@pytest.mark.parametrize("spec", [GAUSSIAN, SOFTMAX], ids=lambda s: s.kind)
def test_masked_argmax_picks_the_first_survivor_of_the_full_ranking(spec):
    size = 20_000
    pools = _drawn_pools(size)
    removed0 = (0, 2, 3, 9)
    picks = _perturbed_picks(spec, pools, _noise(spec, pools, np.random.default_rng(6)), removed0)
    orders = sample_rankings(spec, pools, np.random.default_rng(6))
    first_alive = np.argmax(~np.isin(orders, removed0), axis=1)
    assert np.array_equal(picks, orders[np.arange(size), first_alive])


def test_vectorized_tie_detection_names_the_pair():
    # a broadcast view and an ordinary copy are both checked per draw; the
    # estimators judge a fixed pool by the exact engine's rule before any draw
    atoms = NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5)))
    spec = RankingModelSpec.rum(atoms, 1.0)
    pools = np.broadcast_to(np.array([1.0, 0.0]), (500, 2))
    for rows in (pools, pools.copy()):
        with pytest.raises(TieError) as err:
            sample_rankings(spec, rows, np.random.default_rng(0))
        assert str(err.value) == "candidates 1 and 2 tie at perturbed value 0.5"


def test_a_fixed_pool_that_can_tie_raises_the_exact_error_on_every_seed():
    # 2 - 1 = 0 + 1 ties the pair in one ranking in 10^4, so 1,000 trials
    # often draw no tie; the exact engine's rule decides before any draw
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.01), (0.0, 0.98), (1.0, 0.01))), 1.0)
    pool = CandidatePool((2.0, 0.0))
    with pytest.raises(TieError) as exact:
        exact_utility_table(1.0, 1.0, spec, pool)
    for seed in range(10):
        for run in (lambda: mc_utility_table(1.0, 1.0, spec, pool, 1_000, seed),
                    lambda: check_pref_first_position(spec, 1.0, pool, 1_000, seed),
                    lambda: check_pref_weaker_competition(spec, 2.0, 1.0, pool, 1_000, seed)):
            with pytest.raises(TieError) as err:
                run()
            assert str(err.value) == str(exact.value)


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
    for name in ENTRY_NAMES:
        gap = abs(getattr(mc, name) - getattr(exact, name))
        assert gap < 4 * getattr(mc, "stderr_" + name), name
        assert getattr(mc, "stderr_" + name) > 0
    assert mc.n_samples == 400_000


def test_gaussian_exact_table_past_three_candidates_agrees_with_mc():
    pool = CandidatePool((1.0, 0.8, 0.5, 0.3, 0.0))
    exact = exact_utility_table(1.4, 1.0, GAUSSIAN, pool)
    mc = mc_utility_table(1.4, 1.0, GAUSSIAN, pool, 400_000, seed=2024)
    for name in ENTRY_NAMES:
        se = getattr(mc, "stderr_" + name)
        assert abs(getattr(mc, name) - getattr(exact, name)) <= 5 * se, name


def test_mc_respects_the_softmax_null():
    # u_ah - u_aa at equal accuracies, which the Luce axiom makes 0
    d = check_pref_first_position(RankingModelSpec.plackett_luce(1.0), 1.0,
                                  POOL3, 400_000, seed=2718).estimate
    assert abs(d.mean) < 4 * d.stderr


def test_paired_difference_beats_unpaired_error():
    # the check's per-trial difference estimates u_ah - u_aa at equal
    # accuracies more tightly than the difference of the two table entries
    est = mc_utility_trials(1.5, 1.5, MALLOWS, POOL4, 200_000, seed=99)
    unpaired = math.hypot(est["u_ah"].stderr, est["u_aa"].stderr)
    paired = check_pref_first_position(MALLOWS, 1.5, POOL4, 200_000, seed=99).estimate
    assert paired.stderr < unpaired


def test_mc_over_pool_distribution_matches_order_statistic_means():
    d = CandidateDistribution.uniform(0.0, 1.0, 4)
    exact = exact_utility_table(1.5, 1.0, MALLOWS, d)
    mc = mc_utility_table(1.5, 1.0, MALLOWS, d, 400_000, seed=55)
    for name in ("u_first_a", "u_hh"):
        assert abs(getattr(mc, name) - getattr(exact, name)) < 4 * getattr(mc, "stderr_" + name)


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
    # several whole chunks, with and without a ragged tail
    for n in (4 * CHUNK_SIZE, 4 * CHUNK_SIZE + 7, 12 * CHUNK_SIZE + 11)
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


_PINNED = {  # two chunks each: a change to the draws any chunk makes changes these bits
    "fixed": (  # exact-law draws: within 2 stderrs of the exact estimands
        {"u_first_a": (0.7391220453449108, 0.002670014024114392),
         "u_ah": (0.6582247949831163, 0.0029692362701270285),
         "u_hh": (0.6591534008683069, 0.0029617968386996033)},
        (0.022841292812349256, 0.004113111574313646),
        (0.013736131210805597, 0.002094680995408131),
        ((0.48879643029425945, 0.5302821997105643), (0.0025034773256123305, 0.0024110168778968054)),
    ),
    "drawn": (
        {"u_first_a": (0.6753882140039212, 0.0027543327536812506),
         "u_ah": (0.5977205893572308, 0.0029827907174651237),
         "u_hh": (0.6036392587999252, 0.003006034725921478)},
        (0.024643014004420496, 0.003979550245850088),
        (0.011218222561948587, 0.0019269097288138013),
        ((0.4491402464318575, 0.48795861087560227), (0.0027067725640207555, 0.0026516246546524117)),
    ),
}


@pytest.mark.parametrize("pool_or_d, pinned", [
    (POOL10, _PINNED["fixed"]),
    (CandidateDistribution.uniform(0.0, 1.0, 10), _PINNED["drawn"]),
], ids=["fixed", "drawn"])
def test_seeded_estimates_keep_their_recorded_values(pool_or_d, pinned):
    # the draws each chunk makes are part of the contract: same seed, same bits
    table, first, weaker, (means, stderrs) = pinned
    n = CHUNK_SIZE + 100
    est = mc_utility_trials(1.5, 1.0, GAUSSIAN, pool_or_d, n, seed=3, threads=1)
    assert {name: (est[name].mean, est[name].stderr) for name in table} == table
    report = check_pref_first_position(GAUSSIAN, 1.0, pool_or_d, n, seed=4, threads=1)
    assert (report.estimate.mean, report.estimate.stderr) == first
    report = check_pref_weaker_competition(GAUSSIAN, 2.0, 1.0, pool_or_d, n, seed=5, threads=1)
    assert (report.estimate.mean, report.estimate.stderr) == weaker
    report = check_monotonicity(GAUSSIAN, (0.5, 1.0), {1, 2}, pool_or_d, n, seed=6, threads=1)
    assert not report.detail["exact"]
    assert (report.detail["means"], report.detail["stderrs"]) == (means, stderrs)


def test_sample_count_is_chunk_partition_independent_of_threads():
    est = mc_utility_trials(1.5, 1.0, MALLOWS, POOL3, CHUNK_SIZE + 7, seed=17, threads=2)
    assert est["u_aa"].n_samples == CHUNK_SIZE + 7


# three whole chunks and a five-row tail
_RAGGED = 3 * CHUNK_SIZE + 5
_TIE_FREE_DISCRETE = RankingModelSpec.rum(NoiseSpec.discrete(((-0.1, 0.5), (0.1, 0.5))), 1.0)


@pytest.mark.parametrize("family, pool_or_d", [
    (MALLOWS, POOL3),
    (SOFTMAX, POOL4),
    (GAUSSIAN, UNIFORM15),
    (_TIE_FREE_DISCRETE, POOL3),
    (GAUSSIAN, POOL4),
], ids=["mallows", "plackett_luce", "gaussian_drawn", "discrete", "gaussian_fixed"])
def test_every_estimator_is_bit_identical_across_thread_counts(family, pool_or_d):
    def run_all(threads):
        return (
            mc_utility_table(1.5, 1.0, family, pool_or_d, _RAGGED, 3, threads=threads),
            check_pref_first_position(family, 1.0, pool_or_d, _RAGGED, 4, threads=threads),
            check_pref_weaker_competition(family, 1.5, 1.0, pool_or_d, _RAGGED, 5,
                                          threads=threads),
        )

    default = run_all(None)
    assert run_all(1) == default
    assert run_all(3) == default


@pytest.mark.parametrize("family, pool_or_d, removed", [
    (MALLOWS, CandidatePool(tuple(np.linspace(1.0, 0.1, 10))), {1, 2, 10}),
    (GAUSSIAN, UNIFORM15, {2, 7}),
    (GAUSSIAN, POOL10, {2, 7}),
], ids=["mallows", "gaussian_drawn", "gaussian_fixed"])
def test_sampled_monotonicity_is_bit_identical_across_thread_counts(family, pool_or_d, removed):
    reports = [check_monotonicity(family, (0.5, 1.0), removed, pool_or_d, _RAGGED, 6,
                                  threads=threads) for threads in (None, 1, 3)]
    assert not reports[0].detail["exact"]
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


@pytest.mark.parametrize("call", [
    lambda n: mc_utility_table(1.5, 1.0, GAUSSIAN, UNIFORM15, n, 3),
    lambda n: mc_utility_trials(1.5, 1.0, SOFTMAX, POOL4, n, 3),
    lambda n: check_pref_first_position(GAUSSIAN, 1.0, POOL4, n, 4),
    lambda n: check_pref_weaker_competition(MALLOWS, 1.5, 1.0, UNIFORM15, n, 5),
    lambda n: check_monotonicity(GAUSSIAN, (0.5, 1.0, 2.0), {2, 7}, POOL10, n, 6),
    lambda n: sweep_plane((1.0, 1.2), (0.8, 1.4), MALLOWS, POOL3, engine="mc", n_samples=n),
], ids=["table", "trials", "first_position", "weaker_competition", "monotonicity", "sweep"])
def test_every_sampled_call_makes_one_pass(call, monkeypatch, pool_sizes):
    # one `_run_chunks` pass and one thread pool per call, whatever its grid:
    # a loop of passes per accuracy would draw each ranking more than once
    passes, run_chunks = [], estimators._run_chunks
    monkeypatch.setattr(estimators, "_run_chunks",
                        lambda *args: passes.append(1) or run_chunks(*args))
    monkeypatch.setattr(estimators, "_cores", lambda: 2)
    call(2 * CHUNK_SIZE + 1)
    assert len(passes) == 1
    assert pool_sizes == [2]


def test_a_discrete_tie_raises_the_same_error_at_any_thread_count():
    # ties are rare enough here that most chunks draw none; a fixed pool's
    # ties are decided before any draw, so every worker count gets one error
    p = 5e-6
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((0.0, 1 - 2 * p), (0.5, p), (-0.5, p))), 1.0)
    messages = []
    for threads in (1, 3):
        with pytest.raises(TieError) as info:
            mc_utility_table(1.0, 1.0, spec, POOL3, 12 * CHUNK_SIZE + 5, 0, threads=threads)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("threads", [0, -3, 1.5, "2", True])
@pytest.mark.parametrize("call", [
    lambda t: mc_utility_table(1.5, 1.0, GAUSSIAN, POOL3, 100, 0, threads=t),
    lambda t: check_pref_first_position(GAUSSIAN, 1.0, POOL3, 100, threads=t),
    lambda t: check_pref_weaker_competition(GAUSSIAN, 1.5, 1.0, POOL3, 100, threads=t),
    lambda t: check_monotonicity(GAUSSIAN, (0.5, 1.0), set(), UNIFORM15, 100, threads=t),
    lambda t: check_monotonicity(MALLOWS, (0.5, 1.0), set(), POOL3, 100, threads=t),
], ids=["table", "first_position", "weaker_competition", "monotonicity_mc",
        "monotonicity_exact"])
def test_threads_must_be_none_or_a_positive_int(call, threads):
    with pytest.raises(ValueError, match="threads"):
        call(threads)


def test_two_workers_hold_two_small_chunks_at_once():
    # 8192-row chunks: one gaussian n=15 drawn-pool chunk peaks near 2.4 MiB,
    # so two in flight stay well under one 32768-row chunk (9.5 MiB)
    tracemalloc.start()
    try:
        mc_utility_table(1.5, 1.0, GAUSSIAN, UNIFORM15, 100_000, 3, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_more_workers_than_cores_under_frequent_switches_match_one_worker():
    # workers write their chunk's moments into one shared list; a lost or
    # misplaced write would change the merged result
    want = mc_utility_trials(1.5, 1.0, GAUSSIAN, UNIFORM15, _RAGGED, 8, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = mc_utility_trials(1.5, 1.0, GAUSSIAN, UNIFORM15, _RAGGED, 8, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_no_worker_outlives_an_estimator_call():
    before = threading.active_count()
    mc_utility_table(1.5, 1.0, GAUSSIAN, UNIFORM15, _RAGGED, 3, threads=3)
    check_pref_first_position(GAUSSIAN, 1.0, UNIFORM15, _RAGGED, threads=None)
    assert threading.active_count() == before


def test_stderr_survives_a_large_pool_offset():
    # the raw E[v^2] - E[v]^2 form cancels to 0 at this offset; the draws
    # ignore pool values, so the shifted stderr must match the unshifted one
    values = POOL4.as_array()
    shifted = CandidatePool(tuple(1e8 + values))
    near = mc_utility_table(1.5, 1.0, MALLOWS, POOL4, 100_000, seed=3)
    far = mc_utility_table(1.5, 1.0, MALLOWS, shifted, 100_000, seed=3)
    for name in ENTRY_NAMES:
        se_far, se_near = getattr(far, "stderr_" + name), getattr(near, "stderr_" + name)
        assert se_far > 0, name
        assert se_far == pytest.approx(se_near, rel=1e-6), name


@st.composite
def offset_pools(draw):
    # gaps of at least 0.05 stay distinct at 1e8, and at most 1.0 keep
    # every family's picks random at these accuracies
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    offset = draw(st.floats(-1e8, 1e8))
    return CandidatePool(tuple(offset - np.concatenate(([0.0], np.cumsum(gaps)))))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([MALLOWS, SOFTMAX, GAUSSIAN]), offset_pools(), st.integers(0, 2**32 - 1))
def test_stderr_is_positive_on_any_non_degenerate_pool_at_any_offset(spec, pool, seed):
    table = mc_utility_table(1.5, 1.0, spec, pool, 4_000, seed=seed)
    for name in ENTRY_NAMES:
        assert getattr(table, "stderr_" + name) > 0, name


# ---------------------------------------------------------------- lattice

# theta_a repeats both theta_h values, so the lattice has two diagonal cells
_ROWS, _COLS = (0.8, 1.3), (0.5, 0.8, 1.3)
_UNIFORM7 = CandidateDistribution.uniform(0.0, 1.0, 7)


@pytest.mark.parametrize("spec, pool_or_d", [
    (MALLOWS, POOL4), (SOFTMAX, POOL7), (GAUSSIAN, _spread(5)), (ATOMS7, _spread(6)),
    (GAUSSIAN, UNIFORM15), (SOFTMAX, _UNIFORM7), (MALLOWS, _UNIFORM7), (ATOMS7, _UNIFORM7),
], ids=["mallows-fixed", "plackett_luce-fixed", "gaussian-fixed", "atoms-fixed",
        "gaussian-drawn", "plackett_luce-drawn", "mallows-drawn", "atoms-drawn"])
def test_every_lattice_cell_is_its_one_cell_table(spec, pool_or_d):
    # cells share the lattice's draws, and each equals the one-worker table
    # at the lattice's seed on every entry and stderr
    lattice = mc_utility_lattice(_ROWS, _COLS, spec, pool_or_d, CHUNK_SIZE + 77, 21)
    for theta_h, row in zip(_ROWS, lattice):
        for theta_a, table in zip(_COLS, row):
            assert table == mc_utility_table(theta_a, theta_h, spec, pool_or_d,
                                             CHUNK_SIZE + 77, 21, threads=1)


def _one_cell_error(theta_a, theta_h, spec, pool_or_d, n_samples):
    with pytest.raises(ValueError) as info:
        mc_utility_table(theta_a, theta_h, spec, pool_or_d, n_samples, 0)
    return info.value


def _assert_cells_match_one_cell_calls(rows, cols, spec, pool_or_d, n_samples, failing):
    lattice = mc_utility_lattice(rows, cols, spec, pool_or_d, n_samples, 0)
    for i, theta_h in enumerate(rows):
        for j, theta_a in enumerate(cols):
            cell = lattice[i][j]
            if (i, j) in failing:
                want = _one_cell_error(theta_a, theta_h, spec, pool_or_d, n_samples)
                assert type(cell) is type(want) and str(cell) == str(want)
            else:
                assert cell == mc_utility_table(theta_a, theta_h, spec, pool_or_d, n_samples, 0)
    return lattice


def test_a_refused_accuracy_marks_only_its_own_row_or_column():
    # theta_a's error where both accuracies are refused, as the one-cell call
    lattice = _assert_cells_match_one_cell_calls((-1.0, 1.0), (0.0, 1.5), MALLOWS, POOL3, 3_000,
                                                 failing={(0, 0), (0, 1), (1, 0)})
    assert str(lattice[0][0]) == str(lattice[1][0]) != str(lattice[0][1])


def test_a_fixed_pool_tie_at_one_accuracy_marks_only_its_cells():
    # pool gap 2 equals an atom gap scaled by theta = 1 or 0.5, never by 1.5
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3))), 1.0)
    pool = CandidatePool((2.0, 0.0))
    with pytest.raises(TieError):
        exact_utility_table(1.0, 1.5, spec, pool)
    _assert_cells_match_one_cell_calls((1.5, 1.0), (1.0, 1.5), spec, pool, 3_000,
                                       failing={(0, 0), (1, 0), (1, 1)})


def test_a_drawn_pool_tie_at_one_accuracy_marks_only_its_cells():
    # at theta = 1e-17 the atoms swamp every pool value, so two of three
    # candidates always tie; at theta = 1 a tie has probability zero. The
    # sigma ranking draws first, so its tie names the cell where both tie.
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.5), (1.0, 0.5))), 1.0)
    drawn = CandidateDistribution.uniform(0.0, 1.0, 3)
    lattice = _assert_cells_match_one_cell_calls((1e-17, 1.0), (1.0, 1e-17), spec, drawn,
                                                 CHUNK_SIZE + 5, failing={(0, 0), (0, 1), (1, 1)})
    # replay chunk 0's stream: its pool rows, then sigma's and pi's noise
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0, 0)))
    pools = drawn.sample_matrix(rng, CHUNK_SIZE)
    sigma, pi = spec.noise.sample(rng, pools.shape), spec.noise.sample(rng, pools.shape)
    for noise, cell in ((sigma, lattice[0][1]), (sigma, lattice[1][1]), (pi, lattice[0][0])):
        with pytest.raises(TieError) as info:
            estimators._raise_on_ties(pools + noise / 1e-17)
        assert str(cell) == str(info.value)
    assert str(lattice[0][0]) != str(lattice[0][1])


def test_a_drawn_pool_tie_raises_through_the_checks():
    # the checks read the raising pick view, so the drawn tie escapes as the
    # TieError itself instead of marking a cell
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.5), (1.0, 0.5))), 1.0)
    drawn = CandidateDistribution.uniform(0.0, 1.0, 3)
    for run in (lambda: check_pref_first_position(spec, 1e-17, drawn, 1000, 0),
                lambda: check_monotonicity(spec, (1e-17, 1.0), {1}, drawn, 1000, 0)):
        with pytest.raises(TieError, match=r"candidates 2 and 3 tie at perturbed value -1e\+17"):
            run()


def test_a_role_that_mixes_samplers_perturbs_and_keeps_its_law():
    # 152 candidates over [0, 10]: the quadrature grid passes CHUNK_SIZE at
    # theta = 1 but not at theta = 2, so the algorithmic role perturbs at both
    x = np.linspace(10.0, 0.0, 152)
    assert len(exact_engine._gauss_legendre_grid(1.0, x)[0]) > CHUNK_SIZE
    assert len(exact_engine._gauss_legendre_grid(2.0, x)[0]) <= CHUNK_SIZE
    pool = CandidatePool(tuple(x))
    assert not estimators._Role(GAUSSIAN, (1.0, 2.0), pool).exact
    lattice = mc_utility_lattice((2.0,), (1.0, 2.0), GAUSSIAN, pool, 20_000, 5)
    for theta_a, table in zip((1.0, 2.0), lattice[0]):
        exact = exact_utility_table(theta_a, 2.0, GAUSSIAN, pool)
        for name in ENTRY_NAMES:
            gap = getattr(table, name) - getattr(exact, name)
            assert abs(gap) <= 4 * getattr(table, f"stderr_{name}"), (theta_a, name)
    # the exact-law cell of its own draws differently
    assert lattice[0][1] != mc_utility_table(2.0, 2.0, GAUSSIAN, pool, 20_000, 5)


# ---------------------------------------------------------------- calibration


def test_interval_calibration_on_the_exact_table():
    # 99.9% normal intervals from 1000 independent runs should cover the
    # exact value at least 99% of the time, entry by entry
    theta_a, theta_h = 1.5, 1.0
    exact = exact_utility_table(theta_a, theta_h, MALLOWS, POOL3)
    z999 = 3.2905267314919255  # two-sided 99.9%
    runs = 1000
    n = 10_000
    names = ENTRY_NAMES
    covered = dict.fromkeys(names, 0)
    for r in range(runs):
        mc = mc_utility_table(theta_a, theta_h, MALLOWS, POOL3, n, seed=10_000 + r)
        for name in names:
            half = z999 * getattr(mc, "stderr_" + name)
            if abs(getattr(mc, name) - getattr(exact, name)) <= half:
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


CONDITION_POOL = (1.0, 0.8, 0.75, 0.4, 0.3, 0.1, 0.0)


def oracle_top_two(spec, theta):
    """The spec's top-two pmf on CONDITION_POOL at accuracy theta, from tests.oracles."""
    x, n = CONDITION_POOL, len(CONDITION_POOL)
    if spec.kind == "mallows":
        return oracles.top_two(oracles.mallows_pmf(1.0 + theta, n), n)
    if spec.kind == "plackett_luce":
        return oracles.top_two(oracles.luce_pmf(theta, x), n)
    return oracles.rum_top_two_quad(spec.noise.kind, theta, list(x))


@pytest.mark.parametrize("spec", [
    RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0),
    RankingModelSpec.rum(NoiseSpec.laplacian(), 1.0),
    RankingModelSpec.plackett_luce(1.0),
    MALLOWS,
], ids=["gaussian", "laplacian", "plackett-luce", "mallows"])
def test_condition_checks_match_their_exact_top_two_estimands(spec):
    pool = CandidatePool(CONDITION_POOL)
    weak, strong = oracle_top_two(spec, 1.0), oracle_top_two(spec, 1.5)
    first = check_pref_first_position(spec, 1.0, pool, n_samples=200_000, seed=11)
    weaker = check_pref_weaker_competition(spec, 1.5, 1.0, pool, n_samples=200_000, seed=11)
    for report, want in ((first, oracles.pref_first_position(weak, CONDITION_POOL)),
                         (weaker, oracles.pref_weaker_competition(strong, weak, CONDITION_POOL))):
        est = report.estimate
        assert est.stderr > 0
        assert abs(est.mean - want) <= 4 * est.stderr, (report.condition, est.mean, want)


def test_softmax_first_position_is_exactly_zero_and_sampling_cannot_tell():
    # Luce's choice axiom: the paper's softmax null, which sampling can only
    # call inconclusive
    spec = RankingModelSpec.plackett_luce(1.0)
    assert abs(oracles.pref_first_position(oracle_top_two(spec, 1.0), CONDITION_POOL)) <= 1e-15
    report = check_pref_first_position(spec, 1.0, CandidatePool(CONDITION_POOL),
                                       n_samples=200_000, seed=11)
    assert report.verdict == VERDICT_INCONCLUSIVE


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
        spec, (0.5, 1.0, 2.0), {1}, POOL10, n_samples=200_000, seed=4
    )
    assert not report.detail["exact"]
    assert report.verdict in (VERDICT_HOLDS, VERDICT_INCONCLUSIVE)
    assert report.verdict != VERDICT_FAILS
    means = report.detail["means"]
    stderrs = report.detail["stderrs"]
    for (m0, m1), (s0, s1) in zip(zip(means, means[1:]), zip(stderrs, stderrs[1:])):
        assert m1 - m0 > -4 * math.hypot(s0, s1)


@pytest.mark.parametrize("family, pool, removed, exact", [
    (MALLOWS, CandidatePool(tuple(np.linspace(1.0, 0.3, 8))), {2, 5}, True),
    (MALLOWS, POOL10, {2, 5}, False),
    (MALLOWS, CandidateDistribution.uniform_centered_zero(1.0, 5), {2}, True),
    (GAUSSIAN, POOL4, {1}, True),
    (GAUSSIAN, POOL10, {1}, False),
    (GAUSSIAN, UNIFORM15, {1}, False),
    (RankingModelSpec.rum(SEVEN_ATOMS, 1.0), _spread(7), {1, 2, 3}, True),
    # 7^8 atom combinations: exact, since no exact path enumerates them
    (RankingModelSpec.rum(SEVEN_ATOMS, 1.0), _spread(8), {1, 2, 3}, True),
], ids=["mallows8", "mallows10", "mallows_drawn", "gaussian4", "gaussian10", "gaussian_drawn",
        "atoms7_n7", "atoms7_n8"])
def test_monotonicity_engine_follows_family_pool_and_size(family, pool, removed, exact):
    report = check_monotonicity(family, (0.5, 1.0), removed, pool, n_samples=1000, seed=2)
    assert report.detail["exact"] is exact
    assert all((se == 0) is exact for se in report.detail["stderrs"])


def test_a_failed_quadrature_sum_check_raises_instead_of_sampling(monkeypatch):
    def off_by_a_percent(mass, below, above):
        return 1.01 * support_sum(mass, below, above)

    support_sum = exact_engine._support_sum
    monkeypatch.setattr(exact_engine, "_support_sum", off_by_a_percent)
    exact_engine._continuous_rum_top_two.cache_clear()
    with pytest.raises(UnsupportedModelError, match="quadrature pmf sums to"):
        check_monotonicity(GAUSSIAN, (0.5, 1.0), {1}, POOL3, n_samples=1000)


def test_a_discrete_tie_between_removed_candidates_raises_on_both_engines():
    # 1 - 0.5 = 0 + 0.5: the bottom two candidates tie in some ranking,
    # though neither can be picked once both are removed
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5))), 1.0)
    small = CandidatePool((10.0, 7.3, 5.9, 4.2, 1.0, 0.0))
    large = CandidatePool((10.0, 7.3, 5.9, 4.2, 3.4, 2.65, 1.9, 1.35, 1.0, 0.0))
    for pool in (small, large):  # the exact engine, then Monte Carlo
        bottom = {pool.n - 1, pool.n}
        with pytest.raises(TieError, match=f"candidates {pool.n - 1} and {pool.n}"):
            check_monotonicity(spec, (0.5, 1.0), bottom, pool, n_samples=1000)
    with pytest.raises(TieError, match="candidates 5 and 6"):
        exact_selection_pmf(spec, small, {5, 6})


def test_sampled_mallows_monotonicity_matches_the_contiguous_closed_form():
    # n = 10 is past the exact pmf's cap; removing the top two and the bottom
    # one leaves the contiguous run 3..9, whose relative order is again
    # distance-based with the same phi
    pool = CandidatePool(tuple(np.linspace(1.0, 0.1, 10)))
    removed = {1, 2, 10}
    survivors = [x for c, x in enumerate(pool.values, start=1) if c not in removed]
    grid = (0.5, 1.0, 1.5)
    report = check_monotonicity(MALLOWS, grid, removed, pool, seed=5)
    assert not report.detail["exact"]
    for theta, mean, se in zip(grid, report.detail["means"], report.detail["stderrs"]):
        want = sum(
            oracles.mallows_block_first_choice(1.0 + theta, len(survivors), rank) * x
            for rank, x in enumerate(survivors, start=1)
        )
        assert se > 0
        assert abs(mean - want) <= 5 * se, (theta, mean, want, se)
    assert report.verdict == VERDICT_HOLDS
    assert check_monotonicity(MALLOWS, grid, removed, pool, seed=5, threads=2) == report


_DRAWN10 = CandidateDistribution.uniform(0.0, 1.0, 10)


@pytest.mark.parametrize("spec, pool_or_d", [
    (MALLOWS, POOL10), (GAUSSIAN, POOL10), (ATOMS7, POOL10),
    (GAUSSIAN, _DRAWN10), (SOFTMAX, _DRAWN10), (ATOMS7, _DRAWN10), (MALLOWS, _DRAWN10),
], ids=["mallows-fixed", "gaussian-fixed", "atoms-fixed", "gaussian-drawn",
        "plackett_luce-drawn", "atoms-drawn", "mallows-drawn"])
def test_every_grid_mean_is_its_one_point_grid(spec, pool_or_d):
    # no draw's size depends on the accuracy, so the grid's shared draws give
    # each mean, stderr and count the bits of that accuracy's draws alone
    grid, removed0, n = (0.5, 1.0, 2.0), (1, 4), 2 * CHUNK_SIZE + 11
    means, _ = estimators._mc_selection_mean(spec, grid, pool_or_d, removed0, n, 8)
    for theta, mean in zip(grid, means):
        assert [mean] == estimators._mc_selection_mean(spec, [theta], pool_or_d, removed0, n, 8,
                                                       threads=1)[0]


def test_a_grid_that_mixes_samplers_perturbs_and_keeps_its_law():
    # 152 candidates over [0, 10]: the quadrature grid passes CHUNK_SIZE at
    # theta = 1 only, so every grid point perturbs
    x, grid, removed = np.linspace(10.0, 0.0, 152), (1.0, 1.5, 2.0), {1}
    assert [len(exact_engine._gauss_legendre_grid(t, x)[0]) > CHUNK_SIZE for t in grid] == [
        True, False, False]
    pool = CandidatePool(tuple(x))
    assert not estimators._Role(GAUSSIAN, grid, pool, (0,)).exact
    report = check_monotonicity(GAUSSIAN, grid, removed, pool, 20_000, 5)
    for theta, mean, se in zip(grid, report.detail["means"], report.detail["stderrs"]):
        want = exact_selection_pmf(GAUSSIAN.with_theta(theta), pool, removed) @ x
        assert abs(mean - want) <= 4 * se, theta


@pytest.mark.parametrize("spec, removed", [(MALLOWS, {1, 2, 10}), (GAUSSIAN, {2, 7})],
                         ids=["mallows", "gaussian"])
def test_paired_step_intervals_cover_the_exact_step_and_are_sharper(spec, removed):
    # 99.9% intervals on the step from 300 independent runs should cover the
    # exact step at least 99% of the time; pairing the two accuracies' draws
    # must beat unpaired means by far more than chance
    grid, x, z999 = (0.5, 0.6), POOL10.as_array(), 3.2905267314919255
    lo, hi = [exact_selection_pmf(spec.with_theta(t), POOL10, removed) @ x for t in grid]
    step = hi - lo
    covered = 0
    for seed in range(300):
        report = check_monotonicity(spec, grid, removed, POOL10, 20_000, seed)
        est, stderrs = report.estimate, report.detail["stderrs"]
        covered += abs(est.mean - step) <= z999 * est.stderr
        assert 0 < est.stderr < math.hypot(*stderrs) / 3, seed
    assert covered >= 297


def test_exact_softmax_monotonicity_at_rounding_level_is_inconclusive():
    # the two means differ by one rounding step (-1.1e-16), not by a trend
    pool = CandidatePool((0.973, 0.626, 0.442, 0.363))
    report = check_monotonicity(RankingModelSpec.plackett_luce(1.0), (106.0, 116.0), set(), pool)
    assert report.detail["exact"]
    assert abs(report.estimate.mean) <= 1e-12
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_monotonicity_single_point_grid_holds():
    report = check_monotonicity(MALLOWS, (1.0,), set(), POOL3)
    assert report.verdict == VERDICT_HOLDS
    assert report.estimate == EstimateWithError.exact(0.0)
    # a sampled grid of one point has no difference, so no trial backs it
    report = check_monotonicity(GAUSSIAN, (1.0,), {2}, POOL10, n_samples=1000)
    assert not report.detail["exact"] and report.verdict == VERDICT_HOLDS
    assert report.estimate == EstimateWithError.exact(0.0)
    assert report.estimate.n_samples == 0


def test_monotonicity_validates_its_grid():
    with pytest.raises(ValueError):
        check_monotonicity(MALLOWS, (1.0, 1.0), set(), POOL3)
    with pytest.raises(ValueError):
        check_monotonicity(MALLOWS, (1.0, 2.0), {1, 2, 3}, POOL3)
