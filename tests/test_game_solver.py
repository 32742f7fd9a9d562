"""Two-firm equilibrium classification, the dominance crossing search, and
k-firm hiring sequences."""

import math
import operator
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from monoculture import (
    BracketError,
    CandidateDistribution,
    CandidatePool,
    NoiseSpec,
    RankingModelSpec,
    ScanReport,
    StrategySequence,
    TieError,
    UnsupportedModelError,
    UtilityTable,
    binary_counter_scan,
    check_dominance,
    classify_equilibrium,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
    find_theta_star,
    kfirm_braess_check,
    mc_utility_table,
    sequential_optimal_sequence,
    sweep_plane,
)
from monoculture import estimators, exact as exact_engine
from monoculture.exact import ENTRY_NAMES, _sequence_rows, _sequential_values, exact_utility_lattice

POOL3 = CandidatePool((1.0, 0.5, 0.0))
POOL4 = CandidatePool((1.0, 0.7, 0.3, 0.0))
MALLOWS = RankingModelSpec.mallows(2.0)
GAUSSIAN = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)

SENTINELS = UtilityTable(
    u_first_a=1.0, u_first_h=2.0, u_aa=4.0, u_ah=8.0, u_ha=16.0, u_hh=32.0
)


# ---------------------------------------------------------------- payoffs


def test_payoff_margin_wiring():
    # second-mover entries are named first-mover-then-second-mover, so my
    # payoff playing A against a rival H averages u_first_a with u_ha
    detail = classify_equilibrium(SENTINELS).detail
    assert detail["payoff_margin_vs_a"] == 0.5 * (1.0 + 4.0) - 0.5 * (2.0 + 8.0)
    assert detail["payoff_margin_vs_h"] == 0.5 * (1.0 + 16.0) - 0.5 * (2.0 + 32.0)


def test_dominance_margins_are_table_differences():
    rep = check_dominance(SENTINELS)
    assert rep.margin_vs_a == (1.0 + 4.0) - (2.0 + 8.0)
    assert rep.margin_vs_h == (1.0 + 16.0) - (2.0 + 32.0)
    assert not rep.a_strictly_dominant
    assert rep.stderr_vs_a == 0.0


def test_dominance_tie_detection_exact_and_sampled():
    flat = UtilityTable(
        u_first_a=1.0, u_first_h=1.0, u_aa=0.5, u_ah=0.5, u_ha=0.5, u_hh=0.5
    )
    rep = check_dominance(flat)
    assert rep.tie_vs_a and rep.tie_vs_h
    assert not rep.a_strictly_dominant
    # sampled tables gate strictness on the z-score
    noisy = UtilityTable(
        u_first_a=1.0, u_first_h=0.99, u_aa=0.5, u_ah=0.5, u_ha=0.5, u_hh=0.5,
        stderr_u_first_a=0.01, stderr_u_first_h=0.01, stderr_u_aa=0.01,
        stderr_u_ah=0.01, stderr_u_ha=0.01, stderr_u_hh=0.01, n_samples=100,
    )
    noisy_rep = check_dominance(noisy)
    assert noisy_rep.margin_vs_a > 0
    assert not noisy_rep.a_dominant_vs_a  # 0.01 margin, 0.02 stderr
    assert noisy_rep.tie_vs_a


def sampled(se, **entries):
    """A Monte Carlo-style table whose six entries all carry stderr se."""
    return UtilityTable(**entries, **{f"stderr_{n}": se for n in ENTRY_NAMES}, n_samples=10**6)


def test_margin_at_rounding_level_is_never_strict():
    # four entries of stderr 0.5e-14 give a margin stderr of 1e-14, so a
    # z test alone would call a 5e-13 margin strict; STRICT_TOL still holds
    tied = sampled(0.5e-14, u_first_a=0.5 + 5e-13, u_first_h=0.5,
                   u_aa=0.25, u_ah=0.25, u_ha=0.25, u_hh=0.25)
    rep = check_dominance(tied)
    assert rep.margin_vs_a == pytest.approx(5e-13, rel=1e-3)
    assert rep.stderr_vs_a == pytest.approx(1e-14)
    assert not rep.a_dominant_vs_a and rep.tie_vs_a
    assert not rep.a_dominant_vs_h and rep.tie_vs_h
    assert classify_equilibrium(tied).boundary
    # the welfare gap follows the same rule: A strictly dominant, all-H
    # welfare ahead by 5e-13 only, so no welfare loss is certified
    gap = sampled(0.5e-14, u_first_a=1.0, u_first_h=0.5,
                  u_aa=0.2, u_ah=0.2, u_ha=0.3, u_hh=0.7 + 5e-13)
    out = classify_equilibrium(gap)
    assert out.detail["dominance"].a_strictly_dominant
    assert out.welfare_hh - out.welfare_aa == pytest.approx(5e-13, rel=1e-3)
    assert not out.braess


# margins at zero, straddling STRICT_TOL, decisive, or NaN; stderrs of 0,
# of rounding level, of sampling size, or NaN
MARGINS = (st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, math.nan])
           | st.floats(-3.0, 3.0))
STDERRS = st.sampled_from([0.0, 0.0, 1e-14, math.nan]) | st.floats(0.0, 0.5)


@settings(deadline=None, max_examples=400)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), MARGINS, MARGINS,
       st.lists(STDERRS, min_size=6, max_size=6))
def test_every_flag_and_label_follows_one_sign_rule(free, margin_a, margin_h, stderrs):
    fa, fh, aa, ha = free
    t = UtilityTable(u_first_a=fa, u_first_h=fh, u_aa=aa, u_ah=fa + aa - fh - margin_a,
                     u_ha=ha, u_hh=fa + ha - fh - margin_h,
                     **{f"stderr_{n}": se for n, se in zip(ENTRY_NAMES, stderrs)}, n_samples=100)
    out = classify_equilibrium(t)
    dom = out.detail["dominance"]
    signs = []
    for margin, se, dominant, tie in (
        (dom.margin_vs_a, dom.stderr_vs_a, dom.a_dominant_vs_a, dom.tie_vs_a),
        (dom.margin_vs_h, dom.stderr_vs_h, dom.a_dominant_vs_h, dom.tie_vs_h),
    ):
        sign = estimators._sign(margin, se)
        assert (dominant, tie) == (sign > 0, sign == 0)
        verdict = estimators._report(
            "one step", [estimators.EstimateWithError(margin, se, 100)], {}).verdict
        assert verdict == {1: estimators.VERDICT_HOLDS, 0: estimators.VERDICT_INCONCLUSIVE,
                           -1: estimators.VERDICT_FAILS}[sign]
        signs.append(sign)
    aa_stable, hh_stable = signs[0] >= 0, signs[1] <= 0
    assert out.boundary == (0 in signs)
    if aa_stable and hh_stable:
        assert out.label in ("AA", "HH") and out.p is None
    elif aa_stable or hh_stable:
        assert (out.label, out.p) == ("AA" if aa_stable else "HH", None)
    else:
        # anti-coordination needs both margins strict, so never on a boundary
        assert out.label == "AH_asymmetric" and not out.boundary
        assert 0.0 < out.p < 1.0
    if 0 not in signs:
        # strict margins stay strict at stderr 0, so the label cannot move
        at_zero = classify_equilibrium(replace(t, **{f"stderr_{n}": 0.0 for n in ENTRY_NAMES}))
        assert (at_zero.label, at_zero.p) == (out.label, out.p)


# ---------------------------------------------------------------- classification


def test_more_accurate_algorithm_gives_the_all_shared_equilibrium():
    t = exact_utility_table(2.5, 1.0, MALLOWS, POOL4)
    out = classify_equilibrium(t)
    assert out.label == "AA"
    assert out.p is None
    assert not out.boundary
    assert out.detail["dominance"].a_strictly_dominant


def test_weaker_or_equal_algorithm_gives_the_all_independent_equilibrium():
    strictly_worse = classify_equilibrium(exact_utility_table(0.8, 1.5, MALLOWS, POOL4))
    assert strictly_worse.label == "HH"
    assert not strictly_worse.boundary
    equal = classify_equilibrium(exact_utility_table(1.5, 1.5, MALLOWS, POOL4))
    assert equal.label == "HH"
    assert equal.boundary  # the vs-H comparison ties exactly


def test_distance_family_anticoordinates_only_in_a_thin_band():
    # on the diagonal the vs-H margin ties at zero while the vs-A margin is
    # strictly negative (sharing hurts the second mover), so just above the
    # diagonal H is the better reply to A and A the better reply to H; the
    # band closes once the first-choice edge outgrows the sharing penalty
    seen = [
        classify_equilibrium(exact_utility_table(theta_a, 1.0, MALLOWS, POOL4)).label
        for theta_a in (0.7, 1.0, 1.05, 1.12, 1.3, 2.0, 4.0)
    ]
    assert seen == ["HH", "HH", "AH_asymmetric", "AH_asymmetric", "AA", "AA", "AA"]


def test_gaussian_scores_anticoordinate_in_a_thin_band():
    t = exact_utility_table(1.05, 1.0, GAUSSIAN, POOL3)
    out = classify_equilibrium(t)
    assert out.label == "AH_asymmetric"
    assert 0.0 < out.p < 1.0
    # the mixed probability solves the indifference equation
    a_vs_a, h_vs_a = 0.5 * (t.u_first_a + t.u_aa), 0.5 * (t.u_first_h + t.u_ah)
    a_vs_h, h_vs_h = 0.5 * (t.u_first_a + t.u_ha), 0.5 * (t.u_first_h + t.u_hh)
    own_a = out.p * a_vs_a + (1 - out.p) * a_vs_h
    own_h = out.p * h_vs_a + (1 - out.p) * h_vs_h
    assert abs(own_a - own_h) < 1e-12
    assert not out.braess


def test_gaussian_scores_braess_cell_above_the_band():
    out = classify_equilibrium(exact_utility_table(1.12, 1.0, GAUSSIAN, POOL3))
    assert out.label == "AA"
    assert out.braess
    assert out.welfare_hh > out.welfare_aa
    assert out.detail["dominance"].a_strictly_dominant


AFFINE_FAMILIES = {
    "mallows": MALLOWS,
    "plackett_luce": RankingModelSpec.plackett_luce(1.0),
    "gaussian": GAUSSIAN,
}


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(sorted(AFFINE_FAMILIES)),
       st.lists(st.integers(-500, 500), min_size=3, max_size=6, unique=True),
       st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.1, 10.0), st.floats(-10.0, 10.0))
def test_equilibrium_is_invariant_under_positive_affine_maps(
    kind, steps, theta_a, theta_h, scale, shift
):
    # x -> scale x + shift scales every margin by scale; softmax and noisy
    # scores see the pool through theta x, so they also take theta / scale
    values = [v / 100.0 for v in sorted(steps, reverse=True)]
    family = AFFINE_FAMILIES[kind]
    k = 1.0 if kind == "mallows" else scale
    base = classify_equilibrium(exact_utility_table(theta_a, theta_h, family, CandidatePool(values)))
    moved = CandidatePool(tuple(scale * v + shift for v in values))
    got = classify_equilibrium(exact_utility_table(theta_a / k, theta_h / k, family, moved))
    alpha, beta = base.detail["payoff_margin_vs_a"], base.detail["payoff_margin_vs_h"]
    dom = base.detail["dominance"]
    margins = (alpha, beta, alpha + beta, dom.margin_vs_a, dom.margin_vs_h,
               base.welfare_hh - base.welfare_aa)
    # every boundary sits within STRICT_TOL of 0, so this keeps each mapped
    # margin more than 1e-9 * scale from all of them
    assume(min(abs(m) for m in margins) > 1e-9)
    assert (got.label, got.braess) == (base.label, base.braess)
    assert (got.p is None) == (base.p is None)
    if base.p is not None:
        assert got.p == pytest.approx(base.p, rel=1e-6)


def test_welfare_fields_match_the_welfare_function():
    t = exact_utility_table(1.4, 1.0, MALLOWS, POOL4)
    out = classify_equilibrium(t)
    assert out.welfare_aa == exact_welfare(t, "AA")
    assert out.welfare_hh == exact_welfare(t, "HH")


# ---------------------------------------------------------------- crossing


@pytest.mark.parametrize("phi_h", [1.5, 2.0, 3.0])
def test_crossing_search_certifies_a_welfare_loss_window(phi_h):
    theta_h = phi_h - 1.0
    res = find_theta_star(theta_h, MALLOWS, POOL3)
    assert abs(res.crossing_residual) < 1e-12
    assert res.theta_star > theta_h
    assert res.braess_found
    assert res.theta_prime is not None and res.theta_prime > res.theta_star
    # recompute the certificate directly from the exact table
    t = exact_utility_table(res.theta_prime, theta_h, MALLOWS, POOL3)
    dom = check_dominance(t)
    assert dom.a_strictly_dominant
    assert exact_welfare(t, "HH") > exact_welfare(t, "AA")
    assert res.detail["margin_vs_a"] == dom.margin_vs_a
    assert res.detail["welfare_gap"] == pytest.approx(
        exact_welfare(t, "HH") - exact_welfare(t, "AA")
    )


def test_crossing_point_equates_staying_and_deviating():
    res = find_theta_star(1.0, MALLOWS, POOL3)
    t = exact_utility_table(res.theta_star, 1.0, MALLOWS, POOL3)
    stay = t.u_first_a + t.u_aa
    deviate = t.u_first_h + t.u_ah
    assert abs(stay - deviate) < 1e-6


def _drawn_pool(n: int) -> tuple[float, CandidatePool]:
    rng = np.random.default_rng(n)
    return rng.uniform(0.5, 1.5), CandidatePool(tuple(np.sort(rng.uniform(0, 1, n))[::-1]))


@pytest.mark.parametrize(
    "theta_h, pool",
    [pytest.param(theta_h, POOL3, id=f"pool3-theta_h{theta_h}") for theta_h in (0.5, 1.0, 2.0)]
    + [pytest.param(*_drawn_pool(n), id=f"drawn-n{n}") for n in range(3, 8)],
)
def test_crossing_residual_is_at_rounding_level(theta_h, pool):
    res = find_theta_star(theta_h, MALLOWS, pool)
    assert abs(res.crossing_residual) <= 1e-12
    t = exact_utility_table(res.theta_star, theta_h, MALLOWS, pool)
    assert res.crossing_residual == check_dominance(t).margin_vs_a


def test_crossing_search_rejects_a_margin_that_jumps_across_zero():
    # two noise atoms make the margin piecewise constant in theta_a, and
    # here it steps across zero, so the search ends on the step
    coin = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.5), (1.0, 0.5))), 1.0)
    pool = CandidatePool((0.8764842308107038, 0.23936944299295215, 0.05856803480519435))
    with pytest.raises(BracketError, match="residual"):
        find_theta_star(1.141127769527849, coin, pool)


def test_crossing_search_doubles_its_bracket_until_the_margin_turns(monkeypatch):
    # no natural pool needs it (theta* / theta_h stays near 1.14), so the
    # bracket starts at 1.05 theta_h, below the crossing, and doubles once
    import monoculture.solver as solver

    default = find_theta_star(1.0, MALLOWS, POOL3)
    monkeypatch.setattr(solver, "BRACKET_START_FACTOR", 1.05)
    res = find_theta_star(1.0, MALLOWS, POOL3)
    assert abs(res.crossing_residual) <= 1e-12
    assert res.theta_star == pytest.approx(default.theta_star, rel=1e-12, abs=0.0)
    monkeypatch.setattr(solver, "BRACKET_LIMIT_FACTOR", 1.1)
    with pytest.raises(BracketError, match="no sign change up to 1.1 theta_h"):
        find_theta_star(1.0, MALLOWS, POOL3)


def test_crossing_search_without_a_window_reports_none(monkeypatch):
    # never Braess: the certificate loop runs until theta*(1 + 2^-m) rounds
    # to theta* and stops there
    import monoculture.solver as solver

    def never_braess(table):
        seen.append(table)
        return replace(classify_equilibrium(table), braess=False)

    seen = []
    monkeypatch.setattr(solver, "classify_equilibrium", never_braess)
    res = find_theta_star(1.0, MALLOWS, POOL3)
    assert (res.theta_prime, res.braess_found, res.detail) == (None, False, {})
    theta_star = res.theta_star
    assert len(seen) == next(m for m in range(64) if theta_star * (1.0 + 2.0**-m) == theta_star)


def test_crossing_search_rejects_families_without_a_sharing_penalty():
    # softmax sharing is free, so the margin starts at zero instead of
    # negative and no crossing exists
    with pytest.raises(BracketError):
        find_theta_star(1.0, RankingModelSpec.plackett_luce(1.0), POOL3)


def test_crossing_search_validates_theta_h():
    # the model spec owns the accuracy rule
    for theta_h in (0.0, -1.0, float("nan")):
        with pytest.raises(UnsupportedModelError, match="need theta > 0"):
            find_theta_star(theta_h, MALLOWS, POOL3)


@pytest.mark.parametrize("family", [MALLOWS, RankingModelSpec.plackett_luce(1.0), GAUSSIAN],
                         ids=["mallows", "plackett_luce", "gaussian"])
def test_an_infinite_accuracy_is_refused_by_both_engines(family):
    # it once gave NaN exact utilities, a sampled first-mover utility of 0
    # with stderr 0, or a quadrature failure, depending on the family
    for theta_a, theta_h in ((math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(UnsupportedModelError, match="need theta > 0"):
            exact_utility_table(theta_a, theta_h, family, POOL3)
        with pytest.raises(UnsupportedModelError, match="need theta > 0"):
            mc_utility_table(theta_a, theta_h, family, POOL3, 1000, 0)


# ---------------------------------------------------------------- sequences


def test_strategy_sequence_binary_reading():
    assert StrategySequence(tuple("AAAHH")).binary_value == 28
    assert StrategySequence(tuple("AHAHA")).binary_value == 21
    assert StrategySequence(tuple("H")).binary_value == 0
    assert StrategySequence(tuple("ahaha")).as_string() == "AHAHA"
    assert StrategySequence(tuple("AH")).k == 2


def test_strategy_sequence_validation():
    with pytest.raises(ValueError):
        StrategySequence(())
    with pytest.raises(ValueError):
        StrategySequence(("A", "B"))
    with pytest.raises(ValueError):
        StrategySequence(("A", "H"), (1.0,))


def test_equal_accuracy_firms_all_go_independent():
    seq = sequential_optimal_sequence(3, 2.0, 2.0, POOL4)
    assert seq.as_string() == "HHH"


def test_near_perfect_shared_ranking_wins_until_the_pool_is_empty():
    # firms 1..3 take values 1.0, 0.7, 0.3 off the shared ranking; the
    # last candidate is worth 0 either way and the tie goes to H
    seq = sequential_optimal_sequence(4, 1e6, 1.2, POOL4)
    assert seq.as_string() == "AAAH"
    assert seq.utilities[0] == pytest.approx(1.0, abs=1e-5)
    assert seq.utilities[3] == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize(
    "k, phi_h, pool, error",
    [
        (0, 1.5, POOL4, ValueError),
        (2, 1.0, POOL4, UnsupportedModelError),
        (20, 1.5, CandidatePool(tuple(float(v) for v in range(40, 0, -1))), UnsupportedModelError),
        (5, 1.5, POOL4, UnsupportedModelError),
    ],
    ids=["no-firms", "phi-h-one", "level-over-bound", "more-firms-than-candidates"],
)
def test_sequential_optimal_sequence_rejects_bad_arguments(k, phi_h, pool, error):
    with pytest.raises(error):
        sequential_optimal_sequence(k, 2.0, phi_h, pool)


def test_sequential_state_bound_is_checked_before_anything_is_built():
    # 20 firms from 40 candidates would need C(40, 20) 2^20 states at one level
    pool = CandidatePool(tuple(float(v) for v in range(40, 0, -1)))
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedModelError, match="over the bound"):
            sequential_optimal_sequence(20, 2.0, 1.5, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    eight = CandidatePool(tuple(float(v) for v in range(8, 0, -1)))
    assert sequential_optimal_sequence(2, 2.0, 1.5, eight).k == 2


def test_kfirm_check_refuses_before_building_its_sequences():
    # the firm count is checked against the pool before 2^16 A/H sequences are built
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedModelError, match="16 firms cannot hire from 3 candidates"):
            kfirm_braess_check(16, 2.0, 1.5, POOL3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="need k >= 2"):  # the firm count is still checked first
        kfirm_braess_check(1, 0.5, 0.5, "not a pool")


def test_sequence_utilities_match_the_sequential_engine():
    seq = sequential_optimal_sequence(3, 2.5, 1.5, POOL4)
    replay = exact_sequential_utilities(seq.as_string(), 2.5, 1.5, POOL4)
    for mine, theirs in zip(seq.utilities, replay):
        assert mine == pytest.approx(theirs, abs=1e-12)


def test_greedy_choice_is_pointwise_optimal():
    # no firm can gain by deviating at its own slot, holding the prefix
    phi_a, phi_h = 2.5, 1.5
    seq = sequential_optimal_sequence(3, phi_a, phi_h, POOL4)
    s = seq.as_string()
    for slot in range(3):
        flipped = s[:slot] + ("H" if s[slot] == "A" else "A") + s[slot + 1:]
        own = exact_sequential_utilities(s, phi_a, phi_h, POOL4)[slot]
        dev = exact_sequential_utilities(flipped, phi_a, phi_h, POOL4)[slot]
        assert own >= dev - 1e-12


def test_binary_counter_scan_counts_up():
    report = binary_counter_scan(1.5, (1.1, 1.3, 1.5, 2.0, 3.0, 8.0), 2, POOL4)
    assert report.monotone_nondecreasing
    assert report.first_violation is None
    values = [p.sequence.binary_value for p in report.points]
    assert values == sorted(values)
    assert values[0] == 0  # weaker algorithm: everybody goes independent
    assert values[-1] >= 2  # strong algorithm: the first firm runs it


def test_binary_counter_scan_records_its_first_violation(monkeypatch):
    import monoculture.solver as solver

    sequences = [StrategySequence("AH"), StrategySequence("HA")]
    monkeypatch.setattr(solver, "_optimal_sequences", lambda k, grid, phi_h, pool: sequences)
    report = binary_counter_scan(1.5, (2.0, 2.1), 2, POOL4)
    assert not report.monotone_nondecreasing
    assert report.first_violation == {"index": 1, "phi_a_prev": 2.0, "phi_a": 2.1,
                                      "value_prev": 2, "value": 1}


def test_binary_counter_scan_validates_the_grid():
    with pytest.raises(ValueError):
        binary_counter_scan(1.5, (2.0, 1.5), 2, POOL4)


@st.composite
def hiring_cases(draw):
    """A pool of 2..7 candidates, k <= n firms, phi_h and an increasing
    phi_a grid of 1..8 points."""
    n = draw(st.integers(2, 7))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True))
    phis = st.floats(1.01, 20.0)
    grid = sorted(draw(st.lists(phis, min_size=1, max_size=8, unique=True)))
    return CandidatePool(tuple(sorted(values, reverse=True))), draw(st.integers(1, n)), draw(phis), grid


@settings(deadline=None, max_examples=60)
@given(hiring_cases())
def test_every_scan_point_equals_its_one_row_call(case):
    # a scan runs its grid as the rows of one batched recursion
    pool, k, phi_h, grid = case
    for point in binary_counter_scan(phi_h, grid, k, pool).points:
        one = sequential_optimal_sequence(k, point.phi_a, phi_h, pool)
        assert point.sequence.choices == one.choices
        assert point.sequence.utilities == one.utilities


@settings(deadline=None, max_examples=40)
@given(hiring_cases(), st.data())
def test_every_fixed_sequence_row_equals_its_replay(case, data):
    # a k-firm check runs all 2^k sequences as one prefix tree of rows; any
    # list of sequences, repeated or out of order, runs the same way
    pool, k, phi_h, grid = case
    phi_a = grid[-1]
    every = list(product("HA", repeat=k))
    some = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=9))
    for sequences in (every, some):
        rows = _sequence_rows(sequences, phi_a, phi_h, pool)
        for seq, row in zip(sequences, rows):
            assert row.tolist() == exact_sequential_utilities(seq, phi_a, phi_h, pool)
    if k >= 2:
        rep = kfirm_braess_check(k, phi_a, phi_h, pool)
        assert rep.all_a_utilities == tuple(exact_sequential_utilities("A" * k, phi_a, phi_h, pool))
        assert rep.all_h_utilities == tuple(exact_sequential_utilities("H" * k, phi_a, phi_h, pool))
        best = rep.best_average_sequence
        assert best.utilities == tuple(exact_sequential_utilities(best.choices, phi_a, phi_h, pool))


@settings(deadline=None, max_examples=40)
@given(hiring_cases(), st.integers(1, 3))
def test_a_run_split_across_batches_equals_the_unsplit_run(case, per_batch):
    pool, k, phi_h, grid = case
    sequences = list(product("HA", repeat=k))
    scan = binary_counter_scan(phi_h, grid, k, pool)
    rows = _sequence_rows(sequences, grid[0], phi_h, pool)
    peak = max(math.comb(pool.n, m) << m for m in range(k + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_engine, "MAX_LEVEL_STATES", peak * per_batch)
        assert _sequential_values(k, grid, phi_h, pool)[1] == per_batch
        assert binary_counter_scan(phi_h, grid, k, pool) == scan
        assert (_sequence_rows(sequences, grid[0], phi_h, pool) == rows).all()


def test_an_empty_scan_checks_no_other_argument():
    # no phi_a, no recursion: a bad phi_h, k or pool goes unread
    for phi_h, k, pool in ((0.5, 5, POOL3), (2.0, 0, POOL3), (2.0, 2, "not a pool")):
        assert binary_counter_scan(phi_h, [], k, pool) == ScanReport(phi_h, (), True, None)


FIGURE4_VALUES = (0.8802603238735085, 0.7930895096001102, 0.4780680736602443,
                  0.4717689954978974, 0.4629054887939623, 0.04432299121099936)


@pytest.mark.parametrize("values, k, phi_a, phi_h, choices, utilities", [
    (FIGURE4_VALUES, 5, 2.3, 2.0, "AAHAH",
     (0.7804443176312703, 0.6847748592244671, 0.5758424216587302, 0.48199208572340485,
      0.3891368488417372)),
    ((1.0, 0.7, 0.3, 0.0), 3, 1.6, 1.3, "AAA",
     (0.6879861711322386, 0.5644047355832044, 0.43559526441679564)),
    ((0.95, 0.8, 0.61, 0.5, 0.33, 0.2, 0.04), 7, 9.5, 5.0, "AAAAAAH",
     (0.9319543230353247, 0.7928928571198788, 0.6175716710182761, 0.4944068817256233,
      0.3341638672775385, 0.20051353472938746, 0.058496865093973824)),
])
def test_sequences_keep_their_recorded_utilities(values, k, phi_a, phi_h, choices, utilities):
    # recorded before the recursion was batched; each scan row must match too
    seq = sequential_optimal_sequence(k, phi_a, phi_h, CandidatePool(values))
    assert seq.as_string() == choices and seq.utilities == utilities
    scan = binary_counter_scan(phi_h, (phi_a, phi_a * 1.5), k, CandidatePool(values))
    assert scan.points[0].sequence == seq


# ---------------------------------------------------------------- k firms


def test_kfirm_acceptance_instance_numbers():
    d = CandidateDistribution.uniform(0.0, 1.0, 4)
    rep = kfirm_braess_check(3, 2.0, 1.75, d)
    assert rep.all_a_average == pytest.approx(0.5511111111111111, abs=1e-12)
    assert rep.all_h_average == pytest.approx(0.5523079332838666, abs=1e-12)
    assert rep.all_h_average > rep.all_a_average
    assert rep.a_strictly_dominant
    assert rep.braess
    assert rep.all_a_equilibrium and not rep.all_h_equilibrium
    assert set(rep.detail["profile_margins"]) == {"AA", "AH", "HA", "HH"}
    assert all(m > 0 for m in rep.detail["profile_margins"].values())


def test_kfirm_averages_recompute_from_the_sequential_engine():
    d = CandidateDistribution.uniform(0.0, 1.0, 4)
    rep = kfirm_braess_check(3, 2.0, 1.75, d)
    all_a = exact_sequential_utilities("AAA", 2.0, 1.75, d)
    all_h = exact_sequential_utilities("HHH", 2.0, 1.75, d)
    assert rep.all_a_average == pytest.approx(sum(all_a) / 3, abs=1e-15)
    assert rep.all_h_average == pytest.approx(sum(all_h) / 3, abs=1e-15)
    assert rep.all_a_utilities == tuple(all_a)
    # the best average profile beats both uniform profiles here
    assert rep.detail["best_average"] >= rep.all_h_average


def test_kfirm_requires_two_firms():
    with pytest.raises(ValueError):
        kfirm_braess_check(1, 2.0, 1.5, POOL4)


def test_kfirm_no_braess_when_the_algorithm_is_far_ahead():
    rep = kfirm_braess_check(2, 50.0, 1.2, POOL3)
    assert rep.a_strictly_dominant
    assert not rep.braess
    assert rep.all_a_average > rep.all_h_average


# ---------------------------------------------------------------- sweeps


def test_sweep_plane_shapes_and_labels():
    cells = sweep_plane((1.0, 1.5), (0.5, 1.5, 3.0), MALLOWS, POOL3)
    assert len(cells) == 6
    assert cells[0].theta_h == 1.0 and cells[0].theta_a == 0.5
    assert cells[-1].theta_h == 1.5 and cells[-1].theta_a == 3.0
    for cell in cells:
        assert cell.error is None
        assert cell.outcome.label in ("AA", "HH")
    # row-major: theta_h changes slowest
    assert [c.theta_h for c in cells] == [1.0, 1.0, 1.0, 1.5, 1.5, 1.5]


@pytest.mark.parametrize("family", [MALLOWS, GAUSSIAN], ids=["mallows", "gaussian"])
def test_sampled_sweep_labels_match_the_exact_sweep(family):
    # on the diagonal the vs-H margin is exactly 0, so a sampled table ties
    # there and must read HH, as the exact one does, not anti-coordinate
    axis = (0.5, 1.0, 1.5, 2.0, 2.5)
    exact = sweep_plane(axis, axis, family, POOL3)
    sampled = sweep_plane(axis, axis, family, POOL3, engine="mc", seed=0)
    assert [c.outcome.label for c in sampled] == [c.outcome.label for c in exact]
    assert all(c.outcome.p is None for c in sampled if c.theta_a == c.theta_h)


def test_sweep_plane_records_cell_errors_without_aborting():
    # exact tables over a pool distribution need a value-independent model
    cells = sweep_plane((1.0,), (0.5, 1.0), GAUSSIAN, CandidateDistribution.uniform(0.0, 1.0, 4))
    assert len(cells) == 2
    for cell in cells:
        assert cell.outcome is None
        assert "UnsupportedModelError" in cell.error


def test_sweep_plane_lets_programming_errors_raise(monkeypatch):
    import monoculture.solver as solver

    def broken(*args, **kwargs):
        raise IndexError("index 5 is out of bounds")

    monkeypatch.setattr(solver, "mc_utility_lattice", broken)
    with pytest.raises(IndexError):
        sweep_plane((1.0,), (0.5,), MALLOWS, POOL3, engine="mc", n_samples=1_000)


ATOMS = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.2), (0.0, 0.5), (1.0, 0.3))), 1.0)
SPREAD5 = CandidatePool((2.7, 2.319, 1.916, 1.491, 1.044))
ACCURACIES = st.one_of(st.sampled_from((0.5, 1.0, 2.0)), st.floats(0.1, 5.0))


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([(MALLOWS, SPREAD5), (RankingModelSpec.plackett_luce(1.0), SPREAD5),
                        (ATOMS, SPREAD5), (GAUSSIAN, POOL3)]),
       st.lists(ACCURACIES, min_size=1, max_size=4), st.lists(ACCURACIES, min_size=1, max_size=5))
def test_exact_sweep_cells_are_the_per_cell_tables(case, rows, cols):
    family, pool = case
    cells = sweep_plane(rows, cols, family, pool)
    assert [(c.theta_h, c.theta_a) for c in cells] == [(h, a) for h in rows for a in cols]
    for cell in cells:
        try:
            want = classify_equilibrium(exact_utility_table(cell.theta_a, cell.theta_h, family, pool))
        except ValueError as exc:
            assert cell.outcome is None and cell.error == f"{type(exc).__name__}: {exc}"
        else:
            assert cell.error is None and cell.outcome == want


# benchmark-sized lattices: 60 theta_a columns in steps of 2.8 / 60, as the
# exact-plane workload draws them, and 5 theta_h rows near figure3's taken
# from the columns, so each row's diagonal cell is a one-accuracy table
BENCH_COLS = tuple(0.42 + 2.8 / 60 * j for j in range(60))
BENCH_ROWS = tuple(BENCH_COLS[j] for j in (1, 8, 17, 26, 34))
OWN_ENTRIES = operator.attrgetter("u_first_a", "u_first_h", "u_aa")


@pytest.mark.parametrize("family, pool", [
    (MALLOWS, SPREAD5),
    (RankingModelSpec.plackett_luce(1.0), CandidatePool((0.97, 0.83, 0.71, 0.52, 0.38, 0.21, 0.06))),
    (RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.06), (0.0, 0.88), (1.0, 0.06))), 1.0),
     CandidatePool((2.81, 2.37, 1.93, 1.18, 0.74, 0.22))),
], ids=["mallows_n5", "pl_n7", "atoms3_n6"])
def test_a_benchmark_sized_lattice_holds_its_one_cell_tables(family, pool):
    # the lattice's row dots must not depend on how many accuracies it stacks.
    # A diagonal cell's cross entries come from a 1 x 1 product in its own
    # table, whose last bits still depend on the BLAS kernel (ROADMAP item 2)
    lattice = exact_utility_lattice(BENCH_ROWS, BENCH_COLS, family, pool)
    for theta_h, row in zip(BENCH_ROWS, lattice):
        for theta_a, cell in zip(BENCH_COLS, row):
            want = exact_utility_table(theta_a, theta_h, family, pool)
            if theta_a == theta_h:
                assert OWN_ENTRIES(cell) == OWN_ENTRIES(want), theta_h
            else:
                assert cell == want, (theta_h, theta_a)


def test_exact_sweep_records_a_failing_accuracy_on_its_own_cells():
    # under +-1 atoms on (1, 0.5, 0), theta 4 ties candidates 2 and 3
    # (0.5 - 1/4 = 0 + 1/4) and theta 2 ties candidates 1 and 3 (1 - 1/2 = 0 + 1/2)
    family = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.5), (1.0, 0.5))), 1.0)
    cells = sweep_plane((1.0, 2.0, 3.0), (0.5, 4.0, 1.0), family, POOL3)
    for cell in cells:
        if 2.0 in (cell.theta_a, cell.theta_h) or cell.theta_a == 4.0:
            with pytest.raises(TieError) as err:
                exact_utility_table(cell.theta_a, cell.theta_h, family, POOL3)
            assert cell.outcome is None and cell.error == f"TieError: {err.value}"
        else:
            assert cell.error is None and cell.outcome is not None
    # where both accuracies fail, theta_a's error is the cell's
    assert "candidates 2 and 3" in cells[4].error
    assert "candidates 1 and 3" in cells[3].error


def test_exact_sweep_lets_programming_errors_raise(monkeypatch):
    import monoculture.exact as exact

    def broken(family, thetas, x):
        raise IndexError("index 5 is out of bounds")

    # the batched pmf kernel serves whole lattices and one-cell tables alike
    monkeypatch.setattr(exact, "_top_two_pmfs", broken)
    with pytest.raises(IndexError):
        sweep_plane((1.0,), (0.5,), MALLOWS, POOL3)
    with pytest.raises(IndexError):
        exact_utility_table(0.5, 1.0, MALLOWS, POOL3)


def test_exact_sweep_classifies_each_cell_once_in_row_major_order(monkeypatch):
    import monoculture.solver as solver

    seen = []
    classify = solver.classify_equilibrium
    monkeypatch.setattr(solver, "classify_equilibrium", lambda table: seen.append(table) or classify(table))
    rows, cols = (1.0, 1.5, 0.7), (0.5, 1.5, 3.0, 1.0)
    sweep_plane(rows, cols, MALLOWS, POOL4)
    assert seen == [exact_utility_table(a, h, MALLOWS, POOL4) for h in rows for a in cols]


# outcomes of exact lattices recorded before lattice pmfs were batched; every
# field must stay bit-identical (the atom cases include a tying accuracy)
PINNED_CASES = {
    "mallows_n5": (MALLOWS, (2.7, 2.319, 1.916, 1.491, 1.044), (0.5, 1.3), (0.3, 0.9, 2.2)),
    "pl_n7": (RankingModelSpec.plackett_luce(1.0), (3.1, 2.6, 2.05, 1.7, 0.95, 0.4, -0.3),
              (0.6, 1.8), (0.4, 1.1, 3.5)),
    "atoms3_n5": (ATOMS, (2.0, 1.5, 1.25, 0.5, 0.0), (0.7, 1.3), (0.9, 4.0, 2.9)),
    "atoms4_n6": (RankingModelSpec.rum(NoiseSpec.discrete(
        ((-1.5, 0.1), (-0.25, 0.4), (0.5, 0.3), (2.0, 0.2))), 1.0),
        (1.9, 1.45, 1.1, 0.62, 0.3, -0.15), (0.55, 1.7), (0.35, 1.23, 2.6)),
    "gaussian_n3": (GAUSSIAN, (1.0, 0.5, 0.0), (0.8, 1.5), (0.6, 1.2, 2.5)),
}
PINNED_OUTCOMES = {
    'mallows_n5': [
        ('HH', None, 4.104695644061263, 4.300114698163184, -0.22384269859094807, -0.19376765906542293, 0.0, 0.0),
        ('AA', None, 4.47493405959035, 4.300114698163184, 0.2175393071887317, 0.2664587056160297, 0.0, 0.0),
        ('AA', None, 4.768483208988547, 4.300114698163184, 0.578791045501708, 0.6265548696919554, 0.0, 0.0),
        ('HH', None, 4.104695644061263, 4.653863091525877, -0.6546159935233264, -0.6148776650103498, 0.0, 0.0),
        ('HH', None, 4.47493405959035, 4.653863091525877, -0.21134542141160928, -0.16336435381086556, 0.0, 0.0),
        ('AA', None, 4.768483208988547, 4.653863091525877, 0.16023169343019372, 0.1958813352659705, 0.0, 0.0),
    ],
    'pl_n7': [
        ('HH', None, 3.8532578193351927, 4.2058255498622845, -0.38636737639279595, -0.386867329794343, 0.0, 0.0),
        ('AA', None, 4.833237222748967, 4.2058255498622845, 0.7015967248658876, 0.7019168244280802, 0.0, 0.0),
        ('AA', None, 5.587385577473485, 4.2058255498622845, 1.6165837928743816, 1.6544163763481698, 0.0, 0.0),
        ('HH', None, 3.8532578193351927, 5.2724352401696954, -1.6035419995139133, -1.5906951928327633, 0.0, 0.0),
        ('HH', None, 4.833237222748967, 5.2724352401696954, -0.5249596698272319, -0.5231879782147537, 0.0, 0.0),
        ('AA', None, 5.587385577473485, 5.2724352401696954, 0.44053128596399027, 0.43817755589985996, 0.0, 0.0),
    ],
    'atoms3_n5': [
        ('AH_asymmetric', 0.26757841355199435, 3.075529999999999, 3.1482415999999986, -0.07302470999999944, 0.02667839999999977, 0.0, 0.0),
        'TieError: candidates 4 and 5 tie at perturbed value 0.25',
        ('AA', None, 3.4225, 3.1482415999999986, 0.4680820000000008, 0.4989947000000008, 0.0, 0.0),
        ('HH', None, 3.075529999999999, 3.276224139999999, -0.20144698999999955, -0.10216052000000087, 0.0, 0.0),
        'TieError: candidates 4 and 5 tie at perturbed value 0.25',
        ('AA', None, 3.4225, 3.276224139999999, 0.29935400000000056, 0.3707223600000007, 0.0, 0.0),
    ],
    'atoms4_n6': [
        ('HH', None, 2.1549110000000007, 2.3621220357500006, -0.21519498299999995, -0.0867900029999995, 0.0, 0.0),
        ('AA', None, 2.7525496, 2.3621220357500006, 0.4561098746599992, 0.5276322142300001, 0.0, 0.0),
        ('AA', None, 3.163780000000001, 2.3621220357500006, 0.9342881612000005, 0.9841967214500009, 0.0, 0.0),
        ('HH', None, 2.1549110000000007, 2.9679497418240004, -0.9507541140119997, -0.7812676121439992, 0.0, 0.0),
        ('HH', None, 2.7525496, 2.9679497418240004, -0.2635793051200004, -0.20587475558399992, 0.0, 0.0),
        ('AA', None, 3.163780000000001, 2.9679497418240004, 0.2506395878400012, 0.25819445017600096, 0.0, 0.0),
    ],
    'gaussian_n3': [
        ('HH', None, 1.1241556827216228, 1.186542295166882, -0.08313306518250707, -0.06359590643403434, 0.0, 0.0),
        ('AA', None, 1.2331207125767634, 1.186542295166882, 0.08559728634148067, 0.11594653544638667, 0.0, 0.0),
        ('AA', None, 1.386535252611219, 1.186542295166882, 0.3325799168074801, 0.36981715265936344, 0.0, 0.0),
        ('HH', None, 1.1241556827216228, 1.3080434846040978, -0.27537550690899915, -0.24881257694131031, 0.0, 0.0),
        ('HH', None, 1.2331207125767634, 1.3080434846040978, -0.10344495363172879, -0.07380639562183222, 0.0, 0.0),
        ('AA', None, 1.386535252611219, 1.3080434846040978, 0.15375157064001477, 0.17606736183968907, 0.0, 0.0),
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_exact_sweep_keeps_its_recorded_outcomes(case):
    family, values, rows, cols = PINNED_CASES[case]
    got = []
    for cell in sweep_plane(rows, cols, family, CandidatePool(values)):
        if cell.error is not None:
            got.append(cell.error)
            continue
        out, dom = cell.outcome, cell.outcome.detail["dominance"]
        got.append((out.label, out.p, out.welfare_aa, out.welfare_hh, dom.margin_vs_a,
                    dom.margin_vs_h, dom.stderr_vs_a, dom.stderr_vs_h))
    assert got == PINNED_OUTCOMES[case]


def test_exact_sweep_marks_only_the_invalid_accuracy_columns():
    cols = (0.5, 0.0, float("nan"), 1.5)
    cells = sweep_plane((1.0, 2.0), cols, MALLOWS, POOL3)
    for cell, j in zip(cells, [0, 1, 2, 3] * 2):
        if j in (1, 2):
            assert cell.outcome is None
            assert cell.error.startswith("UnsupportedModelError: need theta > 0")
        else:
            assert cell.error is None and cell.outcome is not None


def test_sweep_plane_mc_results_do_not_depend_on_threads(monkeypatch, pool_sizes):
    # a default sweep spreads the chunks of all its cells over the cores in
    # one pass; every cell must equal the one-worker table at the sweep's seed
    monkeypatch.setattr(estimators, "_cores", lambda: 4)
    rows, cols = (1.0, 1.2), (0.8, 1.4)
    cells = sweep_plane(rows, cols, MALLOWS, POOL3, engine="mc", n_samples=20_000, seed=11)
    assert pool_sizes == [3]  # 20,000 trials are three chunks, for every cell at once
    for cell, (i, j) in zip(cells, [(i, j) for i in range(2) for j in range(2)]):
        table = mc_utility_table(cols[j], rows[i], MALLOWS, POOL3, 20_000, 11, threads=1)
        assert cell.outcome == classify_equilibrium(table)


def _all_distinct(objects):
    return len({id(o) for o in objects}) == len(objects)


@pytest.mark.parametrize("engine", ["exact", "mc"])
def test_sweep_cells_share_no_record(engine):
    # the per-cell records are mutable, so no two cells may hold one object;
    # the theta_a grid repeats both theta_h values
    rows, cols = (1.0, 1.5), (0.5, 1.0, 1.5, 1.0)
    cells = sweep_plane(rows, cols, MALLOWS, POOL3, engine=engine, n_samples=2000, seed=3)
    assert len(cells) == 8 and all(cell.error is None for cell in cells)
    outcomes = [cell.outcome for cell in cells]
    assert _all_distinct(cells) and _all_distinct(outcomes)
    assert _all_distinct([out.detail["dominance"] for out in outcomes])
    assert _all_distinct([out.detail for out in outcomes])


def test_lattice_tables_share_no_record():
    lattice = exact_utility_lattice((1.0, 1.5), (0.5, 1.0, 1.5, 1.0), MALLOWS, POOL3)
    tables = [table for row in lattice for table in row]
    assert len(tables) == 8 and all(isinstance(t, UtilityTable) for t in tables)
    assert _all_distinct(tables)
    # equal accuracies give equal tables, each its own object
    assert tables[1] == tables[3]


def test_sweep_plane_k_firm_cells_carry_sequences():
    cells = sweep_plane((0.75,), (0.5, 1.0, 4.0), MALLOWS, POOL4, k=3)
    for cell in cells:
        assert isinstance(cell.outcome, StrategySequence)
    want = sequential_optimal_sequence(3, 1.0 + 4.0, 1.0 + 0.75, POOL4)
    assert cells[-1].outcome.as_string() == want.as_string()


def test_sweep_plane_k_firm_records_a_failing_cell():
    cells = sweep_plane((1.0,), (0.5, -0.5, 2.0), MALLOWS, POOL4, k=3)
    assert [cell.error for cell in cells] == [
        None, "UnsupportedModelError: need theta > 0 and finite, got -0.5", None]
    assert cells[1].outcome is None
    for cell in (cells[0], cells[2]):
        assert cell.outcome == sequential_optimal_sequence(3, 1.0 + cell.theta_a, 2.0, POOL4)


def test_sweep_plane_validation():
    with pytest.raises(ValueError):
        sweep_plane((1.0,), (1.0,), MALLOWS, POOL3, engine="json")
    with pytest.raises(ValueError):
        sweep_plane((1.0,), (1.0,), MALLOWS, POOL3, k=1)
    with pytest.raises(ValueError):
        sweep_plane((1.0,), (1.0,), MALLOWS, POOL3, k=3, engine="mc")
    with pytest.raises(ValueError, match="distance-based"):
        sweep_plane((1.0,), (1.0,), RankingModelSpec.plackett_luce(1.0), POOL4, k=3)


def test_mc_sweep_rejects_a_bad_seed_before_any_cell(monkeypatch):
    import monoculture.solver as solver

    def refuse(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(solver, "mc_utility_lattice", refuse)
    with pytest.raises(ValueError, match="non-negative"):
        sweep_plane((1.0,), (1.0, 2.0), MALLOWS, POOL3, engine="mc", n_samples=1000, seed=-1)
    # the exact engine reads no seed
    assert sweep_plane((1.0,), (2.0,), MALLOWS, POOL3, seed=-1)[0].error is None


def test_sweep_plane_mc_cells_need_two_trials():
    # a float count, even a whole one, is refused on every cell, not by range()
    for n_samples in (0, 1, 1e4, np.float64(1e4)):
        (cell,) = sweep_plane((1.0,), (1.5,), MALLOWS, POOL3, engine="mc", n_samples=n_samples)
        assert cell.outcome is None
        assert "n_samples >= 2" in cell.error
