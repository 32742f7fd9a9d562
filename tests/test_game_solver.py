"""Two-firm equilibrium classification, the dominance crossing search, and
k-firm hiring sequences."""

import math

import pytest

from monoculture import (
    BracketError,
    CandidateDistribution,
    CandidatePool,
    NoiseSpec,
    PayoffMatrix,
    RankingModelSpec,
    StrategySequence,
    UtilityTable,
    binary_counter_scan,
    check_dominance,
    classify_equilibrium,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
    find_theta_star,
    kfirm_braess_check,
    sequential_optimal_sequence,
    sweep_plane,
)

POOL3 = CandidatePool((1.0, 0.5, 0.0))
POOL4 = CandidatePool((1.0, 0.7, 0.3, 0.0))
MALLOWS = RankingModelSpec.mallows(2.0)
GAUSSIAN = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)

SENTINELS = UtilityTable(
    u_first_a=1.0, u_first_h=2.0, u_aa=4.0, u_ah=8.0, u_ha=16.0, u_hh=32.0
)


# ---------------------------------------------------------------- payoffs


def test_payoff_matrix_wiring():
    # second-mover entries are named first-mover-then-second-mover, so my
    # payoff playing A against a rival H averages u_first_a with u_ha
    pm = PayoffMatrix.from_table(SENTINELS)
    assert pm.a_vs_a == 0.5 * (1.0 + 4.0)
    assert pm.a_vs_h == 0.5 * (1.0 + 16.0)
    assert pm.h_vs_a == 0.5 * (2.0 + 8.0)
    assert pm.h_vs_h == 0.5 * (2.0 + 32.0)
    assert pm.payoff("A", "H") == pm.a_vs_h
    assert pm.payoff("h", "a") == pm.h_vs_a


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
    pm = PayoffMatrix.from_table(t)
    own_a = out.p * pm.a_vs_a + (1 - out.p) * pm.a_vs_h
    own_h = out.p * pm.h_vs_a + (1 - out.p) * pm.h_vs_h
    assert abs(own_a - own_h) < 1e-12
    assert not out.braess


def test_gaussian_scores_braess_cell_above_the_band():
    out = classify_equilibrium(exact_utility_table(1.12, 1.0, GAUSSIAN, POOL3))
    assert out.label == "AA"
    assert out.braess
    assert out.welfare_hh > out.welfare_aa
    assert out.detail["dominance"].a_strictly_dominant


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
    assert abs(res.crossing_residual) < 1e-6
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


def test_crossing_search_rejects_families_without_a_sharing_penalty():
    # softmax sharing is free, so the margin starts at zero instead of
    # negative and no crossing exists
    with pytest.raises(BracketError):
        find_theta_star(1.0, RankingModelSpec.plackett_luce(1.0), POOL3)


def test_crossing_search_validates_theta_h():
    with pytest.raises(ValueError):
        find_theta_star(0.0, MALLOWS, POOL3)


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


def test_binary_counter_scan_validates_the_grid():
    with pytest.raises(ValueError):
        binary_counter_scan(1.5, (2.0, 1.5), 2, POOL4)


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


def test_sweep_plane_records_cell_errors_without_aborting():
    cells = sweep_plane((1.0,), (0.5, 1.0), GAUSSIAN, POOL4)  # quadrature cap is n=3
    assert len(cells) == 2
    for cell in cells:
        assert cell.outcome is None
        assert "UnsupportedModelError" in cell.error


def test_sweep_plane_lets_programming_errors_raise(monkeypatch):
    import monoculture.solver as solver

    def broken(*args, **kwargs):
        raise IndexError("index 5 is out of bounds")

    monkeypatch.setattr(solver, "mc_utility_table", broken)
    with pytest.raises(IndexError):
        sweep_plane((1.0,), (0.5,), MALLOWS, POOL3, engine="mc", n_samples=1_000)


def test_sweep_plane_mc_results_do_not_depend_on_threads():
    kwargs = dict(engine="mc", n_samples=20_000, seed=11)
    single = sweep_plane((1.0,), (0.8, 1.4), MALLOWS, POOL3, threads=1, **kwargs)
    multi = sweep_plane((1.0,), (0.8, 1.4), MALLOWS, POOL3, threads=4, **kwargs)
    for a, b in zip(single, multi):
        assert a.outcome.label == b.outcome.label
        assert a.outcome.welfare_aa == b.outcome.welfare_aa
        assert a.outcome.welfare_hh == b.outcome.welfare_hh


def test_sweep_plane_k_firm_cells_carry_sequences():
    cells = sweep_plane((0.75,), (0.5, 1.0, 4.0), MALLOWS, POOL4, k=3)
    for cell in cells:
        assert isinstance(cell.outcome, StrategySequence)
    want = sequential_optimal_sequence(3, 1.0 + 4.0, 1.0 + 0.75, POOL4)
    assert cells[-1].outcome.as_string() == want.as_string()


def test_sweep_plane_validation():
    with pytest.raises(ValueError):
        sweep_plane((1.0,), (1.0,), MALLOWS, POOL3, engine="json")
    with pytest.raises(ValueError):
        sweep_plane((1.0,), (1.0,), MALLOWS, POOL3, k=1)
    with pytest.raises(ValueError):
        sweep_plane((1.0,), (1.0,), MALLOWS, POOL3, k=3, engine="mc")
