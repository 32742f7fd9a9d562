"""Acceptance suite: one test per advertised guarantee, with runtime budgets.

Each test times its own body and fails if it blows the budget for that
guarantee, so `pytest -v tests/test_acceptance.py` reads as a scoreboard.
Randomized checks pin their seeds; the expected numbers are frozen from
independent oracles (brute enumeration, closed forms, or the exact engine).
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    NoiseSpec,
    RankingModelSpec,
    check_pref_first_position,
    check_pref_weaker_competition,
    conditional_order_probability,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
    find_theta_star,
    exact_selection_pmf,
    kfirm_braess_check,
    mc_utility_table,
    sequential_optimal_sequence,
    well_ordered_check,
)
from monoculture import estimators
from monoculture.cli import b1_family, b1_polynomial, b2_family, main
from monoculture.exact import ENTRY_NAMES
from monoculture.solver import check_dominance
from tests.oracles import all_orders, inversions, mallows_block_first_choice, mallows_normalizer

# printouts recorded from the CLI; seeded, and the same bytes under the
# SkylakeX, Haswell and Prescott BLAS kernels
GOLDEN = Path(__file__).parent / "golden"

# Three fixed score pools drawn once from default_rng(20260821).uniform(0, 1, 3)
# and sorted best-first; frozen here so reruns probe identical instances.
RUM_POOLS = (
    (0.7843988303308457, 0.6115921642475088, 0.11282313973346281),
    (0.6072391907050915, 0.5563263117069319, 0.2908942437412092),
    (0.9859516980169792, 0.5989082404823219, 0.25172790083929875),
)

# 20 fixed (n, theta_a, theta_h, pool) instances from default_rng(13):
# n uniform on 2..5, accuracies uniform on [0.3, 3], pools sorted uniforms.
MC_VS_EXACT_INSTANCES = (
    (5, 1.957, 0.307, (0.946466, 0.855303, 0.811023, 0.261446, 0.077199)),
    (5, 1.483, 2.508, (0.984803, 0.910407, 0.813661, 0.286297, 0.082408)),
    (4, 0.97, 2.397, (0.814007, 0.51775, 0.497867, 0.11704)),
    (3, 2.98, 0.381, (0.979228, 0.73715, 0.538343)),
    (5, 1.792, 1.779, (0.967295, 0.722327, 0.550228, 0.223101, 0.117337)),
    (4, 2.888, 2.081, (0.73923, 0.320702, 0.073962, 0.051539)),
    (4, 2.317, 2.309, (0.732651, 0.60458, 0.47789, 0.124721)),
    (3, 2.662, 1.303, (0.945713, 0.928492, 0.551567)),
    (5, 0.304, 1.431, (0.65431, 0.559465, 0.529812, 0.438948, 0.160593)),
    (3, 2.807, 2.752, (0.963389, 0.399899, 0.054515)),
    (2, 0.736, 1.166, (0.791304, 0.187229)),
    (4, 0.401, 1.274, (0.666423, 0.460925, 0.425235, 0.303157)),
    (4, 1.377, 2.967, (0.830162, 0.552981, 0.353793, 0.081062)),
    (5, 2.411, 2.27, (0.916982, 0.809235, 0.507481, 0.506979, 0.375143)),
    (5, 1.601, 1.743, (0.837301, 0.763167, 0.685334, 0.455645, 0.295693)),
    (4, 0.79, 2.427, (0.752252, 0.464823, 0.391867, 0.374877)),
    (4, 1.066, 2.214, (0.98234, 0.647627, 0.57914, 0.524396)),
    (3, 1.159, 1.146, (0.960413, 0.769893, 0.708301)),
    (4, 1.739, 1.001, (0.893267, 0.478806, 0.466342, 0.176411)),
    (3, 1.48, 1.873, (0.951529, 0.635903, 0.338674)),
)


def test_criterion_01_three_atom_noise_flips_the_shared_choice_margin():
    t0 = time.perf_counter()
    pool = CandidatePool((1.75, 0.5, 0.0))
    table = exact_utility_table(1.0, 1.0, b1_family(0.1), pool)
    diff = table.u_ah - table.u_aa
    assert diff == pytest.approx(-7.6164e-4, abs=1e-7)
    assert diff == pytest.approx(b1_polynomial(0.1, 1.75, 0.5), abs=1e-12)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_four_atom_noise_rewards_facing_the_stronger_rival():
    t0 = time.perf_counter()
    pool = CandidatePool((3.0, 2.0, 0.0))
    for delta in (0.1, 0.05):
        table = exact_utility_table(1.1, 0.9, b2_family(delta), pool)
        assert table.u_ah - table.u_hh > 0.0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_three_firm_uniform_pool_welfare_averages_pin_down():
    t0 = time.perf_counter()
    report = kfirm_braess_check(3, 2.0, 1.75, CandidateDistribution.uniform(0.0, 1.0, 4))
    assert report.all_a_average == pytest.approx(0.551, abs=2e-3)
    assert report.all_h_average == pytest.approx(0.552, abs=2e-3)
    assert report.all_h_average > report.all_a_average
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_distance_family_closed_forms_match_enumeration():
    t0 = time.perf_counter()
    for n in range(2, 7):
        orders = all_orders(n)
        pool = CandidatePool(tuple(float(n - i) for i in range(n)))
        for phi in (1.1, 2.0, 5.0):
            weights = [phi ** -inversions(o) for o in orders]
            z_brute = sum(weights)
            assert mallows_normalizer(phi, n) == pytest.approx(z_brute, rel=1e-10)
            probs = [w / z_brute for w in weights]
            pmf = exact_selection_pmf(RankingModelSpec.mallows(phi), pool)
            for cand in range(n):
                brute = sum(p for p, o in zip(probs, orders) if o[0] == cand)
                assert abs(mallows_block_first_choice(phi, n, cand + 1) - brute) < 1e-12
                assert abs(pmf[cand] - brute) < 1e-12
            # mass at (i, j, ...) over mass at (j, i, ...) is exactly phi
            for i, j in itertools.combinations(range(n), 2):
                top_ij = sum(p for p, o in zip(probs, orders) if o[:2] == (i, j))
                top_ji = sum(p for p, o in zip(probs, orders) if o[:2] == (j, i))
                assert top_ij / top_ji == pytest.approx(phi, abs=1e-10)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_softmax_family_is_blind_to_the_rival_kind():
    t0 = time.perf_counter()
    for n in range(2, 6):
        pool = CandidateDistribution.uniform(0.0, 1.0, n).mean_pool()
        for theta in (0.5, 1.0, 2.0):
            spec = RankingModelSpec.plackett_luce(theta)
            table = exact_utility_table(theta, theta, spec, pool)
            assert abs(table.u_ah - table.u_aa) < 1e-12
            assert abs(table.u_ha - table.u_hh) < 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_accuracy_crossing_search_certifies_welfare_reversal():
    t0 = time.perf_counter()
    family = RankingModelSpec.mallows(2.0)
    pool = CandidatePool((1.0, 0.5, 0.0))
    for phi_h in (1.5, 2.0, 3.0):
        theta_h = phi_h - 1.0
        cert = find_theta_star(theta_h, family, pool)
        assert abs(cert.crossing_residual) < 1e-12
        assert cert.braess_found
        assert cert.theta_prime is not None and cert.theta_prime > cert.theta_star
        table = exact_utility_table(cert.theta_prime, theta_h, family, pool)
        rep = check_dominance(table)
        assert rep.a_dominant_vs_a and rep.a_dominant_vs_h
        assert exact_welfare(table, "AA") < exact_welfare(table, "HH")
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_continuous_noise_sampling_detects_both_rival_effects():
    t0 = time.perf_counter()
    for noise in (NoiseSpec.gaussian(), NoiseSpec.laplacian()):
        spec = RankingModelSpec.rum(noise, 1.0)
        for theta in (0.5, 1.0, 2.0):
            for pi, values in enumerate(RUM_POOLS):
                pool = CandidatePool(values)
                # u_ah - u_aa at equal accuracies, u_hh - u_ah at a stronger A
                equal = check_pref_first_position(spec, theta, pool, 1_000_000, seed=700 + pi)
                assert equal.estimate.z_score_vs_zero > 3.0
                upward = check_pref_weaker_competition(spec, 1.5 * theta, theta, pool, 1_000_000,
                                                       seed=800 + pi)
                assert upward.estimate.z_score_vs_zero > 3.0
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_top_gap_sign_flips_with_heavy_tails_and_pool_size(capsys):
    t0 = time.perf_counter()
    assert main(["reproduce", "figure2"]) == 0
    assert time.perf_counter() - t0 < 180.0
    assert capsys.readouterr().out == (GOLDEN / "reproduce-figure2.stdout").read_text()


def test_criterion_09_welfare_gap_search_lands_in_the_three_to_five_band(capsys):
    t0 = time.perf_counter()
    assert main(["reproduce", "four-percent"]) == 0
    assert time.perf_counter() - t0 < 300.0
    assert capsys.readouterr().out == (GOLDEN / "reproduce-four-percent.stdout").read_text()


def test_criterion_10_sequential_firms_all_pick_the_more_accurate_kind():
    t0 = time.perf_counter()
    pool = CandidatePool((1.0, 0.7, 0.3, 0.0))
    for phi_a in (1.2, 1.6, 2.0):
        for ratio in (1.0, 1.3, 1.8):
            phi_h = ratio * phi_a
            seq = sequential_optimal_sequence(3, phi_a, phi_h, pool)
            assert "".join(seq.choices) == "HHH"
            base = seq.utilities
            for slot in range(3):
                letters = ["H", "H", "H"]
                letters[slot] = "A"
                devia = exact_sequential_utilities("".join(letters), phi_a, phi_h, pool)
                if ratio > 1.0:
                    assert devia[slot] < base[slot] - 1e-12
                else:
                    assert devia[slot] <= base[slot] + 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_five_firm_sequence_scan_matches_pinned_orderings():
    t0 = time.perf_counter()
    assert main(["reproduce", "figure4"]) == 0
    assert time.perf_counter() - t0 < 600.0


def test_criterion_12_noise_order_conditions_hold_on_random_and_grid_probes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    kinds = (NoiseSpec.gaussian(), NoiseSpec.laplacian())
    for _ in range(10_000):
        vals = rng.uniform(-3.0, 3.0, 4)
        a, b = max(vals[0], vals[1]), min(vals[0], vals[1])
        c, d = max(vals[2], vals[3]), min(vals[2], vals[3])
        if a == b or c == d:
            continue
        for noise in kinds:
            assert well_ordered_check(noise, a, b, c, d)
    cutoffs = np.arange(-1.5, 3.5, 0.02)
    for noise in kinds:
        for xi, xj, theta in ((1.0, 0.5, 1.0), (1.0, 0.0, 0.5), (0.7, 0.3, 2.0)):
            probs = [conditional_order_probability(noise, xi, xj, theta, a) for a in cutoffs]
            assert min(np.diff(probs)) >= -1e-9
    # cutoff at or below the worse score: survival carries no information
    for a in (0.5, 0.2, -4.0):
        assert conditional_order_probability(NoiseSpec.laplacian(), 1.0, 0.5, 1.0, a) == 0.5
    assert time.perf_counter() - t0 < 60.0


def test_criterion_13_sampling_matches_exact_tables_and_thread_count(tmp_path, monkeypatch,
                                                                    pool_sizes):
    t0 = time.perf_counter()
    family = RankingModelSpec.mallows(2.0)
    for idx, (n, theta_a, theta_h, values) in enumerate(MC_VS_EXACT_INSTANCES):
        pool = CandidatePool(values)
        exact = exact_utility_table(theta_a, theta_h, family, pool)
        mc = mc_utility_table(theta_a, theta_h, family, pool, 1_000_000, seed=9000 + idx)
        for name in ENTRY_NAMES:
            stderr = getattr(mc, "stderr_" + name)
            assert stderr > 0.0
            assert abs(getattr(mc, name) - getattr(exact, name)) < 4.0 * stderr
    outputs, pools = [], []
    for workers in (1, 4):
        monkeypatch.setattr(estimators, "_cores", lambda: workers)
        start = len(pool_sizes)
        path = tmp_path / f"workers_{workers}.csv"
        rc = main([
            "utilities", "--family", "mallows", "--theta-a", "2.0", "--theta-h", "1.5",
            "--pool", "1,0.5,0", "--engine", "mc", "--samples", "2e5",
            "--seed", "17", "--out", str(path),
        ])
        assert rc == 0
        outputs.append(path.read_bytes())
        pools.append(pool_sizes[start:])
    assert outputs[0] == outputs[1]
    assert pools == [[], [4]]  # inline on one core; 2e5 trials are 25 chunks for four
    assert time.perf_counter() - t0 < 180.0
