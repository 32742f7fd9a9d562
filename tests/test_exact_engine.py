"""Exact selection pmfs, utility tables, welfare, and sequential hiring.

The top-two pmf is checked against the (first, second) marginal of the
enumerated permutation pmf. The table built from it and the removed-set
recursion in exact_sequential_utilities are both checked against literal
double enumeration over ranking tuples; the recursion also against a
replay that branches over each human firm's pick.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    MallowsModel,
    NoiseSpec,
    RankingModelSpec,
    TieError,
    UnsupportedModelError,
    exact_selection_pmf,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
    identity_check_uah_uaa,
    mallows_first_choice_pmf,
    permutation_probabilities,
    top_two_pmf,
    uniform_order_statistic_means,
)
from monoculture.exact import ENTRY_NAMES, SequentialState, _human_steps, _levels, _pair_integrals
from monoculture.permspace import perm_space
from tests import oracles

POOL3 = CandidatePool((1.0, 0.5, 0.0))
POOL4 = CandidatePool((1.0, 0.7, 0.3, 0.0))
MALLOWS = RankingModelSpec.mallows(2.0)


# ---------------------------------------------------------------- selection


def test_selection_pmf_known_values():
    pmf = exact_selection_pmf(MALLOWS, POOL3)
    assert abs(pmf.prob_of(1) - 4 / 7) < 1e-14
    assert abs(pmf.prob_of(2) - 2 / 7) < 1e-14
    assert abs(pmf.prob_of(3) - 1 / 7) < 1e-14


def test_selection_pmf_is_a_point_mass_at_high_accuracy():
    pmf = exact_selection_pmf(RankingModelSpec.mallows(1e9), POOL3)
    assert pmf.prob_of(1) > 1.0 - 1e-8


def test_selection_pmf_tiny_accuracy_softmax_is_uniform():
    pmf = exact_selection_pmf(RankingModelSpec.plackett_luce(1e-9), POOL3)
    for c in (1, 2, 3):
        assert abs(pmf.prob_of(c) - 1 / 3) < 1e-8


@pytest.mark.parametrize(
    "spec",
    [
        RankingModelSpec.mallows(1.7),
        RankingModelSpec.plackett_luce(0.9),
        RankingModelSpec.rum(NoiseSpec.gaussian(), 1.1),
    ],
)
def test_selection_pmf_is_a_distribution(spec):
    for removed in (frozenset(), {1}, {3}, {1, 2}):
        pmf = exact_selection_pmf(spec, POOL3, removed)
        assert all(p >= 0 for p in pmf.probs)
        assert abs(sum(pmf.probs) - 1.0) < 1e-12
        for c in removed:
            assert pmf.prob_of(c) == 0.0


def test_selection_pmf_removal_shifts_mass_to_survivors():
    base = exact_selection_pmf(MALLOWS, POOL3)
    # removing the middle candidate is the non-contiguous case where the
    # naive two-candidate shortcut (2/3, 1/3) is wrong
    gapped = exact_selection_pmf(MALLOWS, POOL3, {2})
    assert gapped.prob_of(1) > base.prob_of(1)
    assert abs(gapped.prob_of(1) - 16 / 21) < 1e-12
    assert abs(gapped.prob_of(3) - 5 / 21) < 1e-12


def test_selection_pmf_rejects_bad_removals():
    with pytest.raises(ValueError):
        exact_selection_pmf(MALLOWS, POOL3, {4})
    with pytest.raises(ValueError):
        exact_selection_pmf(MALLOWS, POOL3, {1, 2, 3})


def test_selection_pmf_size_cap():
    big = CandidatePool(tuple(float(9 - i) for i in range(9)))
    with pytest.raises(UnsupportedModelError):
        exact_selection_pmf(MALLOWS, big)


def test_quadrature_permutation_probabilities_capped_at_three():
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    with pytest.raises(UnsupportedModelError):
        permutation_probabilities(spec, POOL4)


def test_permutation_probabilities_match_pmf_for_mallows():
    space = perm_space(3)
    probs = permutation_probabilities(MALLOWS, POOL3)
    want = oracles.mallows_pmf(2.0, 3)
    for row, p in zip(space.perms, probs):
        assert abs(p - want[tuple(row.tolist())]) < 1e-14


def test_gaussian_quadrature_probabilities_sum_to_one():
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 0.8)
    probs = permutation_probabilities(spec, POOL3)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert (probs > 0).all()


# ---------------------------------------------------------------- top two


THREE_ATOMS = NoiseSpec.discrete(((-1.0, 0.05), (0.0, 0.9), (1.0, 0.05)))
FOUR_ATOMS = NoiseSpec.discrete(((-10.0, 0.05), (-1.0, 0.45), (1.0, 0.45), (10.0, 0.05)))


def spread_pool(n):
    # irregular gaps, so no atom offset ties two candidates
    return CandidatePool(tuple(2.7 - 0.37 * i - 0.011 * i * i for i in range(n)))


@pytest.mark.parametrize(
    "spec,sizes",
    [
        (RankingModelSpec.mallows(1.7), range(3, 8)),
        (RankingModelSpec.plackett_luce(1.3), range(3, 8)),
        (RankingModelSpec.rum(THREE_ATOMS, 1.3), range(3, 8)),
        (RankingModelSpec.rum(FOUR_ATOMS, 0.8), range(3, 8)),
        (RankingModelSpec.rum(NoiseSpec.gaussian(), 1.1), (3,)),
        (RankingModelSpec.rum(NoiseSpec.laplacian(), 0.9), (3,)),
    ],
)
def test_top_two_pmf_is_the_pair_marginal_of_the_permutation_pmf(spec, sizes):
    for n in sizes:
        pool = spread_pool(n)
        perms = perm_space(n).perms
        want = np.zeros((n, n))
        np.add.at(want, (perms[:, 0], perms[:, 1]), permutation_probabilities(spec, pool))
        got = top_two_pmf(spec, pool.as_array())
        assert np.abs(got - want).max() < 1e-12, n


def test_top_two_pmf_raises_on_a_discrete_tie_below_the_top_two():
    # 1 - 0.5 = 0 + 0.5 ties the bottom two candidates in some ranking
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5))), 1.0)
    pool = CandidatePool((10.0, 5.0, 1.0, 0.0))
    with pytest.raises(TieError) as err:
        top_two_pmf(spec, pool.as_array())
    assert "candidates 3 and 4" in str(err.value)
    with pytest.raises(TieError):
        exact_utility_table(1.0, 1.0, spec, pool)
    # 1e16 + 0.5 rounds to 1e16: a candidate meeting itself is no tie
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((0.0, 0.5), (0.5, 0.5))), 1.0)
    assert top_two_pmf(spec, (1e16, 0.0))[0, 1] == 1.0


def test_softmax_top_two_pmf_stays_finite_at_high_accuracy():
    # the other weights sit far below rounding of the best one, so the
    # plain W - w_1 cancels to 0
    pmf = top_two_pmf(RankingModelSpec.plackett_luce(800.0), POOL3.as_array())
    assert pmf[0, 1] == 1.0
    t = exact_utility_table(800.0, 1.0, RankingModelSpec.plackett_luce(1.0), POOL3)
    assert (t.u_first_a, t.u_aa) == (1.0, 0.5)
    assert all(math.isfinite(v) for v in t.as_dict().values())


def test_cached_top_two_pmf_is_read_only():
    spec = RankingModelSpec.plackett_luce(0.7)
    x = POOL4.as_array()
    pmf = top_two_pmf(spec, x)
    assert top_two_pmf(spec, x.copy()) is pmf
    with pytest.raises(ValueError):
        pmf[0, 1] = 0.5


CONTINUOUS_KINDS = ("gaussian", "laplacian", "gumbel")


@pytest.mark.parametrize("kind", CONTINUOUS_KINDS)
def test_continuous_top_two_pmf_matches_per_pair_quad(kind):
    for n in (3, 5, 8):
        x = spread_pool(n).as_array()
        for theta in (0.3, 1.0, 5.0, 40.0):
            got = top_two_pmf(RankingModelSpec.rum(NoiseSpec(kind), theta), x)
            want = np.array(oracles.rum_top_two_quad(kind, theta, x.tolist()))
            assert np.abs(got - want).max() < 1e-10, (n, theta)


def test_gumbel_table_at_high_accuracy_raises_no_warning():
    # the far left tail of the gumbel cdf is a double exponential that
    # overflowed; sampling cannot check this case, since nearly every draw
    # gives the same ranking and a stderr of about 0
    pool = CandidatePool((3.0, 1.0, 0.0))
    family = RankingModelSpec.rum(NoiseSpec.gumbel(), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = exact_utility_table(800.0, 1.0, family, pool)
        pmf = top_two_pmf(family.with_theta(800.0), pool.as_array())
    assert all(math.isfinite(v) for v in t.as_dict().values())
    assert pmf[0, 1] >= 1.0 - 1e-12


@pytest.mark.parametrize("theta_a", [2.0, 5.0])
def test_laplacian_pair_integrals_sum_to_one_on_a_pool_quad_rejected(theta_a):
    # per-pair adaptive quad summed to 1.00000001..., past the 1e-8 check
    pool = CandidatePool((0.8277025938204418, 0.7535131086748066, 0.5495936876730595,
                          0.5381433132192782, 0.4091991363691613, 0.027559113243068367))
    family = RankingModelSpec.rum(NoiseSpec.laplacian(), 1.0)
    t = exact_utility_table(theta_a, 1.0, family, pool)
    assert all(math.isfinite(v) for v in t.as_dict().values())
    for theta in (theta_a, 1.0):
        raw = _pair_integrals(NoiseSpec.laplacian(), theta, pool.as_array())
        assert abs(raw.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------- tables


def double_enumeration_table(theta_a, theta_h, family, pool):
    """Literal enumeration over ranking pairs; the oracle for the factored
    cross terms."""
    x = pool.as_array()
    space = perm_space(pool.n)
    p_a = permutation_probabilities(family.with_theta(theta_a), pool)
    p_h = permutation_probabilities(family.with_theta(theta_h), pool)

    def first_utility(probs):
        return float(probs @ x[space.perms[:, 0]])

    def shared_second(probs):
        return float(probs @ x[space.perms[:, 1]])

    def cross_second(p_first, p_second):
        total = 0.0
        for pf, row_f in zip(p_first, space.perms):
            taken = row_f[0]
            for ps, row_s in zip(p_second, space.perms):
                pick = row_s[1] if row_s[0] == taken else row_s[0]
                total += pf * ps * x[pick]
        return total

    return {
        "u_first_a": first_utility(p_a),
        "u_first_h": first_utility(p_h),
        "u_aa": shared_second(p_a),
        "u_ah": cross_second(p_a, p_h),
        "u_ha": cross_second(p_h, p_a),
        "u_hh": cross_second(p_h, p_h),
    }


@pytest.mark.parametrize(
    "theta_a,theta_h,family,pool",
    [
        (2.0, 1.5, RankingModelSpec.mallows(2.0), POOL3),
        (3.0, 1.2, RankingModelSpec.mallows(2.0), POOL4),
        (1.0, 1.0, RankingModelSpec.mallows(5.0), POOL4),
        (1.4, 0.7, RankingModelSpec.plackett_luce(1.0), POOL3),
        (1.1, 0.9, RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0), POOL3),
        (1.0, 1.0, RankingModelSpec.rum(NoiseSpec.laplacian(), 1.0), POOL3),
    ],
)
def test_utility_table_matches_double_enumeration(theta_a, theta_h, family, pool):
    table = exact_utility_table(theta_a, theta_h, family, pool)
    want = double_enumeration_table(theta_a, theta_h, family, pool)
    for name, val in want.items():
        assert abs(table.entry(name) - val) < 1e-12


def test_table_entry_and_stderr_accessors():
    table = exact_utility_table(2.0, 1.5, MALLOWS, POOL3)
    assert table.entry("u_aa") == table.u_aa
    assert table.stderr("u_aa") == 0.0
    assert table.n_samples == 0
    with pytest.raises(KeyError):
        table.entry("u_xx")


def test_first_mover_beats_its_own_second_mover_role():
    # moving first with a ranking is weakly better than moving second
    # against an independent copy of the same ranking, strictly so for
    # any imperfect accuracy
    for phi_a, phi_h in ((2.0, 1.5), (1.2, 3.0), (2.0, 2.0)):
        t = exact_utility_table(phi_a, phi_h, MALLOWS, POOL4)
        assert t.u_first_a >= t.u_aa - 1e-15
        assert t.u_first_h > t.u_hh


def test_all_entries_stay_inside_the_value_range():
    for spec in (MALLOWS, RankingModelSpec.plackett_luce(1.0)):
        t = exact_utility_table(1.7, 0.8, spec, POOL4)
        for name in ENTRY_NAMES:
            assert 0.0 - 1e-15 <= t.entry(name) <= 1.0 + 1e-15


def test_equal_accuracy_table_is_symmetric():
    t = exact_utility_table(1.8, 1.8, MALLOWS, POOL4)
    assert abs(t.u_first_a - t.u_first_h) < 1e-14
    assert abs(t.u_ah - t.u_ha) < 1e-14
    assert abs(t.u_aa - t.u_hh) > 1e-6  # shared vs independent differ


def test_equal_accuracy_unsharing_helps_the_second_mover():
    # an independent equally-accurate ranking beats reusing the first
    # mover's ranking for the same family
    for theta in (1.3, 2.0, 5.0):
        t = exact_utility_table(theta, theta, MALLOWS, POOL4)
        assert t.u_ah > t.u_aa


def test_more_accurate_first_mover_hurts_the_human_second_mover():
    # raising the algorithmic accuracy above the human one makes following
    # an algorithmic first mover worse than following a human one
    t = exact_utility_table(3.0, 1.5, MALLOWS, POOL4)
    assert t.u_first_a > t.u_first_h
    assert t.u_hh > t.u_ah


def test_dominance_gap_for_more_accurate_algorithm():
    # playing A is a best response to either opponent strategy when the
    # algorithmic ranking is strictly more accurate (distance family):
    # vs an A opponent my payoffs are u_aa (play A) or u_ah (play H),
    # vs an H opponent they are u_ha (play A) or u_hh (play H)
    for theta_a, theta_h in ((2.5, 1.5), (2.0, 1.2), (4.0, 3.0)):
        t = exact_utility_table(theta_a, theta_h, MALLOWS, POOL4)
        assert t.u_first_a > t.u_first_h
        assert t.u_aa > t.u_ah
        assert t.u_ha > t.u_hh


def test_softmax_family_second_mover_is_indifferent_to_sharing():
    # memoryless choice: given the first pick, the shared ranking's second
    # entry is distributed like a fresh equally-accurate draw over the
    # survivors, so sharing changes nothing when the accuracies match
    for theta in (0.5, 1.0, 2.0):
        spec = RankingModelSpec.plackett_luce(1.0)
        t = exact_utility_table(theta, theta, spec, POOL4)
        assert abs(t.u_ah - t.u_aa) < 1e-12
        assert abs(t.u_ha - t.u_hh) < 1e-12


def test_identity_check_residuals_are_tiny():
    for spec in (MALLOWS, RankingModelSpec.plackett_luce(1.0),
                 RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)):
        assert identity_check_uah_uaa(1.3, 1.3, spec, POOL3) < 1e-10
    assert identity_check_uah_uaa(2.0, 2.0, MALLOWS, POOL4) < 1e-10


def test_identity_check_requires_equal_accuracy():
    with pytest.raises(ValueError):
        identity_check_uah_uaa(2.0, 1.5, MALLOWS, POOL3)


def test_three_atom_counterexample_value():
    # coarse noise on a spread-out pool: sharing beats an independent
    # equally-accurate ranking, with a closed-form margin
    delta = 0.1
    noise = NoiseSpec.discrete(((-1.0, delta / 2), (0.0, 1.0 - delta), (1.0, delta / 2)))
    family = RankingModelSpec.rum(noise, 1.0)
    pool = CandidatePool((1.75, 0.5, 0.0))
    t = exact_utility_table(1.0, 1.0, family, pool)
    assert abs((t.u_ah - t.u_aa) - (-7.61640625e-4)) < 1e-12


def test_table_size_cap():
    # the table over discrete noise enumerates every atom combination, so it
    # still refuses a joint support of 3^14 > 2e6 before allocating any of it
    big = CandidatePool(tuple(float(14 - i) for i in range(14)))
    with pytest.raises(UnsupportedModelError):
        exact_utility_table(2.0, 1.5, RankingModelSpec.rum(THREE_ATOMS, 1.0), big)


def test_mallows_table_past_the_old_size_cap_matches_the_pair_marginal():
    # n = 8: the cross terms come literally from the pair marginal of the
    # 8! enumerated rankings
    big = CandidatePool(tuple(float(8 - i) ** 1.5 for i in range(8)))
    x = big.as_array()
    perms = perm_space(8).perms

    def pair_marginal(phi):
        pmf = np.zeros((8, 8))
        np.add.at(pmf, (perms[:, 0], perms[:, 1]), permutation_probabilities(RankingModelSpec.mallows(phi), big))
        return pmf

    def cross(first, second):
        p1 = first.sum(axis=1)
        return sum(p1[c] * second[a, b] * (x[b] if a == c else x[a])
                   for c in range(8) for a in range(8) for b in range(8))

    p_a, p_h = pair_marginal(3.0), pair_marginal(2.5)
    want = {
        "u_first_a": p_a.sum(axis=1) @ x,
        "u_first_h": p_h.sum(axis=1) @ x,
        "u_aa": p_a.sum(axis=0) @ x,
        "u_ah": cross(p_a, p_h),
        "u_ha": cross(p_h, p_a),
        "u_hh": cross(p_h, p_h),
    }
    table = exact_utility_table(2.0, 1.5, MALLOWS, big)
    for name, val in want.items():
        assert abs(table.entry(name) - val) < 1e-12, name


def test_table_over_distribution_needs_value_independence():
    d = CandidateDistribution.uniform(0.0, 1.0, 3)
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    with pytest.raises(UnsupportedModelError):
        exact_utility_table(1.0, 1.0, spec, d)
    # distance family is fine: values enter only through the mean pool
    t = exact_utility_table(2.0, 1.5, MALLOWS, d)
    mean = exact_utility_table(2.0, 1.5, MALLOWS, d.mean_pool())
    assert t == mean


# ---------------------------------------------------------------- welfare


def test_welfare_formulas():
    t = exact_utility_table(2.0, 1.5, MALLOWS, POOL4)
    assert exact_welfare(t, "AA") == t.u_first_a + t.u_aa
    assert exact_welfare(t, "HH") == t.u_first_h + t.u_hh
    mixed = 0.5 * (t.u_first_a + t.u_ah) + 0.5 * (t.u_first_h + t.u_ha)
    assert exact_welfare(t, "AH") == mixed
    assert exact_welfare(t, "HA") == mixed
    with pytest.raises(ValueError):
        exact_welfare(t, "AB")


# ---------------------------------------------------------------- sequential


def test_two_firm_sequences_reproduce_the_table():
    # the distance-family accuracy knob is theta = phi - 1
    phi_a, phi_h = 2.0, 1.5
    table = exact_utility_table(phi_a - 1.0, phi_h - 1.0, RankingModelSpec.mallows(phi_a), POOL4)
    pairs = {
        "AA": (table.u_first_a, table.u_aa),
        "AH": (table.u_first_a, table.u_ah),
        "HA": (table.u_first_h, table.u_ha),
        "HH": (table.u_first_h, table.u_hh),
    }
    for seq, (first, second) in pairs.items():
        got = exact_sequential_utilities(seq, phi_a, phi_h, POOL4)
        assert abs(got[0] - first) < 1e-10
        assert abs(got[1] - second) < 1e-10


def test_single_firm_sequence_is_the_first_choice_expectation():
    phi_a, phi_h = 2.3, 1.4
    x = POOL4.as_array()
    model_a = MallowsModel(phi_a, 4)
    model_h = MallowsModel(phi_h, 4)
    want_a = sum(mallows_first_choice_pmf(model_a, c) * x[c - 1] for c in range(1, 5))
    want_h = sum(mallows_first_choice_pmf(model_h, c) * x[c - 1] for c in range(1, 5))
    assert abs(exact_sequential_utilities("A", phi_a, phi_h, POOL4)[0] - want_a) < 1e-12
    assert abs(exact_sequential_utilities("H", phi_a, phi_h, POOL4)[0] - want_h) < 1e-12


def brute_sequence_utilities(sequence, phi_a, phi_h, pool):
    """Enumerate the shared ranking and one fresh ranking per H firm."""
    n = pool.n
    x = pool.as_array()
    space = perm_space(n)
    p_a = permutation_probabilities(RankingModelSpec.mallows(phi_a), pool)
    p_h = permutation_probabilities(RankingModelSpec.mallows(phi_h), pool)
    h_slots = [i for i, s in enumerate(sequence) if s == "H"]
    totals = [0.0] * len(sequence)
    rows = space.perms
    for ai, sigma in enumerate(rows):
        wa = p_a[ai]
        for combo in itertools.product(range(len(rows)), repeat=len(h_slots)):
            w = wa * math.prod(p_h[t] for t in combo)
            taken = set()
            h_used = 0
            for slot, s in enumerate(sequence):
                ranking = sigma if s == "A" else rows[combo[h_used]]
                if s == "H":
                    h_used += 1
                pick = next(int(c) for c in ranking if int(c) not in taken)
                taken.add(pick)
                totals[slot] += w * x[pick]
    return totals


@pytest.mark.parametrize("sequence", ["".join(s) for s in itertools.product("AH", repeat=3)])
def test_sequential_recursion_matches_brute_force(sequence):
    phi_a, phi_h = 2.0, 1.5
    got = exact_sequential_utilities(sequence, phi_a, phi_h, POOL4)
    want = brute_sequence_utilities(sequence, phi_a, phi_h, POOL4)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12


def replay_sequence_utilities(sequence, phi_a, phi_h, pool):
    """Walk each shared ranking through the sequence; each H firm branches
    over its pick, weighted by the first-survivor pmf of a fresh ranking,
    which enumerates all n! rankings once per removed set."""
    n, x = pool.n, pool.as_array()
    rankings = list(itertools.permutations(range(n)))
    inversions = [sum(r[i] > r[j] for i in range(n) for j in range(i + 1, n)) for r in rankings]

    def weights(phi):
        w = [phi ** -inv for inv in inversions]
        return [v / math.fsum(w) for v in w]

    w_a, w_h = weights(phi_a), weights(phi_h)
    fresh: dict[frozenset, list[float]] = {}

    def fresh_pmf(taken):
        if taken not in fresh:
            pmf = [0.0] * n
            for ranking, w in zip(rankings, w_h):
                pmf[next(c for c in ranking if c not in taken)] += w
            fresh[taken] = pmf
        return fresh[taken]

    totals = [0.0] * len(sequence)

    def walk(shared, slot, taken, weight):
        if slot == len(sequence):
            return
        if sequence[slot] == "A":
            pick = next(c for c in shared if c not in taken)
            totals[slot] += weight * x[pick]
            walk(shared, slot + 1, taken | {pick}, weight)
            return
        for pick, q in enumerate(fresh_pmf(taken)):
            if q > 0.0:
                totals[slot] += weight * q * x[pick]
                walk(shared, slot + 1, taken | {pick}, weight * q)

    for shared, w in zip(rankings, w_a):
        walk(shared, 0, frozenset(), w)
    return totals


POOL5 = CandidatePool((1.0, 0.8, 0.45, 0.3, -0.2))
POOL6 = CandidatePool((2.0, 1.1, 0.9, 0.4, 0.0, -0.7))


@pytest.mark.parametrize(
    "sequence, pool",
    [("".join(s), POOL5) for s in itertools.product("AH", repeat=4)]
    + [("".join(s), POOL6) for s in itertools.product("AH", repeat=3)],
    ids=lambda v: f"n{v.n}" if isinstance(v, CandidatePool) else v,
)
def test_sequential_recursion_matches_the_removed_set_replay(sequence, pool):
    phi_a, phi_h = 2.3, 1.6
    got = exact_sequential_utilities(sequence, phi_a, phi_h, pool)
    want = replay_sequence_utilities(sequence, phi_a, phi_h, pool)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12


def test_sequential_validation():
    with pytest.raises(ValueError):
        exact_sequential_utilities("AB", 2.0, 1.5, POOL4)
    with pytest.raises(UnsupportedModelError):
        exact_sequential_utilities("AAAHH", 2.0, 1.5, POOL4)  # 5 firms, 4 slots
    with pytest.raises(UnsupportedModelError):
        exact_sequential_utilities("AA", 1.0, 1.5, POOL4)


def test_sequential_accepts_distributions_via_order_statistic_means():
    d = CandidateDistribution.uniform(0.0, 1.0, 4)
    means = CandidatePool(uniform_order_statistic_means(4, 0.0, 1.0))
    got = exact_sequential_utilities("AHA", 2.0, 1.5, d)
    want = exact_sequential_utilities("AHA", 2.0, 1.5, means)
    assert got == want


def test_all_human_firms_share_nothing():
    # H firms never interact through a shared ranking, so every later H
    # firm faces a strictly thinner pool: utilities strictly decrease
    got = exact_sequential_utilities("HHHH", 2.0, 2.0, POOL4)
    assert all(a > b for a, b in zip(got, got[1:]))


def test_all_algorithm_firms_walk_down_one_ranking():
    # all-A utilities equal the expected values at ranks 1..k of one draw
    phi = 2.0
    got = exact_sequential_utilities("AAAA", phi, 1.5, POOL4)
    probs = permutation_probabilities(RankingModelSpec.mallows(phi), POOL4)
    space = perm_space(4)
    x = POOL4.as_array()
    for slot in range(4):
        want = float(probs @ x[space.perms[:, slot]])
        assert abs(got[slot] - want) < 1e-12


# ---------------------------------------------------------------- properties


@st.composite
def pools(draw, min_n=3, max_n=12):
    # values at least 0.01 apart, so affine images stay strictly decreasing
    n = draw(st.integers(min_n, max_n))
    steps = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n, unique=True))
    return CandidatePool(tuple(v / 100.0 for v in sorted(steps, reverse=True)))


@settings(deadline=None, max_examples=60)
@given(pools(), st.floats(0.05, 3.0))
def test_softmax_second_mover_is_indifferent_to_sharing_at_any_n(pool, theta):
    t = exact_utility_table(theta, theta, RankingModelSpec.plackett_luce(1.0), pool)
    assert abs(t.u_ah - t.u_aa) < 1e-12
    assert abs(t.u_ha - t.u_hh) < 1e-12


@settings(deadline=None, max_examples=60)
@given(pools(max_n=9), st.floats(0.1, 3.0), st.floats(0.1, 3.0),
       st.floats(0.01, 100.0), st.floats(-100.0, 100.0))
def test_mallows_table_is_equivariant_under_positive_affine_maps(pool, theta_a, theta_h, scale, shift):
    moved = CandidatePool(tuple(scale * v + shift for v in pool.values))
    base = exact_utility_table(theta_a, theta_h, MALLOWS, pool)
    got = exact_utility_table(theta_a, theta_h, MALLOWS, moved)
    tol = 1e-12 * (abs(shift) + scale * 5.0 + 1.0)
    for name, value in base.as_dict().items():
        assert abs(got.entry(name) - (scale * value + shift)) < tol, name


@settings(deadline=None, max_examples=60)
@given(pools(max_n=10), st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-100.0, 100.0))
def test_softmax_table_shifts_with_the_pool(pool, theta_a, theta_h, shift):
    # choice probabilities depend on value differences only
    softmax = RankingModelSpec.plackett_luce(1.0)
    moved = CandidatePool(tuple(v + shift for v in pool.values))
    base = exact_utility_table(theta_a, theta_h, softmax, pool)
    got = exact_utility_table(theta_a, theta_h, softmax, moved)
    tol = 1e-12 * (abs(shift) + 6.0)
    for name, value in base.as_dict().items():
        assert abs(got.entry(name) - (value + shift)) < tol, name


@settings(deadline=None, max_examples=40)
@given(pools(), st.sampled_from(CONTINUOUS_KINDS), st.floats(0.1, 10.0), st.floats(-100.0, 100.0))
def test_continuous_top_two_pmf_is_invariant_under_shifts(pool, kind, theta, shift):
    spec = RankingModelSpec.rum(NoiseSpec(kind), theta)
    base = top_two_pmf(spec, pool.as_array())
    got = top_two_pmf(spec, pool.as_array() + shift)
    assert np.abs(got - base).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(pools(), st.sampled_from(CONTINUOUS_KINDS), st.floats(0.1, 10.0), st.floats(0.01, 100.0))
def test_continuous_top_two_pmf_is_invariant_under_scaling_pool_and_inverse_accuracy(
    pool, kind, theta, scale
):
    # theta (x_a - x_b) is all the pmf sees
    base = top_two_pmf(RankingModelSpec.rum(NoiseSpec(kind), theta), pool.as_array())
    got = top_two_pmf(RankingModelSpec.rum(NoiseSpec(kind), theta / scale), scale * pool.as_array())
    assert np.abs(got - base).max() < 1e-12


@st.composite
def sequences(draw, n):
    return "".join(draw(st.lists(st.sampled_from("AH"), min_size=1, max_size=n)))


@settings(deadline=None, max_examples=40)
@given(st.data(), pools(min_n=2, max_n=7), st.floats(1.05, 20.0), st.floats(1.05, 20.0),
       st.floats(0.01, 100.0), st.floats(-100.0, 100.0))
def test_sequential_utilities_are_equivariant_under_positive_affine_maps(
    data, pool, phi_a, phi_h, scale, shift
):
    sequence = data.draw(sequences(pool.n))
    moved = CandidatePool(tuple(scale * v + shift for v in pool.values))
    base = exact_sequential_utilities(sequence, phi_a, phi_h, pool)
    got = exact_sequential_utilities(sequence, phi_a, phi_h, moved)
    tol = 1e-12 * (abs(shift) + scale * 5.0 + 1.0)
    for g, b in zip(got, base):
        assert abs(g - (scale * b + shift)) < tol


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 7), st.floats(1.01, 50.0))
def test_sequential_tables_are_read_only(n, phi_h):
    masks, index, tops = _levels(n)
    steps = _human_steps(phi_h, n)
    arrays = [*masks, index, tops] + [a for step in steps for a in step]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1


@settings(deadline=None, max_examples=30)
@given(st.data(), st.integers(2, 7), st.floats(1.05, 20.0), st.floats(1.05, 20.0))
def test_hiring_past_the_pool_raises(data, n, phi_a, phi_h):
    state = SequentialState(phi_a, phi_h, np.linspace(1.0, 0.0, n))
    for strategy in data.draw(st.lists(st.sampled_from("AH"), min_size=n, max_size=n)):
        state.hire(strategy)
    for strategy in "AH":
        with pytest.raises(UnsupportedModelError):
            state.hire(strategy)
        with pytest.raises(UnsupportedModelError):
            state.utility_of_next(strategy)
