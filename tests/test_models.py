"""Distance-based, noisy-score, and softmax ranking families.

Closed forms and the enumerated pmfs are checked against the brute-force
oracles of tests/oracles.py, the ranking sampler against the exact pmfs,
and the score-noise machinery against quadrature. Orders are 0-based.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from monoculture import (
    CandidatePool,
    NoiseSpec,
    RankingModelSpec,
    TieError,
    UnsupportedModelError,
    UnsupportedNoiseError,
    conditional_order_probability,
    exact_selection_pmf,
    mallows_perm_probs,
    permutation_probabilities,
    sample_rankings,
    well_ordered_check,
)
from monoculture.permspace import perm_space
from tests.oracles import (
    all_orders,
    inversions,
    luce_pmf,
    mallows_block_first_choice,
    mallows_normalizer,
    mallows_pmf,
)


def by_order(probs, n):
    """Row probabilities of the permutation table, keyed by order."""
    return dict(zip(map(tuple, perm_space(n).perms.tolist()), probs))


def frequencies(orders):
    rows, counts = np.unique(orders, axis=0, return_counts=True)
    return {tuple(row): c / len(orders) for row, c in zip(rows.tolist(), counts)}


def pools_of(pool, size):
    return np.broadcast_to(pool.as_array(), (size, pool.n))


# ---------------------------------------------------------------- noise


def test_noise_spec_validation():
    NoiseSpec.discrete(((-1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(UnsupportedNoiseError):
        NoiseSpec.discrete(((-1.0, 0.6), (1.0, 0.5)))
    with pytest.raises(UnsupportedNoiseError):
        NoiseSpec.discrete(((-1.0, -0.1), (1.0, 1.1)))


NON_FINITE_ATOMS = [((bad, 0.5), (1.0, 0.5)) for bad in (math.nan, math.inf, -math.inf)] + [
    ((0.0, bad), (1.0, 0.5)) for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("atoms", NON_FINITE_ATOMS, ids=[
    "nan_value", "inf_value", "neg_inf_value", "nan_prob", "inf_prob", "neg_inf_prob"])
def test_noise_spec_refuses_non_finite_atoms(atoms):
    # NaN passes the sign and sum checks, since every comparison with it is False
    with pytest.raises(UnsupportedNoiseError, match="must be finite"):
        NoiseSpec.discrete(atoms)


@pytest.mark.parametrize("noise", [NoiseSpec.gaussian(), NoiseSpec.laplacian(), NoiseSpec.gumbel()])
def test_continuous_noise_is_unit_variance_and_consistent(noise):
    rng = np.random.default_rng(5)
    draws = noise.sample(rng, 200_000)
    assert abs(draws.var() - 1.0) < 0.02
    # cdf matches empirical distribution
    for q in (-1.0, 0.0, 0.7):
        assert abs(noise.cdf(q) - (draws <= q).mean()) < 0.005
    # pdf integrates to cdf increments (breakpoint at 0 for the kinked density)
    val, _ = integrate.quad(noise.pdf, -8.0, 0.3, points=[0.0], limit=200)
    assert abs(val - (noise.cdf(0.3) - noise.cdf(-8.0))) < 1e-7


def test_discrete_noise_has_no_density():
    atoms = NoiseSpec.discrete(((-1.0, 0.5), (1.0, 0.5)))
    assert not atoms.is_continuous
    rng = np.random.default_rng(0)
    draws = atoms.sample(rng, 10_000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


# ---------------------------------------------------------------- mallows


def test_mallows_pmf_n3_phi2_enumeration_values():
    probs = by_order(mallows_perm_probs(2.0, 3), 3)
    assert abs(probs[(0, 1, 2)] - 8 / 21) < 1e-15
    assert abs(probs[(2, 1, 0)] - 1 / 21) < 1e-15


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("phi", [1.1, 2.0, 5.0])
def test_mallows_pmf_sums_to_one_and_normalizer_matches_enumeration(n, phi):
    space = perm_space(n)
    enum_z = float(((1.0 / phi) ** space.inversions.astype(float)).sum())
    assert abs(mallows_normalizer(phi, n) - enum_z) / enum_z < 1e-12
    assert abs(mallows_perm_probs(phi, n).sum() - 1.0) < 1e-10


def test_mallows_pmf_concentrates_at_high_accuracy():
    assert by_order(mallows_perm_probs(1e6, 3), 3)[(0, 1, 2)] > 0.999


def test_mallows_pmf_depends_only_on_distance():
    z = mallows_normalizer(3.0, 4)
    probs = by_order(mallows_perm_probs(3.0, 4), 4)
    for order in all_orders(4):
        expected = 3.0 ** -inversions(order) / z
        assert abs(probs[order] - expected) < 1e-15


def test_mallows_sample_matches_pmf():
    n_draws = 1_000_000
    orders = sample_rankings(
        RankingModelSpec.mallows(2.0), np.zeros((n_draws, 3)), np.random.default_rng(42)
    )
    hits = np.all(orders == (0, 1, 2), axis=1).mean()
    assert abs(hits - 8 / 21) < 0.002


def test_mallows_sample_total_variation_n4():
    n_draws = 1_000_000
    orders = sample_rankings(
        RankingModelSpec.mallows(2.0), np.zeros((n_draws, 4)), np.random.default_rng(11)
    )
    got = frequencies(orders)
    tv = 0.5 * sum(abs(got.get(order, 0.0) - p) for order, p in mallows_pmf(2.0, 4).items())
    assert tv < 0.005


def test_mallows_sample_near_deterministic_at_huge_phi():
    orders = sample_rankings(
        RankingModelSpec.mallows(1e6), np.zeros((2000, 3)), np.random.default_rng(3)
    )
    assert np.all(orders == (0, 1, 2), axis=1).mean() > 0.999


def test_mallows_two_candidates():
    assert abs(by_order(mallows_perm_probs(3.0, 2), 2)[(0, 1)] - 3 / 4) < 1e-15


def first_choice(phi, n, removed=frozenset()):
    """The engine's pmf of the best-ranked survivor; the distance-based
    family ignores the pool values."""
    pool = CandidatePool(tuple(float(n - i) for i in range(n)))
    return exact_selection_pmf(RankingModelSpec.mallows(phi), pool, removed)


def brute_first_choice(phi, n, candidate, removed=frozenset()):
    """Oracle mass of orders whose first 1-based survivor is `candidate`."""
    total = 0.0
    for order, p in mallows_pmf(phi, n).items():
        top = next(c + 1 for c in order if c + 1 not in removed)
        if top == candidate:
            total += p
    return total


@pytest.mark.parametrize("n", range(2, 8))
def test_first_choice_closed_form_matches_enumeration(n):
    for phi in (1.1, 2.0, 5.0):
        pmf = first_choice(phi, n)
        for i in range(1, n + 1):
            closed = mallows_block_first_choice(phi, n, i)
            want = brute_first_choice(phi, n, i)
            assert abs(closed - want) < 1e-12
            assert abs(pmf[i - 1] - want) < 1e-12


def test_first_choice_known_values_n3():
    assert abs(first_choice(2.0, 3)[0] - 4 / 7) < 1e-15
    assert abs(first_choice(2.0, 3)[2] - 1 / 7) < 1e-15
    assert abs(first_choice(2.0, 3, {1})[1] - 2 / 3) < 1e-12


def test_first_choice_rejects_bad_arguments():
    with pytest.raises(ValueError):
        first_choice(2.0, 3, {1, 2, 3})
    with pytest.raises(ValueError):
        first_choice(2.0, 3, {4})


def test_contiguous_survivor_blocks_keep_the_closed_form():
    # removing a top or bottom run of ranks leaves a block whose relative
    # order is again the same family, so the subset closed form is exact
    for n in (4, 5, 6):
        for phi in (1.5, 2.0):
            for cut in range(1, n - 1):
                removed = frozenset(range(1, cut + 1))
                pmf = first_choice(phi, n, removed)
                m = n - cut
                for rank, cand in enumerate(range(cut + 1, n + 1), 1):
                    got = pmf[cand - 1]
                    closed = mallows_block_first_choice(phi, m, rank)
                    brute = brute_first_choice(phi, n, cand, removed)
                    assert abs(got - closed) < 1e-12
                    assert abs(got - brute) < 1e-12


def test_non_contiguous_survivors_break_the_subset_shortcut():
    # n=3, phi=2, removing the middle candidate: the naive subset closed
    # form would give (2/3, 1/3), enumeration gives (16/21, 5/21). The
    # engine must return the enumerated value.
    pmf = first_choice(2.0, 3, {2})
    assert abs(pmf[0] - 16 / 21) < 1e-12
    assert abs(pmf[0] - mallows_block_first_choice(2.0, 2, 1)) > 0.09
    assert abs(pmf[2] - 5 / 21) < 1e-12


def test_survivor_pair_mass_ratio_is_phi():
    # the two top-two orders (i then j) vs (j then i) differ in mass by a
    # factor of exactly phi for every candidate pair
    for n in (3, 4, 5):
        for phi in (1.5, 2.0, 5.0):
            mass = {}
            for order, p in by_order(mallows_perm_probs(phi, n), n).items():
                mass[order[:2]] = mass.get(order[:2], 0.0) + p
            for i, j in itertools.combinations(range(n), 2):
                assert abs(mass[(i, j)] / mass[(j, i)] - phi) < 1e-10


def test_projection_to_contiguous_blocks_is_total_variation_zero():
    # survivors form a contiguous run of ranks: the induced ranking of the
    # survivors is the same family on the block
    for n in (4, 5, 6):
        phi = 2.0
        for removed in ({0}, {n - 1}, {0, 1}, {n - 2, n - 1}, {0, n - 1}):
            survivors = [c for c in range(n) if c not in removed]
            m = len(survivors)
            contiguous = survivors[-1] - survivors[0] + 1 == m
            induced = {}
            for order, p in by_order(mallows_perm_probs(phi, n), n).items():
                key = tuple(c for c in order if c not in removed)
                induced[key] = induced.get(key, 0.0) + p
            sub = by_order(mallows_perm_probs(phi, m), m)
            rank = {c: r for r, c in enumerate(survivors)}
            tv = sum(abs(p - sub[tuple(rank[c] for c in key)]) for key, p in induced.items())
            if contiguous:
                assert tv / 2 < 1e-10
            else:
                assert tv / 2 > 1e-3  # the {first, last} gap case genuinely differs


# ---------------------------------------------------------------- softmax


def test_pl_pmf_known_two_candidate_value():
    spec = RankingModelSpec.plackett_luce(math.log(2.0))
    pool = CandidatePool((1.0, 0.0))
    assert abs(by_order(permutation_probabilities(spec, pool), 2)[(0, 1)] - 2 / 3) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_pl_pmf_sums_to_one(n):
    spec = RankingModelSpec.plackett_luce(1.3)
    pool = CandidatePool(tuple(float(n - i) / n for i in range(n)))
    probs = by_order(permutation_probabilities(spec, pool), n)
    assert abs(sum(probs.values()) - 1.0) < 1e-10
    for order, p in luce_pmf(1.3, pool.values).items():
        assert abs(probs[order] - p) < 1e-12


def test_pl_pmf_near_uniform_at_tiny_accuracy():
    spec = RankingModelSpec.plackett_luce(1e-9)
    probs = permutation_probabilities(spec, CandidatePool((1.0, 0.5, 0.0)))
    assert np.all(np.abs(probs - 1 / 6) < 1e-9)


# ---------------------------------------------------------------- noisy scores


def test_rum_sample_vanishing_noise_recovers_the_true_order():
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 1e6)
    pool = CandidatePool((1.0, 0.5, 0.0))
    orders = sample_rankings(spec, pools_of(pool, 2000), np.random.default_rng(9))
    assert np.all(orders == (0, 1, 2), axis=1).mean() > 0.999


def test_rum_sample_first_place_rate_matches_quadrature():
    theta = 1.0
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), theta)
    pool = CandidatePool((1.0, 0.5, 0.0))

    def integrand(t):
        return stats.norm.pdf(t - 1.0) * stats.norm.cdf(t - 0.5) * stats.norm.cdf(t)

    want, _ = integrate.quad(integrand, -12.0, 12.0)
    n_draws = 200_000
    orders = sample_rankings(spec, pools_of(pool, n_draws), np.random.default_rng(12))
    rate = (orders[:, 0] == 0).mean()
    se = math.sqrt(rate * (1 - rate) / n_draws)
    assert abs(rate - want) < 3 * se + 1e-9


def test_three_atom_noise_is_tie_free_on_its_pool():
    delta = 0.1
    atoms = NoiseSpec.discrete(((-1.0, delta / 2), (0.0, 1 - delta), (1.0, delta / 2)))
    spec = RankingModelSpec.rum(atoms, 1.0)
    pool = CandidatePool((1.75, 0.5, 0.0))
    sample_rankings(spec, pools_of(pool, 200), np.random.default_rng(1))  # raises on any tie


def test_discrete_noise_tie_raises_with_the_pair_named():
    atoms = NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5)))
    spec = RankingModelSpec.rum(atoms, 1.0)
    pool = CandidatePool((1.0, 0.0))  # 1 - 0.5 collides with 0 + 0.5
    with pytest.raises(TieError) as err:
        sample_rankings(spec, pools_of(pool, 200), np.random.default_rng(0))
    msg = str(err.value)
    assert "1" in msg and "2" in msg


def test_gumbel_noise_reduces_to_the_softmax_family():
    # gumbel scores with accuracy theta rank like the softmax family with
    # accuracy theta * pi / sqrt(6) (the unit-variance rescale)
    theta = 0.8
    spec = RankingModelSpec.rum(NoiseSpec.gumbel(), theta)
    pl = RankingModelSpec.plackett_luce(theta * math.pi / math.sqrt(6.0))
    pool = CandidatePool((1.0, 0.4, 0.0))
    n_draws = 1_000_000
    got = frequencies(sample_rankings(spec, pools_of(pool, n_draws), np.random.default_rng(21)))
    for order, want in by_order(permutation_probabilities(pl, pool), 3).items():
        se = math.sqrt(want * (1 - want) / n_draws)
        assert abs(got.get(order, 0.0) - want) < 4 * se


# ---------------------------------------------------------------- truncated order


def test_laplace_truncated_order_probability_case_one_is_exactly_half():
    lap = NoiseSpec.laplacian()
    for a in (0.3, 0.0, -2.0):
        assert conditional_order_probability(lap, 1.0, 0.3, 1.2, a) == 0.5


def test_truncated_order_probability_approaches_the_unconditional_value():
    for noise in (NoiseSpec.gaussian(), NoiseSpec.laplacian()):
        far = conditional_order_probability(noise, 1.0, 0.0, 1.0, 50.0)
        # unconditional Pr[X_i > X_j]: difference of two unit-variance draws
        if noise.kind == "gaussian":
            want = stats.norm.cdf(1.0 / math.sqrt(2.0))
        else:
            def integrand(t):
                return noise.pdf(t - 1.0) * noise.cdf(t)
            want, _ = integrate.quad(integrand, -30.0, 30.0, points=[0.0, 1.0], limit=200)
        assert abs(far - want) < 1e-7
        assert far > 0.5


def test_laplace_closed_form_matches_direct_quadrature():
    lap = NoiseSpec.laplacian()
    xi, xj, theta = 1.0, 0.2, 1.4
    for a in (0.5, 0.9, 1.3, 2.5):
        # Pr[Xj < Xi <= a] / (Pr[Xi <= a] Pr[Xj <= a]) with X = x + eps/theta
        kinks = [t for t in (xj, xi) if t < a]
        top, _ = integrate.quad(lambda t: lap.pdf((t - xi) * theta) * theta
                                * lap.cdf((t - xj) * theta), -40.0, a,
                                points=kinks, limit=200)
        pi_below = lap.cdf((a - xi) * theta)
        pj_below = lap.cdf((a - xj) * theta)
        want = top / (pi_below * pj_below)
        got = conditional_order_probability(lap, xi, xj, theta, a)
        assert abs(got - want) < 1e-8


@pytest.mark.parametrize("kind", ["gaussian", "laplacian"])
def test_truncated_order_probability_nondecreasing_in_cutoff(kind):
    noise = NoiseSpec.gaussian() if kind == "gaussian" else NoiseSpec.laplacian()
    grid = [-1.5 + 0.05 * i for i in range(80)]
    values = [conditional_order_probability(noise, 1.0, 0.0, 1.0, a) for a in grid]
    diffs = np.diff(values)
    assert diffs.min() >= -1e-9


def test_truncated_order_probability_rejects_bad_input():
    with pytest.raises(UnsupportedNoiseError):
        conditional_order_probability(NoiseSpec.gumbel(), 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        conditional_order_probability(NoiseSpec.gaussian(), 0.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "laplacian"])
@pytest.mark.parametrize("theta", [math.inf, math.nan, 0.0, -1.0])
def test_truncated_order_probability_refuses_an_accuracy_outside_the_model_rule(kind, theta):
    # the rule RankingModelSpec enforces: 0 < theta < inf; inf once fell
    # through to a ZeroDivisionError in the gaussian transform
    noise = NoiseSpec.gaussian() if kind == "gaussian" else NoiseSpec.laplacian()
    with pytest.raises(UnsupportedModelError, match="need theta > 0 and finite"):
        conditional_order_probability(noise, 1.0, 0.5, theta, 0.8)


# ---------------------------------------------------------------- well-ordered


def test_well_ordered_gaussian_known_quadruple():
    assert well_ordered_check(NoiseSpec.gaussian(), 2.0, 1.0, 1.0, 0.0)


def test_well_ordered_random_quadruples_never_fail():
    rng = np.random.default_rng(8)
    for noise in (NoiseSpec.gaussian(), NoiseSpec.laplacian()):
        for _ in range(1000):
            a, b = sorted(rng.uniform(-3, 3, 2))[::-1]
            c, d = sorted(rng.uniform(-3, 3, 2))[::-1]
            if a == b or c == d:
                continue
            assert well_ordered_check(noise, a, b, c, d)


def test_well_ordered_laplace_equality_region_counts_as_holding():
    # both shifts on the same side outside [b, a]: the four densities pair
    # up and the comparison is an exact tie
    assert well_ordered_check(NoiseSpec.laplacian(), 3.0, 2.0, 1.0, 0.0)


def test_well_ordered_gaussian_strict_when_gaps_positive():
    # gaussian factorizes to exp(2(a-b)(c-d)) > 1, so strictness holds
    # whenever both gaps are positive
    g = NoiseSpec.gaussian()
    lhs = g.pdf(2.0 - 1.5) * g.pdf(1.0 - 0.5)
    rhs = g.pdf(2.0 - 0.5) * g.pdf(1.0 - 1.5)
    assert lhs > rhs
    assert well_ordered_check(g, 2.0, 1.0, 1.5, 0.5)
