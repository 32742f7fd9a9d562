"""Exact selection pmfs, utility tables, welfare, and sequential hiring.

The top-two pmf is checked against the (first, second) marginal of the
enumerated permutation pmf, and for finite-atom noise against every atom
combination in exact arithmetic. The table built from it and the
(removed set, revealed set) recursion in exact_sequential_utilities are
both checked against literal double enumeration over ranking tuples; the
recursion also against a replay that branches over each human firm's
pick, and past seven candidates against enumeration of one ranking and a
Monte Carlo replay with its own sampler.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    NoiseSpec,
    PoolError,
    RankingModelSpec,
    TieError,
    UnsupportedModelError,
    check_monotonicity,
    exact_selection_pmf,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
    mallows_perm_probs,
    permutation_probabilities,
    sample_rankings,
    sweep_plane,
    top_two_pmf,
)
from monoculture.exact import (
    ENTRY_NAMES,
    SequentialState,
    _fresh_weights,
    _gauss_legendre_grid,
    _mallows_first_survivor_pmf,
    _moves,
    _support_sum,
)
from monoculture import exact as exact_engine, permspace
from monoculture.permspace import perm_space
from tests import oracles

POOL3 = CandidatePool((1.0, 0.5, 0.0))
POOL4 = CandidatePool((1.0, 0.7, 0.3, 0.0))
MALLOWS = RankingModelSpec.mallows(2.0)
THREE_ATOMS = NoiseSpec.discrete(((-1.0, 0.05), (0.0, 0.9), (1.0, 0.05)))
FOUR_ATOMS = NoiseSpec.discrete(((-10.0, 0.05), (-1.0, 0.45), (1.0, 0.45), (10.0, 0.05)))


def spread_pool(n):
    # irregular gaps, so no atom offset ties two candidates
    return CandidatePool(tuple(2.7 - 0.37 * i - 0.011 * i * i for i in range(n)))


# ---------------------------------------------------------------- selection


def test_selection_pmf_known_values():
    pmf = exact_selection_pmf(MALLOWS, POOL3)
    assert abs(pmf[0] - 4 / 7) < 1e-14
    assert abs(pmf[1] - 2 / 7) < 1e-14
    assert abs(pmf[2] - 1 / 7) < 1e-14


def test_selection_pmf_is_a_point_mass_at_high_accuracy():
    pmf = exact_selection_pmf(RankingModelSpec.mallows(1e9), POOL3)
    assert pmf[0] > 1.0 - 1e-8


def test_selection_pmf_tiny_accuracy_softmax_is_uniform():
    pmf = exact_selection_pmf(RankingModelSpec.plackett_luce(1e-9), POOL3)
    for c in (1, 2, 3):
        assert abs(pmf[c - 1] - 1 / 3) < 1e-8


FAMILIES = (
    RankingModelSpec.mallows(1.7),
    RankingModelSpec.plackett_luce(0.9),
    RankingModelSpec.rum(NoiseSpec.gaussian(), 1.1),
    RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3))), 1.3),
)


@pytest.mark.parametrize("spec", FAMILIES)
def test_selection_pmf_is_a_distribution(spec):
    # a length-n array over 0-based candidates: entries >= 0 summing to 1
    # within 1e-12, exactly 0 on removed candidates
    rng = np.random.default_rng(8)
    for n in range(2, 13):
        pool = CandidatePool(tuple(np.sort(rng.uniform(0.0, 1.0, n))[::-1]))
        for size in (0, *rng.integers(1, n, 3)):
            removed = {int(c) + 1 for c in rng.choice(n, size, replace=False)}
            pmf = exact_selection_pmf(spec, pool, removed)
            assert pmf.shape == (n,)
            assert (pmf >= 0).all()
            assert abs(math.fsum(pmf) - 1.0) <= 1e-12
            assert all(pmf[c - 1] == 0.0 for c in removed)


def test_selection_pmf_removal_shifts_mass_to_survivors():
    base = exact_selection_pmf(MALLOWS, POOL3)
    # removing the middle candidate is the non-contiguous case where the
    # naive two-candidate shortcut (2/3, 1/3) is wrong
    gapped = exact_selection_pmf(MALLOWS, POOL3, {2})
    assert gapped[0] > base[0]
    assert abs(gapped[0] - 16 / 21) < 1e-12
    assert abs(gapped[2] - 5 / 21) < 1e-12


def test_selection_pmf_rejects_bad_removals():
    with pytest.raises(ValueError):
        exact_selection_pmf(MALLOWS, POOL3, {4})
    with pytest.raises(ValueError):
        exact_selection_pmf(MALLOWS, POOL3, {1, 2, 3})


def test_selection_pmf_has_no_size_cap():
    # n = 9 raised UnsupportedModelError while the pmf enumerated all rankings
    for spec, n in itertools.product(FAMILIES, range(9, 13)):
        pmf = exact_selection_pmf(spec, spread_pool(n), {2, n})
        assert pmf.shape == (n,) and (pmf >= 0).all()
        assert abs(math.fsum(pmf) - 1.0) <= 1e-12, (spec, n)


# ------------------------------------------------------- first-survivor pmf


def _removed_sets(rng, n):
    """Empty, one drawn at random, and n - 1 members (one survivor left)."""
    drawn = rng.choice(n, int(rng.integers(1, n)), replace=False)
    single = rng.choice(n, n - 1, replace=False)
    return [(), tuple(sorted(int(c) for c in drawn)), tuple(sorted(int(c) for c in single))]


@pytest.mark.parametrize("n", range(2, 9))
def test_mallows_first_survivor_pmf_matches_enumeration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        phi = float(rng.uniform(1.0, 4.0))
        for removed0 in _removed_sets(rng, n):
            pmf = _mallows_first_survivor_pmf(phi, n, removed0)
            want = oracles.mallows_first_survivor(phi, n, set(removed0))
            assert pmf.shape == (n,) and not pmf.flags.writeable
            assert np.abs(pmf - want).max() <= 1e-12, (phi, removed0)
            assert abs(math.fsum(pmf) - 1.0) <= 1e-12
            assert (pmf >= 0).all()
            assert all(pmf[c] == 0.0 for c in removed0)


@pytest.mark.parametrize("phi, removed0", [(2.1003, (0, 1, 2, 3, 4, 7)), (1.1216, (0, 2, 3, 5, 6, 7))])
def test_distance_based_selection_pmf_is_exact_to_rounding(phi, removed0):
    # the two n = 8 cases where summing the pmf over all n! rankings was
    # furthest off, 1.2e-13 and 6.2e-14
    pool = CandidatePool(tuple(float(8 - i) for i in range(8)))
    pmf = exact_selection_pmf(RankingModelSpec.mallows(phi), pool, {c + 1 for c in removed0})
    want = oracles.mallows_first_survivor(phi, 8, set(removed0))
    assert not pmf.flags.writeable
    assert np.abs(pmf - want).max() <= 1e-15


@pytest.mark.parametrize("n, removed0", [(3, ()), (6, (0, 2)), (9, (0, 1, 2, 4)), (12, (1, 3, 5))])
def test_mallows_first_survivor_pmf_at_high_accuracy_is_the_first_survivor(n, removed0):
    pmf = _mallows_first_survivor_pmf(1e9, n, removed0)
    first = min(set(range(n)) - set(removed0))
    assert np.allclose(pmf, np.eye(n)[first], rtol=0.0, atol=1e-8)


def test_mallows_first_survivor_pmf_scales_past_enumeration():
    # 35 of 40 removed, leaving the contiguous run 20..24, whose relative
    # order is again distance-based with the same phi: the block closed form
    n, phi = 40, 1.6
    survivors = range(20, 25)
    removed0 = tuple(c for c in range(n) if c not in survivors)
    t0 = time.perf_counter()
    pmf = _mallows_first_survivor_pmf.__wrapped__(phi, n, removed0)
    assert time.perf_counter() - t0 < 1.0
    want = np.zeros(n)
    for rank, c in enumerate(survivors, start=1):
        want[c] = oracles.mallows_block_first_choice(phi, len(survivors), rank)
    assert np.abs(pmf - want).max() <= 1e-12


def _order_pmf(spec, pool):
    """The enumeration oracle of each family as a dict from order to probability."""
    x = pool.values
    if spec.kind == "plackett_luce":
        return oracles.luce_pmf(spec.theta, x)
    if spec.noise.is_continuous:
        # up to three candidates the top two fix the order
        P = oracles.rum_top_two_quad(spec.noise.kind, spec.theta, x)
        return {(a, b, *(set(range(len(x))) - {a, b})): P[a][b]
                for a, b in itertools.permutations(range(len(x)), 2)}
    perms = perm_space(len(x)).perms
    return dict(zip(map(tuple, perms.tolist()), permutation_probabilities(spec, pool)))


@pytest.mark.parametrize("spec, sizes", [
    (RankingModelSpec.plackett_luce(0.9), range(2, 9)),
    (RankingModelSpec.rum(THREE_ATOMS, 1.3), range(2, 9)),
    (RankingModelSpec.rum(FOUR_ATOMS, 0.8), range(2, 9)),
    (RankingModelSpec.rum(NoiseSpec.gaussian(), 1.1), (2, 3)),
    (RankingModelSpec.rum(NoiseSpec.laplacian(), 0.3), (2, 3)),
    (RankingModelSpec.rum(NoiseSpec.gumbel(), 5.0), (2, 3)),
], ids=["softmax", "atoms3", "atoms4", "gaussian", "laplacian", "gumbel"])
def test_selection_pmf_matches_enumeration(spec, sizes):
    rng = np.random.default_rng(21)
    for n in sizes:
        pool = spread_pool(n)
        orders = _order_pmf(spec, pool)
        for removed0 in _removed_sets(rng, n):
            want = oracles.first_survivor(orders, n, set(removed0))
            got = exact_selection_pmf(spec, pool, {c + 1 for c in removed0})
            assert np.abs(got - want).max() <= 1e-12, (n, removed0)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: getattr(s.noise, "kind", s.kind))
def test_selection_pmf_matches_sampled_first_survivors_at_ten_candidates(spec):
    n, size, removed0 = 10, 200_000, (0, 3, 4, 8)
    pool = spread_pool(n)
    orders = sample_rankings(spec, np.broadcast_to(pool.as_array(), (size, n)),
                             np.random.default_rng(13))
    picks = orders[np.arange(size), np.argmax(~np.isin(orders, removed0), axis=1)]
    got = np.bincount(picks, minlength=n) / size
    want = exact_selection_pmf(spec, pool, {c + 1 for c in removed0})
    se = np.sqrt(want * (1.0 - want) / size)
    assert (got[list(removed0)] == 0).all() and (want[list(removed0)] == 0).all()
    survivors = [c for c in range(n) if c not in removed0]
    assert (np.abs(got - want)[survivors] <= 5 * se[survivors]).all(), (got, want)


@settings(deadline=None, max_examples=40)
@given(st.data(), st.sampled_from(FAMILIES), st.sampled_from((0.3, 1.3, 3.7)))
def test_removing_more_candidates_never_lowers_a_survivors_probability(data, family, theta):
    # the first survivor of a smaller set heads the larger set's survivors
    # too, whatever the ranking model: event inclusion
    if family.kind == "rum" and not family.noise.is_continuous:
        family = RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.4), (1.0, 0.6))), 1.0)
    spec = family.with_theta(theta)  # no atom offset 2 / theta is a multiple of 0.01
    pool = data.draw(pools(min_n=2))
    n = pool.n
    order = data.draw(st.permutations(range(1, n + 1)))
    fewer = data.draw(st.integers(0, n - 2))
    more = data.draw(st.integers(fewer, n - 1))
    base = exact_selection_pmf(spec, pool, set(order[:fewer]))
    shrunk = exact_selection_pmf(spec, pool, set(order[:more]))
    assert all(shrunk[c - 1] >= base[c - 1] - 1e-12 for c in order[more:])
    alone = exact_selection_pmf(spec, pool, set(order[:-1]))
    assert abs(alone[order[-1] - 1] - 1.0) <= 1e-12


def test_no_engine_path_enumerates_rankings(monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumerated all {n}! rankings")

    monkeypatch.setattr(permspace, "PermSpace", refuse)
    permspace.perm_space.cache_clear()
    for spec in FAMILIES:
        for n in range(2, 13):
            exact_selection_pmf(spec, spread_pool(n), {1, n} if n > 2 else {1})
        assert check_monotonicity(spec, (0.5, 1.0), {2}, spread_pool(8)).detail["exact"]
        exact_utility_table(1.5, 1.0, spec, spread_pool(12))
    exact_sequential_utilities("AHAHA", 2.0, 1.5, spread_pool(9))


def test_no_engine_path_enumerates_atoms(monkeypatch):
    def refuse(noise, theta, x):
        raise AssertionError(f"enumerated {len(noise.atoms)}^{len(x)} atom combinations")

    monkeypatch.setattr(exact_engine, "_atom_enumeration", refuse)
    seven_atoms = NoiseSpec.discrete(tuple((0.1234567 * k, 1 / 7) for k in range(-3, 4)))
    spec = RankingModelSpec.rum(seven_atoms, 1.3)  # 7^10 combinations at n = 10
    pool = spread_pool(10)
    top_two_pmf(spec, pool.as_array())
    exact_selection_pmf(spec, pool, {1, 10})
    exact_utility_table(1.5, 1.0, spec, pool)
    assert all(cell.error is None for cell in sweep_plane((1.0, 2.0), (0.7, 1.5), spec, pool))
    # n = 8 is the largest pool check_monotonicity runs exactly
    assert check_monotonicity(spec, (0.5, 1.0), {2}, spread_pool(8)).detail["exact"]


@pytest.mark.parametrize("seed", range(24))
def test_discrete_top_two_pmf_matches_exact_enumeration(seed):
    # the support-point sum against every atom combination in exact arithmetic
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 5)), int(rng.integers(2, 9))
    atoms = tuple(zip(np.sort(rng.normal(size=m)).tolist(), rng.dirichlet(np.ones(m)).tolist()))
    theta, values = float(rng.uniform(0.2, 5.0)), rng.uniform(0.0, 3.0, n).tolist()
    got = top_two_pmf(RankingModelSpec.rum(NoiseSpec.discrete(atoms), theta), values)
    want = oracles.atom_top_two(atoms, theta, values)
    assert max(abs(Fraction(got[a, b]) - want[a][b]) for a in range(n) for b in range(n)) <= 1e-15


@pytest.mark.parametrize("pool", [CandidatePool((1.0, 0.0)), POOL3, POOL4], ids=["n2", "n3", "n4"])
def test_continuous_noise_has_no_permutation_probabilities(pool):
    spec = RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)
    with pytest.raises(UnsupportedModelError):
        permutation_probabilities(spec, pool)


def test_mallows_permutation_probabilities_are_fresh_arrays():
    probs = permutation_probabilities(MALLOWS, POOL3)
    probs *= 2.0
    assert abs(permutation_probabilities(MALLOWS, POOL3).sum() - 1.0) < 1e-15
    assert abs(mallows_perm_probs(2.0, 3).sum() - 1.0) < 1e-15


def test_permutation_probabilities_match_pmf_for_mallows():
    space = perm_space(3)
    probs = permutation_probabilities(MALLOWS, POOL3)
    want = oracles.mallows_pmf(2.0, 3)
    for row, p in zip(space.perms, probs):
        assert abs(p - want[tuple(row.tolist())]) < 1e-14


def _raw_support_sum(noise, theta, x):
    """The continuous top-two pmf before top_two_pmf divides it by its total."""
    nodes, weights = _gauss_legendre_grid(theta, x)
    z = theta * (nodes[:, None] - x)
    cdf = noise.cdf(z)
    return _support_sum(weights[:, None] * theta * noise.pdf(z), cdf, 1.0 - cdf)


def test_gaussian_quadrature_probabilities_sum_to_one():
    raw = _raw_support_sum(NoiseSpec.gaussian(), 0.8, POOL3.as_array())
    assert abs(raw.sum() - 1.0) < 1e-12
    assert (raw[~np.eye(3, dtype=bool)] > 0).all()


# ---------------------------------------------------------------- top two


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
        if spec.kind == "rum" and spec.noise.is_continuous:
            # continuous noise has no permutation pmf, so the per-pair quad
            # oracle stands in for it
            want = np.array(oracles.rum_top_two_quad(spec.noise.kind, spec.theta, pool.values))
        else:
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
    assert str(err.value) == "candidates 3 and 4 tie at perturbed value 0.5"
    with pytest.raises(TieError):
        exact_utility_table(1.0, 1.0, spec, pool)
    # 1e16 + 0.5 rounds to 1e16: a candidate meeting itself is no tie
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((0.0, 0.5), (0.5, 0.5))), 1.0)
    assert top_two_pmf(spec, (1e16, 0.0))[0, 1] == 1.0


def test_selection_pmf_finds_ties_without_a_top_two_pmf(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a top-two pmf")

    monkeypatch.setattr(exact_engine, "_discrete_rum_top_two", refuse)
    spec = RankingModelSpec.rum(NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5))), 1.0)
    pool = CandidatePool((10.0, 5.0, 1.0, 0.0))  # candidates 3 and 4 tie at 0.5
    for removed in (set(), {3}, {1, 4}):
        with pytest.raises(TieError, match="candidates 3 and 4 tie at perturbed value 0.5"):
            exact_selection_pmf(spec, pool, removed)


def test_softmax_top_two_pmf_stays_finite_at_high_accuracy():
    # the other weights sit far below rounding of the best one, so the
    # plain W - w_1 cancels to 0
    pmf = top_two_pmf(RankingModelSpec.plackett_luce(800.0), POOL3.as_array())
    assert pmf[0, 1] == 1.0
    t = exact_utility_table(800.0, 1.0, RankingModelSpec.plackett_luce(1.0), POOL3)
    assert (t.u_first_a, t.u_aa) == (1.0, 0.5)
    assert all(math.isfinite(getattr(t, name)) for name in ENTRY_NAMES)


def test_softmax_selection_pmf_stays_finite_at_high_accuracy():
    # exp underflows for every candidate but the best, so the per-stage
    # ratios of the plain weights divide 0 by 0
    pool = CandidatePool((1.0, 0.7, 0.3, 0.0))
    pmf = exact_selection_pmf(RankingModelSpec.plackett_luce(1000.0), pool, {1})
    assert np.all(np.isfinite(pmf))
    assert abs(pmf.sum() - 1.0) <= 1e-12
    assert pmf[1] >= 1.0 - 1e-12


@pytest.mark.parametrize("family, values", [
    (MALLOWS, (2.7, 2.3, 1.9, 1.5, 1.0)),
    (RankingModelSpec.plackett_luce(1.0), (3.1, 2.6, 2.05, 1.7, 0.95, 0.4, -0.3)),
    (RankingModelSpec.rum(NoiseSpec.discrete(((-1.0, 0.2), (0.0, 0.5), (1.0, 0.3))), 1.0),
     (2.0, 1.5, 1.25, 0.5, 0.0)),
], ids=["mallows", "plackett_luce", "atoms"])
def test_batched_pmfs_do_not_depend_on_the_batch(family, values):
    # 65 accuracies in one batch, among them refused ones and, for the atoms,
    # tying ones (4 and 2 tie candidates of this pool); every slice must be
    # bit-identical to the pmf top_two_pmf computes alone, every error equal
    thetas = [0.05 + 0.09 * k for k in range(60)] + [4.0, 0.0, float("nan"), 2.0, -1.0]
    x = np.array(values)
    pmfs, errors = exact_engine._top_two_pmfs(family, thetas, x)
    assert pmfs.shape == (65, len(x), len(x))
    for k, theta in enumerate(thetas):
        try:
            want = top_two_pmf(family.with_theta(theta), x)
        except ValueError as exc:
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc)
        else:
            assert k not in errors and np.array_equal(pmfs[k], want)
    assert {61, 62, 64} <= set(errors)


def test_cached_top_two_pmf_is_read_only():
    # every family's pmf is read-only; only the quadrature one is cached
    x = POOL4.as_array()
    gaussian = RankingModelSpec.rum(NoiseSpec("gaussian"), 0.7)
    for spec in (MALLOWS, RankingModelSpec.plackett_luce(0.7), RankingModelSpec.rum(THREE_ATOMS, 1.3),
                 gaussian):
        pmf = top_two_pmf(spec, x)
        with pytest.raises(ValueError):
            pmf[0, 1] = 0.5
    quadrature = exact_engine._continuous_rum_top_two
    hits = quadrature.cache_info().hits
    assert np.array_equal(top_two_pmf(gaussian, x.copy()), pmf)
    assert quadrature.cache_info().hits == hits + 1
    with pytest.raises(ValueError):
        quadrature(gaussian.noise, gaussian.theta, tuple(x.tolist()))[0, 1] = 0.5



@pytest.mark.parametrize("spec", [
    MALLOWS, RankingModelSpec.plackett_luce(1.0), RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0),
    RankingModelSpec.rum(NoiseSpec.discrete(((-0.5, 0.5), (0.5, 0.5))), 1.0),
], ids=["mallows", "plackett_luce", "gaussian", "two_atoms"])
@pytest.mark.parametrize("x", [
    [1.0], [1.0, math.nan], [1.0, math.inf, 0.0], [[0.0, 0.0], [1.0, 0.0]], [],
], ids=["one", "nan", "inf", "2d", "empty"])
def test_top_two_pmf_refuses_x_without_two_finite_values(spec, x):
    # each of these gave a NaN pmf, a warning or a numpy error of its own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoolError, match="1-D with at least two values, all finite"):
            top_two_pmf(spec, x)


def test_top_two_pmf_takes_unsorted_values():
    # permuting the values of a value-dependent family permutes the pmf's
    # rows and columns alike
    x, order = POOL4.as_array(), [2, 0, 3, 1]
    for spec in (RankingModelSpec.plackett_luce(0.7), RankingModelSpec.rum(THREE_ATOMS, 1.3)):
        want = top_two_pmf(spec, x)[np.ix_(order, order)]
        assert np.allclose(top_two_pmf(spec, x[order]), want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("spec", [
    MALLOWS, RankingModelSpec.plackett_luce(0.7), RankingModelSpec.rum(NoiseSpec.gaussian(), 0.7),
], ids=["mallows", "plackett_luce", "rum"])
def test_selection_pmf_is_read_only(spec):
    for removed in (set(), {2}, {1, 3, 4}):
        pmf = exact_selection_pmf(spec, POOL4, removed)
        with pytest.raises(ValueError):
            pmf[0] = 0.5


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
    assert all(math.isfinite(getattr(t, name)) for name in ENTRY_NAMES)
    assert pmf[0, 1] >= 1.0 - 1e-12


@pytest.mark.parametrize("theta_a", [2.0, 5.0])
def test_laplacian_support_sum_is_one_on_a_pool_quad_rejected(theta_a):
    # per-pair adaptive quad summed to 1.00000001..., past the 1e-8 check
    pool = CandidatePool((0.8277025938204418, 0.7535131086748066, 0.5495936876730595,
                          0.5381433132192782, 0.4091991363691613, 0.027559113243068367))
    family = RankingModelSpec.rum(NoiseSpec.laplacian(), 1.0)
    t = exact_utility_table(theta_a, 1.0, family, pool)
    assert all(math.isfinite(getattr(t, name)) for name in ENTRY_NAMES)
    for theta in (theta_a, 1.0):
        raw = _raw_support_sum(NoiseSpec.laplacian(), theta, pool.as_array())
        assert abs(raw.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("kind, expected", [
    ("gaussian", 0.5 * math.erfc(-0.5)),  # Phi(1 / sqrt 2)
    ("laplacian", 1.0 - 0.5 * math.exp(-math.sqrt(2.0)) * (1.0 + 1.0 / math.sqrt(2.0))),
    ("gumbel", 1.0 / (1.0 + math.exp(-math.pi / math.sqrt(6.0)))),  # logistic difference
])
def test_top_candidates_underflowing_cdf_is_divided_out_without_nan(kind, expected):
    # candidate 1's cdf and pdf both underflow to 0 at the nodes around
    # candidates 2 and 3; dividing that cdf out of its own mass needs the
    # 1e-300 floor, or 0 / 0 turns the whole normalised pmf into nan
    family = RankingModelSpec.rum(getattr(NoiseSpec, kind)(), 1.0)
    pmf = top_two_pmf(family, np.array([60.0, 1.0, 0.0]))
    assert abs(pmf[0, 1] - expected) < 1e-12


# ---------------------------------------------------------------- tables


def _perm_probs(spec, pool):
    """The pmf over permspace rows: the engine's, or for continuous noise on
    at most three candidates, where the top two fix the ranking, the per-pair
    quad oracle's."""
    if spec.kind == "rum" and spec.noise.is_continuous:
        P = oracles.rum_top_two_quad(spec.noise.kind, spec.theta, pool.values)
        return np.array([P[a][b] for a, b in perm_space(pool.n).perms[:, :2].tolist()])
    return permutation_probabilities(spec, pool)


def double_enumeration_table(theta_a, theta_h, family, pool):
    """Literal enumeration over ranking pairs; the oracle for the factored
    cross terms."""
    x = pool.as_array()
    space = perm_space(pool.n)
    p_a = _perm_probs(family.with_theta(theta_a), pool)
    p_h = _perm_probs(family.with_theta(theta_h), pool)

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
        assert abs(getattr(table, name) - val) < 1e-12


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
            assert 0.0 - 1e-15 <= getattr(t, name) <= 1.0 + 1e-15


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


def identity_residual_uah_uaa(theta, spec, pool):
    """Residual of the equal-accuracy identity
    u_AH - u_AA = sum_{a,b} P[a, b] (x_a - x_b) (1 - p1[a]).

    P is the top-two pmf of the second mover's ranking and p1 its first-pick
    pmf, so the right side is the first-vs-second pick gap of that ranking,
    counted only when its top pick survives the first mover; returns
    |LHS - RHS|.
    """
    table = exact_utility_table(theta, theta, spec, pool)
    x = pool.as_array()
    p = top_two_pmf(spec.with_theta(theta), x)
    survives = 1.0 - p.sum(axis=1)
    rhs = float(np.sum(p * (x[:, None] - x[None, :]) * survives[:, None]))
    return abs(table.u_ah - table.u_aa - rhs)


def test_identity_check_residuals_are_tiny():
    for spec in (MALLOWS, RankingModelSpec.plackett_luce(1.0),
                 RankingModelSpec.rum(NoiseSpec.gaussian(), 1.0)):
        assert identity_residual_uah_uaa(1.3, spec, POOL3) < 1e-10
    assert identity_residual_uah_uaa(2.0, MALLOWS, POOL4) < 1e-10


def test_three_atom_counterexample_value():
    # coarse noise on a spread-out pool: sharing beats an independent
    # equally-accurate ranking, with a closed-form margin
    delta = 0.1
    noise = NoiseSpec.discrete(((-1.0, delta / 2), (0.0, 1.0 - delta), (1.0, delta / 2)))
    family = RankingModelSpec.rum(noise, 1.0)
    pool = CandidatePool((1.75, 0.5, 0.0))
    t = exact_utility_table(1.0, 1.0, family, pool)
    assert abs((t.u_ah - t.u_aa) - (-7.61640625e-4)) < 1e-12


def test_atom_table_has_no_size_cap():
    # 3^14 atom combinations: the first-choice marginal behind the table's
    # first-mover entries matches exact arithmetic, term by term
    big = spread_pool(14)
    x = big.as_array()
    family = RankingModelSpec.rum(THREE_ATOMS, 1.0)
    table = exact_utility_table(2.0, 1.5, family, big)
    for theta, u_first in ((2.0, table.u_first_a), (1.5, table.u_first_h)):
        want = oracles.atom_first_choice(THREE_ATOMS.atoms, theta, big.values)
        got = top_two_pmf(family.with_theta(theta), x).sum(axis=1)
        assert max(abs(Fraction(g) - w) for g, w in zip(got.tolist(), want)) < 1e-15
        assert abs(u_first - float(sum(w * Fraction(v) for w, v in zip(want, big.values)))) < 1e-14


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
        assert abs(getattr(table, name) - val) < 1e-12, name


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
    want_a = sum(oracles.mallows_block_first_choice(phi_a, 4, c) * x[c - 1] for c in range(1, 5))
    want_h = sum(oracles.mallows_block_first_choice(phi_h, 4, c) * x[c - 1] for c in range(1, 5))
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
    + [("".join(s), POOL6) for s in itertools.product("AH", repeat=3)]
    # k = n: the last firm hires the one candidate left
    + [("".join(s), POOL4) for s in itertools.product("AH", repeat=4)]
    + [("".join(s), POOL5) for s in itertools.product("AH", repeat=5)],
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
    means = CandidatePool((0.8, 0.6, 0.4, 0.2))  # E[X_(k)] = (n + 1 - k) / (n + 1)
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


POOL9 = CandidatePool((1.0, 0.93, 0.71, 0.7, 0.52, 0.3, 0.26, 0.1, -0.4))
POOL12 = CandidatePool((3.1, 2.5, 2.45, 1.9, 1.2, 1.0, 0.8, 0.75, 0.2, 0.0, -0.3, -1.1))


def test_all_algorithm_firms_walk_down_one_ranking_past_seven_candidates():
    phi = 1.7
    got = exact_sequential_utilities("A" * 9, phi, 1.3, POOL9)
    pmf = oracles.mallows_pmf(phi, 9)
    x = POOL9.values
    for slot in range(9):
        want = math.fsum(p * x[order[slot]] for order, p in pmf.items())
        assert abs(got[slot] - want) < 1e-12


def sample_distance_based(rng, phi, n, size):
    """Repeated insertion: candidate j enters the order of 0..j-1 at
    position p with probability proportional to phi^-(j - p)."""
    orders = np.zeros((size, 1), dtype=np.intp)
    for j in range(1, n):
        w = phi ** -np.arange(j, -1, -1.0)
        p = rng.choice(j + 1, size=size, p=w / w.sum())[:, None]
        slots = np.arange(j + 1)
        shifted = np.take_along_axis(orders, np.minimum(slots - (slots > p), j - 1), axis=1)
        orders = np.where(slots == p, j, shifted)
    return orders


def monte_carlo_sequence_utilities(sequence, phi_a, phi_h, pool, trials, seed):
    """Per-firm mean and stderr of the value hired, replaying the sequence
    on one drawn shared ranking and a fresh draw per H firm."""
    rng = np.random.default_rng(seed)
    x, rows = pool.as_array(), np.arange(trials)
    shared = sample_distance_based(rng, phi_a, pool.n, trials)
    taken = np.zeros((trials, pool.n), dtype=bool)
    out = []
    for s in sequence:
        ranking = shared if s == "A" else sample_distance_based(rng, phi_h, pool.n, trials)
        pick = ranking[rows, np.argmax(~taken[rows[:, None], ranking], axis=1)]
        taken[rows, pick] = True
        out.append((x[pick].mean(), x[pick].std(ddof=1) / math.sqrt(trials)))
    return out


@pytest.mark.parametrize("pool", [POOL9, POOL12], ids=lambda p: f"n{p.n}")
@pytest.mark.parametrize("sequence", ["AHAHA", "HAAHA"])
def test_sequential_recursion_matches_a_monte_carlo_replay_past_seven_candidates(sequence, pool):
    phi_a, phi_h = 1.8, 1.4
    got = exact_sequential_utilities(sequence, phi_a, phi_h, pool)
    sampled = monte_carlo_sequence_utilities(sequence, phi_a, phi_h, pool, 200_000, seed=11)
    for g, (mean, se) in zip(got, sampled):
        assert se > 0 and abs(g - mean) <= 5 * se, (g, mean, se)


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
    for name in ENTRY_NAMES:
        value = getattr(base, name)
        assert abs(getattr(got, name) - (scale * value + shift)) < tol, name


@settings(deadline=None, max_examples=60)
@given(pools(max_n=10), st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(-100.0, 100.0))
def test_softmax_table_shifts_with_the_pool(pool, theta_a, theta_h, shift):
    # choice probabilities depend on value differences only
    softmax = RankingModelSpec.plackett_luce(1.0)
    moved = CandidatePool(tuple(v + shift for v in pool.values))
    base = exact_utility_table(theta_a, theta_h, softmax, pool)
    got = exact_utility_table(theta_a, theta_h, softmax, moved)
    tol = 1e-12 * (abs(shift) + 6.0)
    for name in ENTRY_NAMES:
        value = getattr(base, name)
        assert abs(getattr(got, name) - (value + shift)) < tol, name


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
@given(st.data(), pools(min_n=2, max_n=10), st.floats(1.05, 20.0), st.floats(1.05, 20.0),
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


@settings(deadline=None, max_examples=40)
@given(st.data(), pools(min_n=2, max_n=10), st.floats(1.05, 20.0), st.floats(1.05, 20.0))
def test_hiring_every_candidate_hands_out_the_whole_pool(data, pool, phi_a, phi_h):
    # no reveal round or hire may lose or duplicate mass
    sequence = data.draw(st.lists(st.sampled_from("AH"), min_size=pool.n, max_size=pool.n))
    got = exact_sequential_utilities(sequence, phi_a, phi_h, pool)
    assert abs(math.fsum(got) - math.fsum(pool.values)) < 1e-12


@settings(deadline=None, max_examples=20)
@given(st.data(), st.integers(2, 10), st.floats(1.01, 50.0))
def test_sequential_tables_are_read_only(data, n, phi_h):
    m = data.draw(st.integers(0, n - 1))
    moves = _moves(n, m)
    arrays = [*moves[:4], *(a for reveal in moves.reveals for a in reveal), _fresh_weights(phi_h, n, m)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1


@pytest.mark.parametrize("n", range(2, 11))
def test_fresh_weights_are_the_first_survivor_pmf(n):
    # the weights sum reveal paths of up to n conditional probabilities each,
    # so they may sit a few ulps per reveal off the insertion DP
    phi_h = 1.3 + 0.1 * n
    for m in range(n):
        outside = _moves(n, m).outside
        weights = _fresh_weights(phi_h, n, m)
        for row, w in zip(outside, weights):
            removed0 = tuple(sorted(set(range(n)) - set(row.tolist())))
            pmf = _mallows_first_survivor_pmf(phi_h, n, removed0)
            assert np.abs(w - pmf[row]).max() <= 1e-14


@settings(deadline=None, max_examples=30)
@given(st.data(), st.integers(2, 10), st.floats(1.05, 20.0), st.floats(1.05, 20.0))
def test_hiring_past_the_pool_raises(data, n, phi_a, phi_h):
    state = SequentialState(phi_a, phi_h, np.linspace(1.0, 0.0, n))
    for plays_a in data.draw(st.lists(st.booleans(), min_size=n, max_size=n)):
        state.hire(np.array([plays_a]))
    for plays_a in (True, False):
        with pytest.raises(UnsupportedModelError):
            state.hire(np.array([plays_a]))
    for strategy in "AH":
        with pytest.raises(UnsupportedModelError):
            state.utility_of_next(strategy)


def test_hire_refuses_a_strategy_string():
    # as a boolean array, any nonempty string would read as A
    state = SequentialState(2.0, 1.5, POOL4.as_array())
    for strategy in ("A", "H", ["H"]):
        with pytest.raises(TypeError):
            state.hire(strategy)
    assert state.hired == 0 and state.mass.tolist() == [1.0]


@settings(deadline=None, max_examples=40)
@given(st.data(), st.integers(2, 6), st.lists(st.floats(1.05, 20.0), min_size=1, max_size=4),
       st.floats(1.05, 20.0))
def test_uniform_plays_take_the_same_bits_without_and_with_parents(data, n, phi_a, phi_h):
    # hire(plays, None) steps one strategy for every row; hire(plays,
    # arange(rows)) steps both and picks per row
    x = np.linspace(1.0, 0.0, n)
    fast, branching = SequentialState(phi_a, phi_h, x), SequentialState(phi_a, phi_h, x)
    for a in data.draw(st.lists(st.booleans(), min_size=n, max_size=n)):
        plays = np.full(fast.rows, a)
        got, want = fast.hire(plays, None), branching.hire(plays, np.arange(branching.rows))
        assert got.tobytes() == want.tobytes()
        assert fast.mass.tobytes() == branching.mass.tobytes()
