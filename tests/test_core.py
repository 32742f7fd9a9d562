"""Pools, distributions, and the inversion counts of the permutation table."""

import math

import numpy as np
import pytest

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    PoolError,
)
from monoculture.permspace import perm_space
from tests.oracles import inversions


def test_pool_requires_strictly_decreasing_values():
    CandidatePool((3.0, 2.0, 0.0))
    with pytest.raises(PoolError):
        CandidatePool((1.0, 1.0, 0.0))
    with pytest.raises(PoolError):
        CandidatePool((0.0, 1.0))
    with pytest.raises(PoolError):
        CandidatePool((1.0,))


@pytest.mark.parametrize("values", [(math.inf, 0.0), (1.0, -math.inf), (math.nan, 0.0)])
def test_pool_rejects_non_finite_values(values):
    with pytest.raises(PoolError):
        CandidatePool(values)


@pytest.mark.parametrize("make", [
    lambda: CandidateDistribution.uniform(1.0, 1.0, 3),  # hi <= lo
    lambda: CandidateDistribution.uniform(2.0, 1.0, 3),
    lambda: CandidateDistribution.uniform(0.0, math.inf, 3),  # a non-finite bound
    lambda: CandidateDistribution.uniform(-math.inf, 0.0, 3),
    lambda: CandidateDistribution.uniform(math.nan, 1.0, 3),
    lambda: CandidateDistribution.uniform_centered_zero(0.0, 3),  # halfwidth <= 0
    lambda: CandidateDistribution.uniform_centered_zero(-1.0, 3),
    lambda: CandidateDistribution.uniform_centered_zero(math.inf, 3),
    lambda: CandidateDistribution.uniform(0.0, 1.0, 1),  # n < 2
    lambda: CandidateDistribution.uniform_centered_zero(1.0, 0),
    lambda: CandidateDistribution.uniform(0.0, 1.0, 3.5),  # n not an integer
    lambda: CandidateDistribution.uniform(0.0, 1.0, 3.0),
    lambda: CandidateDistribution.uniform(0.0, 1.0, True),
], ids=["hi_eq_lo", "hi_below_lo", "inf_hi", "inf_lo", "nan_lo",
        "halfwidth_0", "halfwidth_negative", "halfwidth_inf", "n_1", "n_0",
        "n_fractional", "n_float", "n_bool"])
def test_distribution_rejects_malformed_parameters(make):
    with pytest.raises(PoolError):
        make()


def test_pool_holds_its_values_best_first():
    pool = CandidatePool((1.75, 0.5, 0.0))
    assert pool.n == 3
    assert pool.as_array()[0] == 1.75
    assert pool.as_array()[2] == 0.0


def test_pool_array_is_a_copy():
    pool = CandidatePool((1.0, 0.5, 0.0))
    arr = pool.as_array()
    arr[0] = 99.0
    assert pool.as_array()[0] == 1.0


def test_uniform_order_statistic_means_closed_form():
    # E[X_(k)] for uniform[lo, hi] is lo + (hi - lo) * k / (n + 1), best first
    got = CandidateDistribution.uniform(0.0, 1.0, 4).mean_pool().values
    assert np.allclose(got, (4 / 5, 3 / 5, 2 / 5, 1 / 5), atol=1e-15)
    got = CandidateDistribution.uniform(-2.0, 2.0, 3).mean_pool().values
    assert np.allclose(got, (1.0, 0.0, -1.0), atol=1e-15)


def test_distribution_mean_pool_matches_order_statistics():
    got = CandidateDistribution.uniform(0.0, 1.0, 6).mean_pool().as_array()
    assert np.allclose(got, np.arange(6, 0, -1) / 7, atol=1e-15)
    d0 = CandidateDistribution.uniform_centered_zero(math.sqrt(3.0), 3)
    assert d0.lo == -math.sqrt(3.0) and d0.hi == math.sqrt(3.0)
    assert abs(d0.mean_pool().as_array()[1]) < 1e-15


def test_centered_distribution_is_the_uniform_one():
    h, n = 1.7320508, 15
    centered = CandidateDistribution.uniform_centered_zero(h, n)
    plain = CandidateDistribution.uniform(-h, h, n)
    assert centered == plain
    a = centered.sample_matrix(np.random.default_rng(11), 300)
    b = plain.sample_matrix(np.random.default_rng(11), 300)
    assert np.array_equal(a, b)


def test_distribution_samples_sorted_and_in_bounds():
    d = CandidateDistribution.uniform(-1.0, 2.0, 5)
    rng = np.random.default_rng(7)
    mat = d.sample_matrix(rng, 500)
    assert mat.shape == (500, 5)
    assert (np.diff(mat, axis=1) < 0).all()
    assert mat.min() >= -1.0 and mat.max() <= 2.0


def _row(space, order):
    return int(space.rows_of(np.array(order))[0])


def test_kendall_tau_known_values():
    # the table's inversion count is the Kendall tau distance to the true order
    space = perm_space(4)
    assert space.inversions[_row(space, (0, 1, 2, 3))] == 0
    assert space.inversions[_row(space, (3, 2, 1, 0))] == 6
    assert space.inversions[_row(space, (1, 0, 2, 3))] == 1
    for row, order in enumerate(space.perms):
        assert space.inversions[row] == inversions(tuple(order))


def test_remove_candidates_keeps_relative_order():
    # removal happens after the ranking is realized: the top survivor is
    # the first unremoved candidate of the full order, not a re-ranking
    space = perm_space(4)
    top = space.top_of_available(0b1001)
    assert top[_row(space, (2, 0, 3, 1))] == 2
    assert top[_row(space, (0, 3, 1, 2))] == 1
    with pytest.raises(ValueError):
        space.top_of_available(0b1111)
    with pytest.raises(ValueError):
        space.top_of_available(1 << 8)
