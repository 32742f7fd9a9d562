"""Pools, distributions, and the inversion counts of the permutation table."""

import math

import numpy as np
import pytest

from monoculture import (
    CandidateDistribution,
    CandidatePool,
    PoolError,
    uniform_order_statistic_means,
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
    got = uniform_order_statistic_means(4, 0.0, 1.0)
    assert np.allclose(got, (4 / 5, 3 / 5, 2 / 5, 1 / 5), atol=1e-15)
    got = uniform_order_statistic_means(3, -2.0, 2.0)
    assert np.allclose(got, (1.0, 0.0, -1.0), atol=1e-15)


def test_distribution_mean_pool_matches_order_statistics():
    d = CandidateDistribution.uniform(0.0, 1.0, 6)
    assert np.allclose(d.mean_pool().as_array(), uniform_order_statistic_means(6, 0.0, 1.0))
    d0 = CandidateDistribution.uniform_centered_zero(math.sqrt(3.0), 3)
    lo, hi = d0.bounds
    assert lo == -math.sqrt(3.0) and hi == math.sqrt(3.0)
    assert abs(d0.mean_pool().as_array()[1]) < 1e-15


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
