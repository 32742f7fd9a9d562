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
    lambda: CandidateDistribution.uniform(-1e308, 1e308, 3),  # hi - lo overflows
    lambda: CandidateDistribution.uniform(1.0, math.nextafter(1.0, 2.0), 3),  # two doubles
    # exactly n doubles: 16 distinct draws come in about one row of 1e6
    lambda: CandidateDistribution.uniform(1.0, 1.0 + 15 * math.ulp(1.0), 16),
    lambda: CandidateDistribution.uniform(1.0, 1.0 + 255 * math.ulp(1.0), 16),  # n^2 - 1 apart
], ids=["hi_eq_lo", "hi_below_lo", "inf_hi", "inf_lo", "nan_lo",
        "halfwidth_0", "halfwidth_negative", "halfwidth_inf", "n_1", "n_0",
        "n_fractional", "n_float", "n_bool", "range_overflows", "fewer_doubles_than_n",
        "exactly_n_doubles", "short_of_n_squared"])
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


def _reversed_uniform_sort(d, rng, size):
    # the recipe sample_matrix replaced: uniform draws sorted, then a reversed view
    draws = rng.uniform(d.lo, d.hi, size=(size, d.n))
    draws.sort(axis=1)
    draws = draws[:, ::-1]
    bad = np.any(draws[:, :-1] == draws[:, 1:], axis=1)
    while np.any(bad):
        redraw = rng.uniform(d.lo, d.hi, size=(int(bad.sum()), d.n))
        redraw.sort(axis=1)
        draws[bad] = redraw[:, ::-1]
        bad = np.any(draws[:, :-1] == draws[:, 1:], axis=1)
    return draws


@pytest.mark.parametrize("d", [
    CandidateDistribution.uniform(0.0, 1.0, 15),
    CandidateDistribution.uniform(-3.0, -1.0, 2),
    CandidateDistribution.uniform(-1.0, 1.0, 3),
    # n^2 + 1 doubles, the fewest allowed, so many rows tie and are redrawn
    CandidateDistribution.uniform(1.0, 1.0 + 9 * math.ulp(1.0), 3),
    CandidateDistribution.uniform(1.0, 1.0 + 256 * math.ulp(1.0), 16),
], ids=["lo_0_n15", "negative_n2", "signed_n3", "ten_doubles_n3", "fewest_doubles_n16"])
def test_sample_matrix_is_the_reversed_uniform_sort_made_contiguous(d):
    new, old = np.random.default_rng(31), np.random.default_rng(31)
    mat = d.sample_matrix(new, 4000)
    expected = _reversed_uniform_sort(d, old, 4000)
    assert np.array_equal(mat, expected) and np.array_equal(np.signbit(mat), np.signbit(expected))
    assert mat.flags.c_contiguous
    assert new.random() == old.random()  # the same stream position


class _PlantedHalf(np.random.Generator):
    """Plants a uniform of 0.5 first, so uniform(-1, 1) draws an exact 0.0."""

    def random(self, size=None, dtype=np.float64, out=None):
        got = super().random(size, dtype, out)
        got[0, 0] = 0.5
        return got


def test_sample_matrix_keeps_the_sign_of_a_zero_draw():
    # -1 + 2 * 0.5 is +0.0; negating, sorting and negating back must keep it +0.0
    rng = _PlantedHalf(np.random.PCG64(1))
    mat = CandidateDistribution.uniform(-1.0, 1.0, 3).sample_matrix(rng, 4)
    [zero] = mat[mat == 0.0]
    assert not np.signbit(zero)


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
