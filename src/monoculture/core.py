"""Candidate pools: a fixed pool, or a pool of n iid uniform draws.

Conventions used across the package: candidates are indexed 1..n at the
public boundary, with index i denoting the i-th best candidate, so pool
values are strictly decreasing in the index. Rankings are held as 0-based
integer arrays (row r lists candidate indices best-first) by the engines
that draw or enumerate them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np


class PoolError(ValueError):
    """Raised for malformed candidate pools or distributions."""


@dataclass(frozen=True)
class CandidatePool:
    """Fixed candidate values, strictly decreasing, at least two of them."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise PoolError(f"need at least 2 candidates, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            raise PoolError(f"values must be finite, got {vals}")
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                raise PoolError(f"values must be strictly decreasing, got {a} then {b}")

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class CandidateDistribution:
    """Distribution over candidate pools of n iid uniform(lo, hi) draws.

    Sampling sorts the draws descending and redraws on the zero-probability
    event of a tie, so [lo, hi] must span n^2 doubles, which bounds the
    chance a row ties by about 1/2. A fixed pool is a CandidatePool.
    """

    n: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PoolError(f"bounds must be finite, got [{lo}, {hi}]")
        if not hi > lo:
            raise PoolError(f"need hi > lo, got [{lo}, {hi}]")
        if not isinstance(self.n, numbers.Integral):
            raise PoolError(f"need an integer n, got {self.n!r}")
        if self.n < 2:
            raise PoolError(f"need n >= 2, got {self.n}")
        # a row of n draws over m doubles ties with probability about n^2 / 2m, and a
        # draw can take at least m = (hi - lo) / ulp(max(|lo|, |hi|)) doubles
        width = hi - lo
        if not math.isfinite(width) or width / math.ulp(max(abs(lo), abs(hi))) < self.n ** 2:
            raise PoolError(f"need hi - lo finite and n^2 = {self.n ** 2} doubles wide, "
                            f"got [{lo}, {hi}]")

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "CandidateDistribution":
        return CandidateDistribution(n, float(lo), float(hi))

    @staticmethod
    def uniform_centered_zero(halfwidth: float, n: int) -> "CandidateDistribution":
        """uniform(-halfwidth, halfwidth, n)."""
        return CandidateDistribution.uniform(-halfwidth, halfwidth, n)

    def _negated_rows(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """rng.uniform(lo, hi, (rows, n))'s draws bit for bit, negated, rows sorted ascending."""
        negated = rng.random((rows, self.n))
        negated *= self.hi - self.lo
        negated += self.lo
        np.negative(negated, out=negated)
        negated.sort(axis=1)
        return negated

    def sample_matrix(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) C-contiguous pools, rows sorted descending: rng.uniform(lo,
        hi)'s draws, negated, sorted ascending and negated back."""
        negated = self._negated_rows(rng, size)
        # ties have probability zero but the contract says resample them
        tied = negated[:, 1:] == negated[:, :-1]
        while tied.any():
            bad = tied.any(axis=1)
            negated[bad] = self._negated_rows(rng, int(bad.sum()))
            tied = negated[:, 1:] == negated[:, :-1]
        return np.negative(negated, out=negated)

    def mean_pool(self) -> CandidatePool:
        """Pool of expected order statistics: the i-th best of n has mean
        lo + (hi - lo) * (n + 1 - i) / (n + 1)."""
        lo, hi, n = self.lo, self.hi, self.n
        return CandidatePool(tuple(lo + (hi - lo) * (n + 1 - i) / (n + 1) for i in range(1, n + 1)))


PoolOrDistribution = Union[CandidatePool, CandidateDistribution]
