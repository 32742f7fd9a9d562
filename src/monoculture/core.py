"""Candidate pools and distributions over them.

Conventions used across the package: candidates are indexed 1..n at the
public boundary, with index i denoting the i-th best candidate, so pool
values are strictly decreasing in the index. Rankings are held as 0-based
integer arrays (row r lists candidate indices best-first) by the engines
that draw or enumerate them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

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
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                raise PoolError(f"values must be strictly decreasing, got {a} then {b}")

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def uniform_order_statistic_means(n: int, lo: float, hi: float) -> tuple[float, ...]:
    """Expected order statistics of n iid uniform(lo, hi) draws, best first.

    The i-th best of n has mean lo + (hi - lo) * (n + 1 - i) / (n + 1).
    """
    if n < 2:
        raise PoolError(f"need n >= 2, got {n}")
    if not hi > lo:
        raise PoolError(f"need hi > lo, got [{lo}, {hi}]")
    return tuple(lo + (hi - lo) * (n + 1 - i) / (n + 1) for i in range(1, n + 1))


@dataclass(frozen=True)
class CandidateDistribution:
    """Distribution over candidate pools: fixed values or iid uniform draws.

    kind is one of "fixed", "uniform" (params lo, hi) or
    "uniform_centered_zero" (param halfwidth). Sampling sorts the draws
    descending and redraws on the zero-probability event of a tie.
    """

    kind: str
    n: int
    params: tuple[float, ...] = field(default=())
    fixed_values: tuple[float, ...] | None = None

    _KINDS = ("fixed", "uniform", "uniform_centered_zero")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise PoolError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "fixed":
            if self.fixed_values is None:
                raise PoolError("fixed kind needs values")
        elif self.kind == "uniform":
            lo, hi = self.params
            if not hi > lo:
                raise PoolError(f"need hi > lo, got [{lo}, {hi}]")
        else:
            (halfwidth,) = self.params
            if not halfwidth > 0:
                raise PoolError(f"need halfwidth > 0, got {halfwidth}")
        if self.n < 2:
            raise PoolError(f"need n >= 2, got {self.n}")

    @staticmethod
    def fixed(values: Iterable[float]) -> "CandidateDistribution":
        pool = CandidatePool(tuple(values))
        return CandidateDistribution("fixed", pool.n, fixed_values=pool.values)

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "CandidateDistribution":
        return CandidateDistribution("uniform", n, (float(lo), float(hi)))

    @staticmethod
    def uniform_centered_zero(halfwidth: float, n: int) -> "CandidateDistribution":
        return CandidateDistribution("uniform_centered_zero", n, (float(halfwidth),))

    @property
    def bounds(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return self.params[0], self.params[1]
        if self.kind == "uniform_centered_zero":
            h = self.params[0]
            return -h, h
        vals = self.fixed_values
        return vals[-1], vals[0]

    def sample_matrix(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) array of pools, each row sorted descending."""
        if self.kind == "fixed":
            return np.tile(np.asarray(self.fixed_values), (size, 1))
        lo, hi = self.bounds
        draws = rng.uniform(lo, hi, size=(size, self.n))
        draws.sort(axis=1)
        draws = draws[:, ::-1]
        # ties have probability zero but the contract says resample them
        bad = np.any(draws[:, :-1] == draws[:, 1:], axis=1)
        while np.any(bad):
            redraw = rng.uniform(lo, hi, size=(int(bad.sum()), self.n))
            redraw.sort(axis=1)
            draws[bad] = redraw[:, ::-1]
            bad = np.any(draws[:, :-1] == draws[:, 1:], axis=1)
        return draws

    def mean_pool(self) -> CandidatePool:
        """Pool of expected order statistics (the fixed values for kind fixed)."""
        if self.kind == "fixed":
            return CandidatePool(self.fixed_values)
        lo, hi = self.bounds
        return CandidatePool(uniform_order_statistic_means(self.n, lo, hi))


PoolOrDistribution = Union[CandidatePool, CandidateDistribution]
