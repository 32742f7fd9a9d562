"""Dense enumeration tables over all permutations of n candidates.

Everything here is 0-based and array-valued; the public modules convert
to 1-based candidate indices at their boundaries. Tables are cached per n
and capped at n = 8 (40320 rows). No engine path uses them, only the public
full-ranking pmf and `verify mallows-lemmas`, which checks the
distance-based closed forms against enumeration.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

MAX_EXACT_N = 8


class PermSpace:
    """All n! permutations with inversion counts and subset-top lookups."""

    def __init__(self, n: int):
        if not 2 <= n <= MAX_EXACT_N:
            raise ValueError(f"exact enumeration supports 2 <= n <= {MAX_EXACT_N}, got {n}")
        self.n = n
        self.perms = np.array(list(permutations(range(n))), dtype=np.int8)
        self.size = self.perms.shape[0]
        pos = np.argsort(self.perms, axis=1)
        inv = np.zeros(self.size, dtype=np.int16)
        for i in range(n):
            for j in range(i + 1, n):
                inv += (pos[:, i] > pos[:, j]).astype(np.int16)
        self.inversions = inv
        # row lookup by positional code, for mapping sampled orders to rows
        self._codes = self._encode(self.perms)
        self._code_order = np.argsort(self._codes)
        self._codes_sorted = self._codes[self._code_order]
        self._top_cache: dict[int, np.ndarray] = {}

    def _encode(self, orders: np.ndarray) -> np.ndarray:
        base = self.n ** np.arange(self.n, dtype=np.int64)
        return orders.astype(np.int64) @ base

    def rows_of(self, orders: np.ndarray) -> np.ndarray:
        """Row indices of the given (m, n) 0-based orderings."""
        codes = self._encode(np.atleast_2d(orders))
        idx = np.searchsorted(self._codes_sorted, codes)
        rows = self._code_order[idx]
        if not np.array_equal(self._codes[rows], codes):
            raise ValueError("ordering not found in permutation table")
        return rows

    def top_of_available(self, removed_mask: int) -> np.ndarray:
        """Per row, the first candidate whose bit is not set in removed_mask."""
        cached = self._top_cache.get(removed_mask)
        if cached is not None:
            return cached
        if removed_mask >> self.n:
            raise ValueError(f"mask {removed_mask:#x} out of range for n={self.n}")
        if removed_mask == (1 << self.n) - 1:
            raise ValueError("cannot remove every candidate")
        removed = np.array([(removed_mask >> c) & 1 for c in range(self.n)], dtype=bool)
        avail = ~removed[self.perms]
        first = np.argmax(avail, axis=1)
        top = np.take_along_axis(self.perms, first[:, None], axis=1)[:, 0]
        self._top_cache[removed_mask] = top
        return top

    def first_choice(self, probs: np.ndarray, removed_mask: int = 0) -> np.ndarray:
        """Pmf of the top available candidate under row probabilities."""
        top = self.top_of_available(removed_mask)
        return np.bincount(top, weights=probs, minlength=self.n)


@lru_cache(maxsize=None)
def perm_space(n: int) -> PermSpace:
    return PermSpace(n)
