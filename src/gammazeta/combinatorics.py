"""Classical combinatorial numbers backing every coefficient triangle.

All integer quantities are exact (Python ints are arbitrary precision).
Every integer triangle of the package is built row by row by one
two-term recurrence (:func:`_two_term_row`) and cached; reading an
entry outside the stored range extends the cache, reading outside the
mathematical support returns 0.
"""

from __future__ import annotations

import threading
from math import comb, factorial as _factorial
from typing import Callable


class CachedSequence:
    """Entries 0, 1, 2, ... of a sequence, cached.

    Entries are produced by ``build_row(rows, n)``, which receives all
    previously built entries and must return entry ``n``. Built entries
    are never mutated; extension is guarded by a lock so concurrent
    readers are safe (single-writer construction), and an entry is
    stored only once whole, so an interrupted build keeps the ones
    before it.
    """

    def __init__(self, build_row: Callable[[list, int], object]):
        self._build_row = build_row
        self._rows: list = []
        self._lock = threading.Lock()

    def ensure(self, max_row: int) -> None:
        if max_row < len(self._rows):
            return
        with self._lock:
            while len(self._rows) <= max_row:
                n = len(self._rows)
                self._rows.append(self._build_row(self._rows, n))

    def prefix(self, n: int) -> list:
        """Entries 0..n-1 (a new list)."""
        self.ensure(n - 1)
        return self._rows[:n]


class CachedTriangle(CachedSequence):
    """Ragged table of exact integers indexed by (row, column).

    Its entries are rows: ``build_row(rows, n)`` must return row ``n``
    as a list.
    """

    def row(self, n: int) -> list[int]:
        """Stored row ``n`` (a copy; callers cannot corrupt the cache)."""
        if n < 0:
            raise ValueError("row index must be nonnegative")
        self.ensure(n)
        return list(self._rows[n])

    def entry(self, n: int, k: int) -> int:
        """Entry (n, k); zero outside the stored ragged range."""
        if n < 0 or k < 0:
            return 0
        self.ensure(n)
        row = self._rows[n]
        return row[k] if k < len(row) else 0

    def rows(self, max_row: int) -> list[list[int]]:
        self.ensure(max_row)
        return [list(r) for r in self._rows[: max_row + 1]]


def _two_term_row(upper: Callable[[int, int], int], lower: Callable[[int, int], int],
                  back: int = 1):
    """``build_row`` for T(n,k) = upper(n,k) T(n-back,k) + lower(n,k) T(n-1,k-1),
    T(0,0) = 1; row n holds k = 0..n, and T is 0 outside its rows."""

    def build_row(rows: list[list[int]], n: int) -> list[int]:
        if n == 0:
            return [1]
        far = rows[n - back] + [0] * back if n >= back else [0] * (n + 1)  # T(n-back,k)
        near = [0] + rows[n - 1]  # near[k] = T(n-1,k-1)
        return [upper(n, k) * far[k] + lower(n, k) * near[k] for k in range(n + 1)]

    return build_row


# s(n,k) = (n-1) s(n-1,k) + s(n-1,k-1); s(n,0) = 0 for n > 0
STIRLING1 = CachedTriangle(_two_term_row(lambda n, k: n - 1, lambda n, k: 1))
# S(n,k) = k S(n-1,k) + S(n-1,k-1)
STIRLING2 = CachedTriangle(_two_term_row(lambda n, k: k, lambda n, k: 1))
# A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1); A(n,n) = 0 for n >= 1
EULERIAN = CachedTriangle(_two_term_row(lambda n, k: k + 1, lambda n, k: n - k))


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n
    elements with k cycles."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return STIRLING1.entry(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into
    k nonempty blocks."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return STIRLING2.entry(n, k)


def eulerian(n: int, k: int) -> int:
    """Eulerian number: permutations of n elements with exactly k ascents.

    Zero outside 0 <= k <= n-1 (for n >= 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return EULERIAN.entry(n, k)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _factorial(n)


def double_factorial_odd(m: int) -> int:
    """Product of the first m odd numbers: 1 * 3 * ... * (2m-1)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = 1
    for j in range(1, 2 * m, 2):
        out *= j
    return out


def falling_factorial(s, k: int):
    """(s)_k = s (s-1) ... (s-k+1); the empty product (k=0) is 1.

    Works over any ring whose elements support - and * with ints
    (complex, Fraction, GaussianRational).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for j in range(k):
        out = out * (s - j)
    return out


def rising_factorial(s, k: int):
    """s^(k) = s (s+1) ... (s+k-1); the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for j in range(k):
        out = out * (s + j)
    return out
