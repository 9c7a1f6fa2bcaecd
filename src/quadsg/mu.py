"""Minimum index-weight of partitions into triangular numbers.

A partition of n into parts C(i,2) = i(i-1)/2 with part indices i >= 2
is scored by the sum of its indices (with multiplicity).  mu(n) is the
least score over all such partitions; every n >= 0 has one because
C(2,2) = 1.  Values satisfy

    mu(0) = 0,
    mu(n) = min(mu(n - C(i,2)) + i  for i >= 2 with C(i,2) <= n).

Allowing i = 1 would add the useless option mu(n) + 1 and is skipped.

The module provides a growable bottom-up table (`MuTable`), filled by
one loop over chunks of consecutive n, at most a fixed width and at most a
quarter past their start, with one slice minimum per part index, over the
few part indices that two exact bounds on the largest index of an optimal
partition leave, an oracle (`mu_oracle`) that folds in one part at a time
with no window, checked against the table up to n = 10**6, the analytic
envelope around mu (`lower_bound`, `gauss_bound`, `combined_bound`).  `mu`
and everything built on it read one process-wide table.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

__all__ = [
    "ORACLE_LIMIT",
    "TABLE_LIMIT",
    "MuTable",
    "combined_bound",
    "gauss_bound",
    "inverse_triangular",
    "largest_index",
    "lower_bound",
    "mu",
    "mu_oracle",
    "shared_table",
    "triangular",
]

ORACLE_LIMIT = 10**6

# Largest n a MuTable grows to: 10**8 entries of uint16 is 200 MB.
TABLE_LIMIT = 10**8

# Widest run of consecutive n that MuTable fills together: wide enough that
# each np.minimum call does more arithmetic than call overhead, small
# enough that a chunk stays in cache.  Of the powers 2**12..2**16, 2**14
# filled mu(0..C(2000,2)) fastest on a 2-vCPU machine.
_CHUNK = 1 << 14


def triangular(i: int) -> int:
    """Return C(i,2) = i(i-1)/2, exactly."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return i * (i - 1) // 2


def inverse_triangular(x: float) -> float:
    """Real inverse of i -> i(i-1)/2 on i >= 1: (1 + sqrt(8x+1))/2."""
    if x < 0:
        raise ValueError("argument must be nonnegative")
    return (1.0 + math.sqrt(8.0 * x + 1.0)) / 2.0


def largest_index(n: int) -> int:
    """Largest integer i with triangular(i) <= n, for n >= 0: (1 + isqrt(8n+1)) // 2.

    That i is the floor of inverse_triangular(n) = (1 + sqrt(8n+1))/2.  With
    s = isqrt(8n+1) and sqrt(8n+1) = s + f, 0 <= f < 1, floor((1+s+f)/2) =
    (1+s)//2 for s odd and even alike, so the integer form is exact.
    """
    if n < 0:
        raise ValueError("argument must be nonnegative")
    return (1 + math.isqrt(8 * n + 1)) // 2


class MuTable:
    """Bottom-up table of mu values on 0..n_max, growable in place.

    Only `ensure` writes; `values` exposes a read-only view.

    The fill walks chunks lo..end of consecutive n, at most `_CHUNK` wide,
    and restricts the recursion to a window of part indices.  Any partition
    counted by mu uses parts C(i,2) <= i(k-1)/2 when every index is at most
    k, so n <= mu(n)(k-1)/2 and the largest index of an optimal partition
    is at least 1 + 2n/U for any upper bound U >= mu(n).

    Each chunk starts from a tentative end at most `_CHUNK` wide and at most
    a quarter past lo, lo + min(_CHUNK, lo // 4 + 1) - 1: near the start of
    the table a full-width end would give a loose U, a small k_min and,
    after the cut below, chunks of one entry.  With j = largest_index of
    the tentative end, U = j + max mu(0..j-1) bounds mu from lo to there:
    taking the largest fitting part C(i,2) <= n leaves n - C(i,2) < i <= j.
    Where 0..j-1 is not filled yet, mu(m) <= 2m stands in.  So
    k_min = 1 + ceil(2*lo/U), taken at the chunk's low end, is at most the
    largest index of every optimal partition up to the tentative end, and
    so in the chunk, which the cut only shortens.

    A second bound raises k_min further.  A partition of n >= lo whose
    largest index is k scores k + mu(r) at best, r = n - C(k,2).  The floor
    f(m) = (1 + sqrt(8m+1))/2 is concave with f(0) > 0, hence subadditive,
    and f(C(i,2)) = i, so any partition of m >= 1 scores at least f(m):
    mu(m) >= f(m) for m >= 1 (not for m = 0, where f(0) = 1).  A score of
    at most U then needs f(r) <= U - k, that is r <= C(U-k,2); for r = 0
    that holds anyway.  Either way C(k,2) + C(U-k,2) >= n >= lo, so every
    k with C(k,2) + C(U-k,2) < lo is ruled out.  The left side steps by
    2k + 1 - U from k to k + 1, so it increases once 2k >= U: from such a
    k_min the ruled-out indices are a prefix, and k_min steps past them.
    The steps stop by k = U at the latest, where the left side is
    C(U,2) > end because U >= j + 2 (mu(1) = 2, and j >= 2), so U - k never
    goes negative.  `_second_bound` jumps most of the way: the left side is
    k^2 - Uk + C(U,2), so no index below the larger real root of
    k^2 - Uk + C(U,2) = lo passes, and the steps start from its integer
    floor, which never overshoots.  Near the top of the table at C(2000,2)
    and 10**7 this leaves 10 and 5 part indices per chunk, where the first
    bound alone leaves 93 and 119; the whole fill makes 2,696 passes over
    163 chunks and 6,010 over 651.

    So mu(n) is the least mu(n - C(i,2)) + i over k_min <= i with
    C(i,2) <= n.  The chunk is cut to end - lo < C(k_min,2), so every such
    source lies below lo and is final: one np.minimum per part index fills
    the chunk, and a chunk of one entry is the same step.  U comes from the
    table, never from the analytic bounds, which keeps those independently
    testable; the second bound uses the floor f only through integer
    triangular numbers and isqrt.  `_chunks` yields each chunk with its
    k_min.  The fill steps C(i,2) up by i - 1 per part index, stops past
    the chunk's end, and forms every sum but the first part index's in one
    chunk-wide buffer, made once per fill.

    Entries are uint16, and no sum the fill forms can wrap.  Each is
    mu(m) + i with m < n <= TABLE_LIMIT and a part index
    i <= largest_index(TABLE_LIMIT) = 14,142.  By Gauss every m is a sum
    of three triangular numbers C(i,2), and since inverse_triangular is
    concave their indices add up to at most gauss_bound(m); parts C(1,2)
    = 0 are dropped, which only lowers the score.  So
    mu(m) <= gauss_bound(TABLE_LIMIT) < 24,497, and every sum is at most
    24,497 + 14,142 = 38,639 < 65,535.
    """

    def __init__(self, n_max: int = 0):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self._values = np.zeros(1, dtype=np.uint16)
        self._n_max = 0
        if n_max > 0:
            self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return self._n_max

    @property
    def values(self) -> np.ndarray:
        """Read-only uint16 view of mu(0..n_max).

        Widen before arithmetic, with astype(np.int64) or a dtype=np.int64
        argument: numpy keeps uint16 when a uint16 array meets a Python int
        or another uint16 array, so a difference or a product wraps
        silently.
        """
        view = self._values[: self._n_max + 1].view()
        view.flags.writeable = False
        return view

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n > self._n_max:
            raise IndexError(f"table holds 0..{self._n_max}, asked for {n}")
        return int(self._values[n])

    def ensure(self, n_max: int) -> "MuTable":
        """Grow the table to cover exactly 0..n_max; values already present are kept.

        Each growth copies the table, so a caller that grows it n by n
        should step geometrically.  Inside the library a caller that knows
        the size it needs grows the process-wide table here, and one that
        steps n upward goes through `_grow`, which doubles.  Raises
        ValueError, before allocating, past TABLE_LIMIT.
        """
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if n_max <= self._n_max:
            return self
        if n_max > TABLE_LIMIT:
            raise ValueError(f"mu table is limited to n <= {TABLE_LIMIT}, asked for {n_max}")
        grown = np.zeros(n_max + 1, dtype=np.uint16)
        grown[: self._n_max + 1] = self._values[: self._n_max + 1]
        self._values = grown
        self._fill(self._n_max + 1, n_max)
        self._n_max = n_max
        return self

    def _fill(self, lo: int, hi: int) -> None:
        dp = self._values
        buf = np.empty(min(_CHUNK, hi - lo + 1), dtype=np.uint16)
        for lo, end, k_min in _chunks(dp, lo, hi):
            t = triangular(k_min)
            np.add(dp[lo - t : end + 1 - t], k_min, out=dp[lo : end + 1])
            i, t = k_min + 1, t + k_min
            while t <= end:
                start = max(lo, t)
                part = dp[start : end + 1]
                src = np.add(dp[start - t : end + 1 - t], i, out=buf[: end + 1 - start])
                np.minimum(part, src, out=part)
                i, t = i + 1, t + i


def _chunks(dp: np.ndarray, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """The chunks (lo, end, k_min) that fill dp[lo..hi], in order.

    Each chunk's window is taken from dp[:lo] only (see `MuTable`), so the
    next chunk is computed once the caller has filled this one.
    """
    while lo <= hi:
        end = min(lo + min(_CHUNK, lo // 4 + 1) - 1, hi)
        j = largest_index(end)
        ub = j + (int(dp[:j].max()) if j <= lo else 2 * (j - 1))
        k_min = max(2, 1 + -(-(2 * lo) // ub))
        if 2 * k_min >= ub:
            k_min = _second_bound(lo, ub, k_min)
        end = min(end, lo + triangular(k_min) - 1)
        yield lo, end, k_min
        lo = end + 1


def _second_bound(lo: int, ub: int, k: int) -> int:
    """Least i >= k with C(i,2) + C(ub-i,2) >= lo, for 2k >= ub and C(ub,2) >= lo.

    The left side is i^2 - ub*i + C(ub,2), nondecreasing for i >= ub/2, and
    below lo exactly between the real roots of i^2 - ub*i + C(ub,2) = lo.
    So no answer lies below the larger root (ub + sqrt(4*lo + 2*ub - ub^2))/2
    or, with no real root, below k.  The steps start from the floor of the
    root, at most one short of the answer, rather than from k.
    """
    k = max(k, (ub + math.isqrt(max(0, 4 * lo + 2 * ub - ub * ub))) // 2)
    while triangular(k) + triangular(ub - k) < lo:
        k += 1
    return k


_shared = MuTable()


def shared_table() -> MuTable:
    """The process-wide table that `mu`, the closed forms and the searches read."""
    return _shared


def _grow(n: int, cap: int) -> MuTable:
    """The process-wide table, grown to cover n if it does not yet.

    For callers that step n upward: each growth at least doubles the table,
    so growing it n by n stays linear overall, but stops at cap, the
    caller's last n.  A caller that streams blocks passes each block's own
    last n, so its blocks, not the table's size, set where they end.  A
    caller that knows its size calls `ensure` instead.
    """
    if n > _shared.n_max:
        _shared.ensure(max(n, min(2 * _shared.n_max, cap)))
    return _shared


def mu(n: int) -> int:
    """mu(n), extending the process-wide table on demand."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _grow(n, TABLE_LIMIT)[n]


def _mu_fold(n: int) -> np.ndarray:
    """mu(0..n) by folding in one part index at a time, with no window.

    After parts 2..i-1, values[m] is the least score using only those
    parts.  Taking part i r times moves m along its column m mod C(i,2)
    by r rows at a cost of r*i, so folding it in is one running minimum of
    values - r*i down each column (an unbounded knapsack pass).  Shares
    nothing with the windowed `MuTable` fill.
    """
    values = np.full(n + 1, 2 * n + 1, dtype=np.int64)  # above any mu(m) <= 2m
    values[0] = 0
    for i in range(2, largest_index(n) + 1):
        width = triangular(i)
        rows = n // width + 1
        # Padding fills only the tail of the last row, which feeds no entry.
        grid = np.zeros(rows * width, dtype=np.int64)
        grid[: n + 1] = values
        walk = np.arange(rows, dtype=np.int64)[:, None] * i
        shifted = grid.reshape(rows, width) - walk
        # The same running minimum either way: accumulate down axis 0 runs
        # one inner loop per column, the loop one call per row; take the
        # fewer.
        if rows > width:
            shifted = np.minimum.accumulate(shifted, axis=0)
        else:
            for r in range(1, rows):
                np.minimum(shifted[r], shifted[r - 1], out=shifted[r])
        values = (shifted + walk).ravel()[: n + 1]
    return values


def mu_oracle(n: int) -> int:
    """mu(n) by the unwindowed fold of `_mu_fold`, independent of `MuTable`.

    Refuses n past ORACLE_LIMIT before allocating; the fold takes about
    12 s at that limit on a 2-vCPU machine.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle is limited to n <= {ORACLE_LIMIT}")
    return int(_mu_fold(n)[n])


def lower_bound(n: int) -> float:
    """Envelope floor: inverse_triangular(n).  Defined for n >= 1."""
    if n < 1:
        raise ValueError("lower bound needs n >= 1")
    return inverse_triangular(n)


def gauss_bound(n: int) -> float:
    """Envelope ceiling from three-triangular decompositions: 3*inverse_triangular(n/3)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3.0 * inverse_triangular(n / 3.0)


def combined_bound(n: int) -> float:
    """Sharper ceiling: one near-maximal part plus a three-part remainder.

    Defined for n >= 1.  Not provably below gauss_bound everywhere; both
    ceilings are reported and mu is checked against their minimum.
    """
    if n < 1:
        raise ValueError("combined bound needs n >= 1")
    fn = inverse_triangular(n)
    return fn + 3.0 * inverse_triangular((fn - 2.0) / 3.0)


def _envelope(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, gauss, combined) over an int64 array of n >= 1.

    The scalar bounds' expressions step for step on float64 arrays: every
    integer converts to a float exactly, and np.sqrt rounds as math.sqrt
    does, so every float equals the scalar bound's.
    """
    lower = (1.0 + np.sqrt(8.0 * n + 1.0)) / 2.0
    gauss = 3.0 * ((1.0 + np.sqrt(8.0 * (n / 3.0) + 1.0)) / 2.0)
    return lower, gauss, lower + 3.0 * ((1.0 + np.sqrt(8.0 * ((lower - 2.0) / 3.0) + 1.0)) / 2.0)


def _bounds_columns(n_max: int) -> Iterator[list[list]]:
    """The bound profiles of n = 1..n_max as columns n, mu, lower, gauss, combined.

    One list of Python lists per block of at most `_CHUNK` rows.  Each
    block grows the table to its own last n (`_grow`, whose doubling steps
    end exactly at n_max), so the first rows come at once however long the
    full fill takes.  An n_max out of range is refused at the call, before
    any row.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > TABLE_LIMIT:
        raise ValueError(f"mu table is limited to n <= {TABLE_LIMIT}, asked for {n_max}")

    def blocks() -> Iterator[list[list]]:
        lo = 1
        while lo <= n_max:
            hi = min(lo + _CHUNK, n_max + 1)
            values = _grow(hi - 1, n_max).values
            n = np.arange(lo, hi)
            yield [column.tolist() for column in (n, values[lo:hi], *_envelope(n))]
            lo = hi

    return blocks()
