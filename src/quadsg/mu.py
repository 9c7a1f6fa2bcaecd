"""Minimum index-weight of partitions into triangular numbers.

A partition of n into parts C(i,2) = i(i-1)/2 with part indices i >= 2
is scored by the sum of its indices (with multiplicity).  mu(n) is the
least score over all such partitions; every n >= 0 has one because
C(2,2) = 1.  Values satisfy

    mu(0) = 0,
    mu(n) = min(mu(n - C(i,2)) + i  for i >= 2 with C(i,2) <= n).

Allowing i = 1 would add the useless option mu(n) + 1 and is skipped.

The module provides a growable bottom-up table (`MuTable`), filled by
blocks of triangular levels (the n from C(i,2) to C(i+1,2) - 1) with one
strided pass per part index: the four largest below level 418, the
largest alone from there on, an oracle (`mu_oracle`) that folds in one
part at a time with no such rule, checked against the table up to
n = 10**6, the analytic envelope around mu (`lower_bound`, `gauss_bound`,
`combined_bound`).  `mu` and everything built on it read one process-wide
table.
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

# Most entries in one working array: the one block size of the package.
# The fill takes blocks of levels of at most this many entries: of the
# powers 2**14, 2**16 and 2**18, the middle one filled mu(0..C(2000,2))
# fastest on a 2-vCPU machine (4.4, 3.9 and 4.4 ms, medians of nine fresh
# processes), and it keeps that fill's peak within 0.3 MB of the table
# itself.  As int64, 2**16 entries are 512 KiB, so a temporary cut to it
# keeps memory flat however large the input: `frobenius` takes its lifts
# and search's `_pairs` their pairs in blocks of 2**16, and `bounds` (five
# columns) and the sweep (`invariants._scan`, eight) take a quarter and an
# eighth as many rows, about 2**16 cells a block, which the CLI prints as
# one string.  Uncut, the sweep would allocate a * b_max entries before its
# first row (800 MB at a = 2, b_max = 5*10**7) and F at a = 10**8 - 1 would
# widen the whole lift array (several GB).
_BLOCK = 1 << 16

# mu(0..27), which the fill copies: below C(8,2) = 28 some levels read
# their own entries, so the level blocks start at 28.  The tests check these
# against the recursion.
_HEAD = (0, 2, 4, 3, 5, 7, 4, 6, 8, 7, 5, 7, 8, 8, 10, 6, 8, 10, 9, 11, 10, 7, 9, 11, 10, 11, 13, 11)

# The fill's rule (see `MuTable`): the levels below _GREEDY take part
# indices i - _DEPTH..i, and from _GREEDY on part i alone.
_GREEDY, _DEPTH = 418, 3


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

    The fill works by levels: level i holds the i entries n = C(i,2) + r,
    0 <= r < i, and C(i,2) is the largest part that fits each of them.  It
    takes mu(n) as the least mu(n - C(i-d,2)) + i - d over the depths
    0 <= d <= D, by one fixed rule: D = `_DEPTH` = 3 on the levels below
    `_GREEDY` = 418, and D = 0 from there on, where each level is the greedy
    copy i + mu(0..i-1).  Every depth is a real partition, so the rule can
    only err by cutting off every optimal largest index of some n.

    Below level 418 (n < C(418,2) = 87,153) the rule is checked on its whole
    domain: the tests compare the fill with the fold of `mu_oracle` to
    3*10**5.  Read off the fold, the least depth that keeps an optimal
    partition is 0, 1, 2 and 3 on 303, 97, 9 and 1 of the levels 8..417;
    the 107 that need more than 0 are the levels where greedy fails.

    From level 418 on the rule is the greedy identity mu(C(i,2) + r) = i +
    mu(r), r < i; the fold checks it directly on levels 418..774.  On each
    level i from 745 on, U = i + max mu(0..i-1) bounds mu: take C(i,2) and
    an optimal partition of r.  Let k be the largest index of an optimal
    partition of n on the level and lo = C(i,2).  First, a partition whose
    indices are all at most k uses parts C(j,2) <= j(k-1)/2, so n <=
    mu(n)(k-1)/2 and k >= k1 = max(2, 1 + ceil(2*lo/U)).  Second, the rest
    m = n - C(k,2) scores mu(m) <= U - k, and mu(m) >= f(m) for m >= 1 (see
    `lower_bound`), so m <= C(U-k,2), for m = 0 too: C(k,2) + C(U-k,2) >= lo.
    The left side steps by 2k + 1 - U from k to k + 1, so where 2*k1 >= U
    it does not decrease from k1 on, and C(i-2,2) + C(U-i+2,2) < lo rules
    out every k <= i - 2.  Then k is i - 1 or i; part i - 1 leaves r + i - 1,
    and mu(r+i-1) - mu(r) >= 1 for every r < i means i - 1 never beats i.
    These three checks hold on every level from 745 to
    largest_index(TABLE_LIMIT) = 14,142; they read only mu(0..2*14,142),
    which the tests take from the fold.  A raised TABLE_LIMIT needs them to
    its own top level.

    The source of depth d is n - C(i-d,2) = r + d*i - C(d+1,2): for one d
    its offset is linear in i.  `_fill_block` therefore fills a block of
    consecutive levels i0..i1-1 with one strided 2-D view per d, row i - i0
    starting at d*i0 - C(d+1,2) + d*(i - i0) and as wide as the widest
    level (the shorter rows' extra columns are read, never written), takes
    the minimum over d, and writes the rows back with one np.concatenate.
    A block takes the depth of its first level; where it reaches past
    level 418 the extra depths are real partitions, so the minimum is
    still mu.

    `_blocks` ends each block at `_BLOCK` entries (one level at least)
    and where its last level i = i1 - 1 would read at or past its first
    entry, start: that level's last entry reads (D+1)*i - 1 - C(D+1,2) at
    depth D.  Blocks start at level 8, so D <= 3 <= i0 - 2: every part
    index i - d is at least 2, every source r + d*i - C(d+1,2) (r < i,
    extra columns included) grows with r, d and the row's level, stays
    below start, and is final: one pass per d fills the block.  A block of
    one level i0 >= 8 is not cut: at D = 3 its last entry reads 4*i0 - 7 <
    C(i0,2), and less at D = 0.  Below C(8,2) = 28
    levels 2, 3, 4, 5 and 7 read their own entries, so mu(0..27) is copied
    from `_HEAD`.  The fill of certify's table walks 36 blocks and 57
    passes; 10**7 walks 162 and 183, and 10**8 walks 1,662 and 1,683.

    Entries are uint16, and no sum the fill forms can wrap.  Each is at most
    mu(m) + i with m < n <= TABLE_LIMIT and a part index i <=
    largest_index(TABLE_LIMIT) = 14,142; the extra columns read final
    entries too.  By Gauss every m is a sum of three triangular numbers
    C(i,2), and since inverse_triangular is concave their indices add up to
    at most gauss_bound(m); parts C(1,2) = 0 are dropped, which only lowers
    the score.  So mu(m) <= gauss_bound(TABLE_LIMIT) < 24,497, and every
    sum is at most 24,497 + 14,142 = 38,639 < 65,535.
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
        head = _HEAD[lo : hi + 1]
        dp[lo : lo + len(head)] = head
        for start, end, depth in _blocks(max(lo, len(_HEAD)), hi):
            _fill_block(dp, start, end, depth)


def _fill_block(dp: np.ndarray, start: int, end: int, depth: int) -> None:
    """Write mu(start..end) into dp, every source below start (see `MuTable`)."""
    i0, i1 = largest_index(start), largest_index(end) + 1
    rows, width = i1 - i0, i1 - 1

    def sources(d: int) -> np.ndarray:
        # Row i - i0, column r: dp[C(i,2) + r - C(i-d,2)].
        offset = d * i0 - triangular(d + 1)
        return np.ndarray((rows, width), np.uint16, dp, 2 * offset, (2 * d, 2))

    # best = min over d' <= d of mu(source d') + d - d', one d at a time.
    best = sources(0).copy()
    for d in range(1, depth + 1):
        best += 1
        np.minimum(best, sources(d), out=best)
    best += np.arange(i0 - depth, i1 - depth, dtype=np.uint16)[:, None]
    levels = [best[j, : i0 + j] for j in range(rows)]
    levels[-1] = levels[-1][: end + 1 - triangular(i1 - 1)]
    levels[0] = levels[0][start - triangular(i0) :]
    np.concatenate(levels, out=dp[start : end + 1])


def _blocks(lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """The blocks (start, end, depth) that fill mu(lo..hi), lo >= 28, in order.

    A block is the n of whole levels, but for its first and last ones when
    lo or hi cuts them; depth is the rule's depth at its first level (see
    `MuTable`).
    """
    top = largest_index(hi)
    start = lo
    while start <= hi:
        i0 = largest_index(start)
        depth = _DEPTH if i0 < _GREEDY else 0
        # The last level i's last entry reads dp[(d+1)*i - 1 - C(d+1,2)] at
        # depth d, which must lie below start.
        fit = (start + triangular(depth + 1)) // (depth + 1)
        i1 = max(i0 + 1, min(largest_index(start + _BLOCK), top + 1, fit + 1))
        end = min(hi, triangular(i1) - 1)
        yield start, end, depth
        start = end + 1


_shared = MuTable()


def shared_table() -> MuTable:
    """The process-wide table that `mu`, the closed forms and the searches read."""
    return _shared


def _grow(n: int) -> MuTable:
    """The process-wide table, grown to cover n if it does not yet.

    For callers that step n upward (`mu`, the closed forms): each growth
    at least doubles the table, up to TABLE_LIMIT, so growing it n by n
    stays linear overall.  A caller that knows its size calls `ensure`
    instead.
    """
    if n > _shared.n_max:
        _shared.ensure(max(n, min(2 * _shared.n_max, TABLE_LIMIT)))
    return _shared


def mu(n: int) -> int:
    """mu(n), extending the process-wide table on demand."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _grow(n)[n]


def _mu_fold(n: int) -> np.ndarray:
    """mu(0..n) by folding in one part index at a time, with no window.

    After parts 2..i-1, values[m] is the least score using only those
    parts; part 2 alone (C(2,2) = 1 at cost 2) scores 2m.  Folding in part
    i makes values[m] the least values[m - r*w] + r*i over r <= m // w,
    w = C(i,2) (an unbounded knapsack pass).  The fold doubles, as
    `invariants._apery` does without its wrap: the step (w, c) takes each
    values[m] down to values[m - w] + c where that is less, reading values
    from before the step, so after the steps (w, i), (2w, 2i), ...,
    (2**S*w, 2**S*i) entry m holds the least over r < 2**(S+1) copies.
    The steps run while 2**S*w <= n, so the last leaves 2**(S+1)*w > n and
    every r <= n // w is covered.  No int64 sum wraps: entries stay at most
    2n, and 2**S*w <= n bounds each cost 2**S*i by 2n/(i-1).  Shares
    nothing with the `MuTable` fill.
    """
    values = 2 * np.arange(n + 1, dtype=np.int64)
    for i in range(3, largest_index(n) + 1):
        w, c = triangular(i), i
        while w <= n:
            np.minimum(values[w:], values[: n + 1 - w] + c, out=values[w:])
            w, c = 2 * w, 2 * c
    return values


def mu_oracle(n: int) -> int:
    """mu(n) by the unwindowed fold of `_mu_fold`, independent of `MuTable`.

    Refuses n past ORACLE_LIMIT before allocating; the fold takes about
    4.5 s and 16 MB at that limit on a 2-vCPU machine.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle is limited to n <= {ORACLE_LIMIT}")
    return int(_mu_fold(n)[n])


def lower_bound(n: int) -> float:
    """Envelope floor: inverse_triangular(n).  Defined for n >= 1.

    mu(n) >= f(n) = inverse_triangular(n) for n >= 1: f is concave with
    f(0) > 0, hence subadditive, and f(C(j,2)) = j, so any partition of n
    into parts C(j,2) >= 1 scores at least f(n).  Not for n = 0, where
    f(0) = 1 > mu(0).
    """
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

    One list of Python lists per block of at most `_BLOCK // 4` rows.  The
    call fills the process-wide table to n_max, or refuses an n_max out of
    range, before any row.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    values = _shared.ensure(n_max).values
    ns = (np.arange(lo, min(lo + _BLOCK // 4, n_max + 1)) for lo in range(1, n_max + 1, _BLOCK // 4))
    return ([column.tolist() for column in (n, values[n], *_envelope(n))] for n in ns)
