"""Minimum index-weight of partitions into triangular numbers.

A partition of n into parts C(i,2) = i(i-1)/2 with part indices i >= 2
is scored by the sum of its indices (with multiplicity).  mu(n) is the
least score over all such partitions; every n >= 0 has one because
C(2,2) = 1.  Values satisfy

    mu(0) = 0,
    mu(n) = min(mu(n - C(i,2)) + i  for i >= 2 with C(i,2) <= n).

Allowing i = 1 would add the useless option mu(n) + 1 and is skipped.

Level i holds the i numbers n = C(i,2) + r, 0 <= r < i.  From level 418 on,
up to `TABLE_LIMIT`, mu follows the greedy rule mu(n) = i + mu(r) (proven
at `_mu_span`), so every mu the package serves is one read of a fixed head,
mu(0..C(418,2) - 1) = mu(0..87,152) in 87,153 uint16 entries (174 KB).
The head is built once, at import, by blocks of whole levels with one
strided pass per part index (`_build_head`), and is read-only.  Readers:
`_mu_span` (a range of n, one slice add per level past the head), `mu`
(one n), `_mu_gather` (points given by level) and `_mu_sum` (sum of
mu(0..a-1) from level sums); `MuTable` is a snapshot.
An oracle (`mu_oracle`) folds in one part at a time with no such rule and
checks the head and the level rule up to n = 10**6.  The analytic
envelope around mu: `lower_bound`, `gauss_bound`, `combined_bound`.
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
    "triangular",
]

ORACLE_LIMIT = 10**6

# Largest n served: the greedy rule is proven on every level up to
# largest_index(TABLE_LIMIT) = 14,142 (see `_mu_span`).
TABLE_LIMIT = 10**8

# Most entries in one working array of the streams that read mu.  As int64,
# 2**16 entries are 512 KiB, so a temporary cut to it keeps memory flat
# however large the input: search's `_pairs` takes its pairs in blocks of
# 2**16, and `bounds` (five columns) and the sweep (`invariants._scan`,
# eight) take a quarter and an eighth as many rows, about 2**16 cells a
# block, which the CLI prints as one string.  Uncut, the sweep would
# allocate a * b_max entries before its first row (800 MB at a = 2,
# b_max = 5*10**7).  mu itself needs no cut: the head is a fixed 87,153
# entries, and `_mu_span` allocates nothing but its result.
_BLOCK = 1 << 16

# The levels below _GREEDY fill from part indices i - _DEPTH..i; from
# _GREEDY on, mu is the greedy copy of the head.
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


def _build_head() -> np.ndarray:
    """The head, mu(0..C(_GREEDY,2) - 1) = mu(0..87,152) as read-only uint16.

    Built once, at import.  mu(0..27) comes from the recursion itself: below
    C(8,2) = 28 levels 2, 3, 4, 5 and 7 read their own entries.  From level
    8 on the build works by blocks of whole levels.  It takes mu(n) as the
    least mu(n - C(i-d,2)) + i - d over the depths 0 <= d <= `_DEPTH` = 3:
    the part indices i-3..i.  Every depth is a real partition, so the rule
    can only err by cutting off every optimal largest index of some n.  It
    is checked on the whole head: the tests compare the head with the fold
    of `mu_oracle`.  Read off the fold, the least depth that keeps an
    optimal partition is 0, 1, 2 and 3 on 303, 97, 9 and 1 of the levels
    8..417; the 107 that need more than 0 are the levels where greedy fails.

    The source of depth d is n - C(i-d,2) = r + d*i - C(d+1,2): for one d
    its offset is linear in i.  A block of levels i0..i1-1 is therefore
    read with one strided 2-D view per d, row i - i0 starting at
    d*i0 - C(d+1,2) + d*(i - i0) and as wide as the widest level (the
    shorter rows' extra columns are read, never written).  The minimum over
    d is written back, row i's first i entries, with one np.concatenate.

    A block ends at i1 = min(418, (C(i0,2) + 6) // 4 + 1): its last level
    i = i1 - 1 has its last source, extra columns included, at 4*i - 7 at
    depth 3, below the block's first entry C(i0,2).  Blocks start at level
    8, so i1 > i0 and 3 <= i0 - 2: every part index i - d is at least 2,
    and every source r + d*i - C(d+1,2) grows with r, d and the row's level,
    stays below C(i0,2), and is final: one pass per d fills the block.  The
    whole head is 6 blocks and 24 passes.

    No uint16 sum wraps: each is at most mu(m) + 417 with m < 87,153, and
    mu(m) <= gauss_bound(87,152) < 725 (see `_mu_span`).
    """
    base = [0]
    for n in range(1, triangular(8)):
        base.append(min(base[n - triangular(i)] + i for i in range(2, largest_index(n) + 1)))
    head = np.empty(triangular(_GREEDY), dtype=np.uint16)
    head[: len(base)] = base
    i0 = 8
    while i0 < _GREEDY:
        i1 = min(_GREEDY, (triangular(i0) + 6) // 4 + 1)
        rows, width = i1 - i0, i1 - 1
        # Row i - i0, column r of view d: head[C(i,2) + r - C(i-d,2)].
        views = [
            np.ndarray((rows, width), np.uint16, head, 2 * (d * i0 - triangular(d + 1)), (2 * d, 2))
            for d in range(_DEPTH + 1)
        ]
        # best = min over d' <= d of mu(source d') + d - d', one d at a time.
        best = views[0].copy()
        for view in views[1:]:
            best += 1
            np.minimum(best, view, out=best)
        best += np.arange(i0 - _DEPTH, i1 - _DEPTH, dtype=np.uint16)[:, None]
        np.concatenate([best[j, : i0 + j] for j in range(rows)], out=head[triangular(i0) : triangular(i1)])
        i0 = i1
    head.flags.writeable = False
    return head


_head = _build_head()


def _check_limit(n: int) -> None:
    """Refuse an n past TABLE_LIMIT, before anything of its size is allocated."""
    if n > TABLE_LIMIT:
        raise ValueError(f"mu table is limited to n <= {TABLE_LIMIT}, asked for {n}")


def _mu_span(lo: int, hi: int) -> np.ndarray:
    """mu(lo..hi) as uint16, 0 <= lo <= hi <= TABLE_LIMIT; read-only where it is the head's.

    Below the head's end it is a slice of the head.  Past it, level i
    holds mu(C(i,2) + r) = i + mu(r), r < i: one np.add of i to a slice of
    the head per level, clipped to lo..hi and written straight into the
    result.

    The greedy rule holds on every level from 418 to largest_index(
    TABLE_LIMIT) = 14,142.  The fold checks it directly on levels 418..774.
    On each level i from 745 on, U = i + max mu(0..i-1) bounds mu: take
    C(i,2) and an optimal partition of r.  Let k be the largest index of an
    optimal partition of n on the level and lo = C(i,2).  First, a
    partition whose indices are all at most k uses parts C(j,2) <=
    j(k-1)/2, so n <= mu(n)(k-1)/2 and k >= k1 = max(2, 1 + ceil(2*lo/U)).
    Second, the rest m = n - C(k,2) scores mu(m) <= U - k, and mu(m) >=
    f(m) for m >= 1 (see `lower_bound`), so m <= C(U-k,2), for m = 0 too:
    C(k,2) + C(U-k,2) >= lo.  The left side steps by 2k + 1 - U from k to
    k + 1, so where 2*k1 >= U it does not decrease from k1 on, and
    C(i-2,2) + C(U-i+2,2) < lo rules out every k <= i - 2.  Then k is i - 1
    or i; part i - 1 leaves r + i - 1, and mu(r+i-1) - mu(r) >= 1 for every
    r < i means i - 1 never beats i.  These three checks hold on every
    level from 745 to 14,142; they read only mu(0..2*14,142), which the
    tests take from the fold.  A raised TABLE_LIMIT needs them to its own
    top level.

    No uint16 entry wraps.  By Gauss every m is a sum of three triangular
    numbers C(i,2), and since inverse_triangular is concave their indices
    add up to at most gauss_bound(m); parts C(1,2) = 0 are dropped, which
    only lowers the score.  So mu(r) <= gauss_bound(14,141) < 293 for
    r < i <= 14,142, and every entry past the head, i + mu(r), is below
    14,142 + 293 = 14,435.
    """
    _check_limit(hi)
    size = len(_head)
    if hi < size:
        return _head[lo : hi + 1]
    out = np.empty(hi + 1 - lo, dtype=np.uint16)
    out[: max(0, size - lo)] = _head[lo:]
    for i in range(largest_index(max(lo, size)), largest_index(hi) + 1):
        t = triangular(i)
        first, last = max(lo, t), min(hi, t + i - 1)
        np.add(_head[first - t : last + 1 - t], i, out=out[first - lo : last + 1 - lo])
    return out


def mu(n: int) -> int:
    """mu(n) by the level rule: the head below level 418, i + mu(r) from there on."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < len(_head):
        return int(_head[n])
    _check_limit(n)
    i = largest_index(n)
    return i + int(_head[n - triangular(i)])


def _mu_gather(i: np.ndarray, r: np.ndarray) -> np.ndarray:
    """mu(C(i,2) + r) as int64 for int64 arrays of levels 2 <= i <= 14,142 and offsets 0 <= r < i.

    One gather by the level rule: the head at C(i,2) + r below level 418,
    i plus the head at r from there on.
    """
    greedy = i >= _GREEDY
    at = np.where(greedy, r, i * (i - 1) // 2 + r)
    return _head[at] + np.where(greedy, i, 0)


def _mu_sum(a: int) -> int:
    """The sum of mu(0..a-1), a >= 1, from level sums of the head.

    With S(r) = mu(0) + ... + mu(r-1), the int64 prefix sums of the head,
    the n below min(a, 87,153) sum to S(min(a, 87,153)).  Each whole level
    i >= 418 below a sums i + mu(r) over r < i, that is i*i + S(i), and the
    level k holding a sums its first a - C(k,2) = t entries to t*k + S(t).
    No int64 sum wraps: mu(n) <= 2n, so the total is below a**2.
    """
    _check_limit(a - 1)
    size = len(_head)
    sums = np.concatenate(([0], np.cumsum(_head[: min(a, size)], dtype=np.int64)))
    if a <= size:
        return int(sums[a])
    k = largest_index(a)
    i = np.arange(_GREEDY, k, dtype=np.int64)
    t = a - triangular(k)
    return int(sums[size]) + int((i * i + sums[i]).sum()) + t * k + int(sums[t])


class MuTable:
    """Read-only snapshot of mu(0..n_max), read off the head by `_mu_span`.

    Raises ValueError past TABLE_LIMIT, before allocating.
    """

    def __init__(self, n_max: int = 0):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self._values = _mu_span(0, n_max)
        self._values.flags.writeable = False

    @property
    def n_max(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> np.ndarray:
        """Read-only uint16 array of mu(0..n_max).

        Widen before arithmetic, with astype(np.int64) or a dtype=np.int64
        argument: numpy keeps uint16 when a uint16 array meets a Python int
        or another uint16 array, so a difference or a product wraps
        silently.
        """
        return self._values

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n > self.n_max:
            raise IndexError(f"table holds 0..{self.n_max}, asked for {n}")
        return int(self._values[n])


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
    nothing with the head build.
    """
    values = 2 * np.arange(n + 1, dtype=np.int64)
    for i in range(3, largest_index(n) + 1):
        w, c = triangular(i), i
        while w <= n:
            np.minimum(values[w:], values[: n + 1 - w] + c, out=values[w:])
            w, c = 2 * w, 2 * c
    return values


def mu_oracle(n: int) -> int:
    """mu(n) by the unwindowed fold of `_mu_fold`, independent of the head.

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

    One list of Python lists per block of at most `_BLOCK // 4` rows, each
    reading its own span of mu.  An n_max out of range is refused at the
    call, before any row.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _check_limit(n_max)

    def blocks() -> Iterator[list[list]]:
        for lo in range(1, n_max + 1, _BLOCK // 4):
            hi = min(lo + _BLOCK // 4, n_max + 1) - 1
            n = np.arange(lo, hi + 1)
            yield [column.tolist() for column in (n, _mu_span(lo, hi), *_envelope(n))]

    return blocks()
