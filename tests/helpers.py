"""Independent reference implementations used only by tests.

Deliberately naive: plain Python, no windowing, no numpy closures, so a
bug in the package's optimized paths cannot hide here too.  Three kinds
are the exception.  The `*_scan` searches make one numpy pass per a over
every pair, fast enough to check the package's pruned searches at a few
thousand.  The mu fixpoint check makes one numpy pass per part index,
fast enough to check the table at 10**7.  `frobenius_streamed` forms
every lift in numpy blocks, fast enough to check F at 10**8.
`invariants_row` is no reference at all: it spells the expected
`invariants` row of one pair from the package's public functions, so the
CLI tests share one.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

from quadsg import (
    EXCEPTIONAL_CASES,
    bounds_certified,
    frobenius,
    frobenius_bounds,
    genus,
    genus_bounds,
    make_semigroup,
    mu_ab_closed,
)


def tri(i: int) -> int:
    return i * (i - 1) // 2


def mu_table_plain(n_max: int) -> list[int]:
    """Textbook DP over every part index with C(i,2) <= n."""
    dp = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        best = dp[n - 1] + 2
        i = 3
        while tri(i) <= n:
            v = dp[n - tri(i)] + i
            if v < best:
                best = v
            i += 1
        dp[n] = best
    return dp


def mu_fixpoint_mismatches(values) -> np.ndarray:
    """The n in 0..N where T = values (uint16, length N + 1) breaks mu's recursion.

    T equals mu on 0..N exactly when T(0) = 0 and, for 1 <= n <= N, T(n) is
    the least T(n - C(i,2)) + i over every i >= 2 with C(i,2) <= n: by strong
    induction on n, since the right side reads only smaller n.  So an empty
    answer pins every entry with no window proof and no second table; the
    check reads T only, with one np.add and one np.minimum per part index.

    No uint16 sum wraps: each is T(m) + i with i <= largest_index(N) <=
    14,142 and T(m) = mu(m) <= 24,497 up to TABLE_LIMIT (by Gauss, see the
    no-wrap paragraph of `quadsg.mu._mu_span`), and 38,639 < 65,535.  A T
    past that bound is not mu, and is refused.
    """
    n_max = len(values) - 1
    i_max = (1 + math.isqrt(8 * n_max + 1)) // 2
    assert int(values.max()) + i_max < 1 << 16, "T is past mu's bound"
    best = np.full(n_max + 1, (1 << 16) - 1, dtype=np.uint16)
    best[0] = 0
    buf = np.empty(n_max + 1, dtype=np.uint16)
    i, t = 2, 1
    while t <= n_max:
        width = n_max + 1 - t
        np.minimum(best[t:], np.add(values[:width], i, out=buf[:width]), out=best[t:])
        i, t = i + 1, t + i
    return np.flatnonzero(best != values)


def frobenius_streamed(a: int, b: int) -> int:
    """F of nontrivial S(a,b): the largest lift mu_{a,b}(n)*a + n*b over every
    n < a, less a, streamed off `_mu_span` in blocks of 2**14 n.

    mu_{a,b}(n) is mu(n) less one at an exceptional (a, 1, n).  No level
    rule: every lift is formed.  Each is held exactly in int64 as two
    limbs, lift = top*2**32 + rest, with b = high*2**32 + low: rest and
    the carry into top come from n*low + m*a < 2**60, and top adds n*high
    < 2**58, for n < 2**27 and m < 2**15.  The largest lift has the largest
    top, and the largest rest among the n with that top.
    """
    quadsg_mu = importlib.import_module("quadsg.mu")
    drops = [c.n for c in EXCEPTIONAL_CASES if (c.a, 1) == (a, b)]
    high, low = divmod(b, 1 << 32)
    best = -1
    for lo in range(0, a, 1 << 14):
        hi = min(lo + (1 << 14), a)
        m = quadsg_mu._mu_span(lo, hi - 1).astype(np.int64)
        m[[n - lo for n in drops if lo <= n < hi]] -= 1
        n = np.arange(lo, hi, dtype=np.int64)
        total = n * low + m * a
        top, rest = (total >> 32) + n * high, total & ((1 << 32) - 1)
        peak = int(top.max())
        best = max(best, peak << 32 | int(rest[top == peak].max()))
    return best - a


def semigroup_members(a: int, b: int, bound: int) -> set[int]:
    """Members of S(a,b) up to bound, by set-based breadth-first closure."""
    gens = []
    n = 1
    while True:
        y = n * a + tri(n) * b
        if y > bound:
            break
        if y > 0:
            gens.append(y)
        n += 1
    members = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for y in gens:
            total = base + y
            if total <= bound and total not in members:
                members.add(total)
                frontier.append(total)
    return members


def minimal_generators_naive(a: int, b: int, bound: int) -> list[int]:
    """Indices n >= 1 whose y_n is not a sum of two nonzero members.

    Built on `semigroup_members` up to bound.  Asserts that bound ends
    with a run of a consecutive members: then everything past it is in S,
    so every minimal generator (at most the Frobenius number plus a) lies
    within bound and the answer is exact.
    """
    members = semigroup_members(a, b, bound)
    assert all(x in members for x in range(bound - a + 1, bound + 1)), "bound too small"
    indices = []
    n = 1
    while n * a + tri(n) * b <= bound:
        y = n * a + tri(n) * b
        if y > 0 and not any(y - x in members for x in members if 0 < x < y):
            indices.append(n)
        n += 1
    return indices


def lift_members(m_max: int, n_max: int) -> list[list[bool]]:
    """Reachable (m,n) from generators (i, C(i,2)), i >= 1, by BFS on a grid."""
    reach = [[False] * (n_max + 1) for _ in range(m_max + 1)]
    reach[0][0] = True
    gens = [(i, tri(i)) for i in range(1, m_max + 1) if tri(i) <= n_max]
    frontier = [(0, 0)]
    while frontier:
        m, n = frontier.pop()
        for dm, dn in gens:
            mm, nn = m + dm, n + dn
            if mm <= m_max and nn <= n_max and not reach[mm][nn]:
                reach[mm][nn] = True
                frontier.append((mm, nn))
    return reach


def least_lift_scan(contains, a: int, b: int, n: int) -> int:
    """Least m with m*a + n*b in S, by linear scan from the first m
    making the value nonnegative.  `contains` is the membership callable."""
    m = -((n * b) // a)
    while not contains(m * a + n * b):
        m += 1
    return m


def apery_closed_plain(s) -> tuple[int, ...]:
    """Apery set of S(a,b) w.r.t. a by one `mu_ab_closed` call per n, in
    Python ints: the class of n*b mod a holds mu_{a,b}(n)*a + n*b."""
    a, b = s.a, s.b
    elements = [0] * a
    for n in range(a):
        elements[(n * b) % a] = mu_ab_closed(s, n) * a + n * b
    return tuple(elements)


def invariant_bounds_plain(a: int, b: int) -> tuple[float, float, float, float]:
    """(F low, F high, g low, g high) of S(a,b): the scalar expressions of
    `frobenius_bounds` and `genus_bounds` as first written, one pair at a
    time, in the same order of evaluation."""
    f_low = a / 2.0 * (1.0 + math.sqrt(8.0 * a - 7.0)) + a * b - a - b
    f_high = a / 2.0 * (3.0 + math.sqrt(24.0 * a - 15.0)) + a * b - a - b
    shift = (a - 1) * (b - 1) / 2.0
    g_low = ((8.0 * a - 7.0) ** 1.5 + 12.0 * a - 13.0) / 24.0 + shift
    g_high = (
        math.sqrt(3.0) * (8.0 * a + 3.0) ** 1.5 + 36.0 * a - 36.0 - 11.0 * math.sqrt(33.0)
    ) / 24.0 + shift
    return (f_low, f_high, g_low, g_high)


def invariants_row(a: int, b: int) -> dict:
    """The json object `quadsg invariants` prints for S(a,b), key for key;
    its first eight values are the csv row's cells."""
    s = make_semigroup(a, b)
    f_low, f_high = frobenius_bounds(a, b)
    g_low, g_high = genus_bounds(a, b)
    return {
        "a": a,
        "b": b,
        "frobenius": frobenius(s),
        "genus": genus(s),
        "frobenius_low": f_low,
        "frobenius_high": f_high,
        "genus_low": g_low,
        "genus_high": g_high,
        "bounds_certified": bounds_certified(a, b),
    }


def drop_hits_plain(values, a_max: int) -> list[tuple[int, int, int, int]]:
    """(a, n, mu(n), mu(n+a)) for 3 <= n < a <= a_max with a drop in 2..4,
    by a double loop over `values` (mu(0..2*a_max - 1))."""
    found = []
    for a in range(4, a_max + 1):
        for n in range(3, a):
            mu_n = int(values[n])
            mu_shifted = int(values[n + a])
            if 2 <= mu_n - mu_shifted <= 4:
                found.append((a, n, mu_n, mu_shifted))
    return found


def residue_hits_plain(values, a_max: int) -> list[tuple]:
    """(a, n, C(n,2), C(n,2) mod a, mu of it, excluded_by) for every
    1 <= n <= a <= a_max with mu(C(n,2) mod a) = n + 1, by a double loop.

    excluded_by names, semicolon separated, the side constraints a hit
    violates: C(n,2) <= a, C(n,2) > C(a,2), or a dividing C(n,2)."""
    found = []
    for a in range(2, a_max + 1):
        limit = tri(a)
        for n in range(1, a + 1):
            binom = tri(n)
            residue = binom % a
            mu_residue = int(values[residue])
            if mu_residue != n + 1:
                continue
            reasons = []
            if binom <= a:
                reasons.append("binom_not_above_a")
            if binom > limit:
                reasons.append("binom_above_limit")
            if residue == 0:
                reasons.append("binom_multiple_of_a")
            found.append((a, n, binom, residue, mu_residue, ";".join(reasons)))
    return found


def drop_hits_scan(values, a_max: int) -> list[tuple[int, int, int, int]]:
    """The rows of `drop_hits_plain` by one numpy pass over every n < a per
    a; `values` is a uint16 array of mu(0..2*a_max - 1)."""
    found = []
    for a in range(4, a_max + 1):
        drop = np.subtract(values[3:a], values[3 + a : 2 * a], dtype=np.int64)
        for n in (np.flatnonzero((drop >= 2) & (drop <= 4)) + 3).tolist():
            found.append((a, n, int(values[n]), int(values[n + a])))
    return found


def residue_hits_scan(values, a_max: int) -> list[tuple[int, int, int, int, int]]:
    """The rows of `residue_hits_plain`, without excluded_by, by one numpy
    pass over every n <= a per a; `values` is a uint16 array of mu(0..a_max)."""
    indices = np.arange(1, a_max + 1)
    binoms = indices * (indices - 1) // 2
    found = []
    for a in range(2, a_max + 1):
        ns = indices[:a]
        for n in ns[values[binoms[:a] % a] == ns + 1].tolist():
            found.append((a, n, tri(n), tri(n) % a, n + 1))
    return found
