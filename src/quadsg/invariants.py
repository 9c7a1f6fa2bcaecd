"""Apery sets, Frobenius number, genus, and their analytic bounds."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .mu import TABLE_LIMIT, _grow
from .semigroup import (
    EXCEPTIONAL_PAIRS,
    _EXCEPTIONAL,
    _TUPLE_LIMIT,
    QuadraticSemigroup,
    _apery,
    require_nontrivial,
)

__all__ = [
    "AperySet",
    "InvariantSummary",
    "apery_closed",
    "apery_oracle",
    "bounds_certified",
    "frobenius",
    "frobenius_bounds",
    "frobenius_oracle",
    "genus",
    "genus_bounds",
    "genus_oracle",
    "invariant_summary",
]


@dataclass(frozen=True)
class AperySet:
    """Least member of S in each residue class mod `modulus`.

    elements[k] is congruent to k and is the smallest such member; its
    predecessor elements[k] - modulus is outside S (except for k = 0,
    where the element is 0 itself).
    """

    modulus: int
    elements: tuple[int, ...]


def _lifts(a: int) -> np.ndarray:
    """mu(0..a-1) from the shared table: a read-only uint16 view.

    The table grows in doubling steps (`_grow`), so calls at ascending a
    copy it a logarithmic number of times.  It fills, or refuses past
    TABLE_LIMIT, before anything of size a is allocated.
    """
    return _grow(a - 1, TABLE_LIMIT).values[:a]


def _lifted(a: int, b: int, width: int) -> Iterator[np.ndarray]:
    """mu_{a,b}(n)*a + n*b over n = 0..a-1, in 1-D blocks of `width` n.

    The last block may be shorter, and each block widens only its own
    slice of the uint16 table.  mu_{a,b}(n) is mu(n) from the table, less
    one at the exceptional n of (a, b): the values `mu_ab_closed` gives
    one n at a time.  Exact for every b: int64 while the largest value,
    at most max(mu)*a + (a-1)*b, stays below 2**63; Python ints (object
    arrays) past that.
    """
    lifts = _lifts(a)
    big = int(lifts.max()) * a + (a - 1) * b >= 1 << 63
    dtype = object if big else np.int64
    case = _EXCEPTIONAL.get((a, b))
    for lo in range(0, a, width):
        hi = min(lo + width, a)
        values = np.arange(lo, hi, dtype=dtype) * b
        values += np.multiply(lifts[lo:hi], a, dtype=dtype)
        if case is not None and lo <= case.n < hi:
            values[case.n - lo] -= a
        yield values


def apery_closed(s: QuadraticSemigroup) -> AperySet:
    """Apery set with respect to a, assembled from the closed lift values.

    The element in the class of n*b mod a is mu_{a,b}(n)*a + n*b; as n
    runs over 0..a-1 the classes are hit exactly once since gcd(a,b) = 1.
    All a lifts come from the mu table in one array, and one scatter puts
    each element at its class (n*(b mod a)) mod a.  Tests check it against
    the scalar definition, `mu_ab_closed` called once per n.

    Raises ValueError, before the table grows, past a = _TUPLE_LIMIT =
    10**7: its arrays, list and tuple take about 1.2 GB there.  `frobenius`
    and `genus` still serve every a the table holds.
    """
    require_nontrivial(s)
    a = s.a
    if a > _TUPLE_LIMIT:
        raise ValueError(f"Apery set is limited to {_TUPLE_LIMIT} elements, S({a},{s.b}) has {a}")
    values = next(_lifted(a, s.b, a))
    elements = np.empty_like(values)
    elements[np.arange(a, dtype=np.int64) * (s.b % a) % a] = values
    return AperySet(modulus=a, elements=tuple(elements.tolist()))


def apery_oracle(s: QuadraticSemigroup) -> AperySet:
    """Apery set by round robin over the generators alone."""
    if s.trivial:
        if s.a == 1:
            return AperySet(modulus=1, elements=(0,))
        raise ValueError("Apery set needs a positive modulus a")
    return AperySet(modulus=s.a, elements=tuple(_apery(s.a, s.b).tolist()))


def _frobenius(a: int, b: int) -> int:
    """F of S(a, b): the largest value of `_lifted`, less a.

    The maximum runs over blocks of `_SWEEP_BLOCK` entries, so the
    temporaries stay small however large a is.  The single-pair path, and
    the reference the sweep's scans are tested against.
    """
    return int(max(block.max() for block in _lifted(a, b, _SWEEP_BLOCK))) - a


def _genus(a: int, b: int) -> int:
    """g of S(a, b), from one sum of mu(0..a-1).

    b adds (a-1)(b-1)/2, and an exceptional (a, b) takes one off for its
    lowered lift.  The sum accumulates in int64 straight off the uint16
    table; every mu(n) is at most 2n, so it stays below 2*a**2 < 2**63.
    """
    total = int(_lifts(a).sum(dtype=np.int64))
    return total - ((a, b) in _EXCEPTIONAL) + (a - 1) * (b - 1) // 2


def frobenius(s: QuadraticSemigroup) -> int:
    """Largest integer outside S; -1 when S is everything (trivial case).

    The largest Apery element less a, taken as the max of the lifted
    array mu_{a,b}(n)*a + n*b without scattering it.  Tests check it
    against the scalar definition, `mu_ab_closed` called once per n.
    """
    if s.trivial:
        return -1
    return _frobenius(s.a, s.b)


def frobenius_oracle(s: QuadraticSemigroup) -> int:
    if s.trivial:
        return -1
    return max(apery_oracle(s).elements) - s.a


def genus(s: QuadraticSemigroup) -> int:
    """Number of gaps, via the integer lift-sum formula.

    g = sum of mu_{a,b}(n) over 0 <= n < a, plus (a-1)(b-1)/2, with the
    sum taken over the lift array in one numpy reduction.  The division
    is exact: a and b cannot both be even (they are coprime), so a-1 or
    b-1 is even.  Tests check it against the scalar definition,
    `mu_ab_closed` called once per n.
    """
    if s.trivial:
        return 0
    return _genus(s.a, s.b)


def genus_oracle(s: QuadraticSemigroup) -> int:
    """Count the gaps class by class off the Apery set (Selmer's formula).

    The class of r mod a has (Ap[r] - r)/a gaps: its numbers below Ap[r].
    """
    if s.trivial:
        return 0
    ap = _apery(s.a, s.b)
    return int((ap - np.arange(s.a)).sum()) // s.a


def _a_terms(a: int) -> tuple[float, float, float, float]:
    """The terms of the four bounds in a alone, in Python floats."""
    return (
        a / 2.0 * (1.0 + math.sqrt(8.0 * a - 7.0)),
        a / 2.0 * (3.0 + math.sqrt(24.0 * a - 15.0)),
        ((8.0 * a - 7.0) ** 1.5 + 12.0 * a - 13.0) / 24.0,
        (math.sqrt(3.0) * (8.0 * a + 3.0) ** 1.5 + 36.0 * a - 36.0 - 11.0 * math.sqrt(33.0)) / 24.0,
    )


def _with_b(terms, a, b) -> tuple:
    """(F low, F high, g low, g high): `_a_terms` plus the terms in b.

    The same expression serves Python numbers and int64/float64 arrays.
    Both round each step the same way, because every integer here converts
    to a float exactly.
    """
    f_low, f_high, g_low, g_high = terms
    shift = (a - 1) * (b - 1) / 2.0
    return (f_low + a * b - a - b, f_high + a * b - a - b, g_low + shift, g_high + shift)


def frobenius_bounds(a: int, b: int) -> tuple[float, float]:
    """Closed sandwich for the Frobenius number of S(a,b).

    Certified for nontrivial pairs outside the eight exceptional ones;
    see bounds_certified.
    """
    if a < 2 or b < 1:
        raise ValueError("bounds need a >= 2 and b >= 1")
    return _with_b(_a_terms(a), a, b)[:2]


def genus_bounds(a: int, b: int) -> tuple[float, float]:
    """Closed sandwich for the genus of S(a,b); same certification caveat."""
    if a < 2 or b < 1:
        raise ValueError("bounds need a >= 2 and b >= 1")
    return _with_b(_a_terms(a), a, b)[2:]


def bounds_certified(a: int, b: int) -> bool:
    """Whether the two-sided bounds are guaranteed to hold for (a,b)."""
    if a < 2 or b < 1:
        return False
    return (a, b) not in EXCEPTIONAL_PAIRS


@dataclass(frozen=True)
class InvariantSummary:
    a: int
    b: int
    frobenius: int
    genus: int
    frobenius_low: float
    frobenius_high: float
    genus_low: float
    genus_high: float
    bounds_certified: bool


def invariant_summary(s: QuadraticSemigroup) -> InvariantSummary:
    """Everything at once for one nontrivial semigroup."""
    require_nontrivial(s)
    a, b = s.a, s.b
    bounds = _with_b(_a_terms(a), a, b)
    return InvariantSummary(a, b, _frobenius(a, b), _genus(a, b), *bounds, bounds_certified(a, b))


# Most entries in one block of lifted values: 2**16 int64 values are
# 512 KiB.  It is `_frobenius`'s block of n, and an eighth of it caps a
# block of the sweep's grid, whose eight columns, once Python lists, then
# hold at most 2**16 entries; the CLI prints each block as one string, in
# every format.  Without a cap, a grid that the size check allows would
# allocate a * b_max entries at once (800 MB at a = 2, b_max = 5*10**7)
# before its first row, and F at a = 10**8 - 1 would widen the whole lift
# array (several GB); with it, both stream.
_SWEEP_BLOCK = 1 << 16


def _scan(a_max: int, b_max: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(a, b, F, g) of every coprime pair 2 <= a <= a_max, 1 <= b <= b_max.

    Rows come a ascending, then b ascending, in int64 arrays of at most
    `_SWEEP_BLOCK // 8` pairs.  F and g for every a come from scans of
    the mu table, not from one lift array per a.

    Let M(a) = max mu(0..a-1), and let last_m(a) be the largest n < a with
    mu(n) = m.  F(a, b) + a is the largest lift mu(n)*a + n*b over n < a,
    and within one level m = mu(n) the last n wins.  So, away from the
    exceptional pairs,

        F(a, b) = max over d < min(b, M(a)+1) of
                  (M(a)-d)*a + last_{M(a)-d}(a)*b - a,

    skipping every level M-d that no n < a takes (mu never takes the
    value 1, for one).  A level M-d with d >= b cannot win: its term is at
    most (M-b)*a + (a-1)*b < M*a, and the d = 0 term is at least M*a.  So
    the scan may take every d below min(b_max, M+1) for every b: it also
    reads a missing level as last = -1, whose term (M-d)*a - b is below
    M*a as well.  The genus is g(a, b) = sum mu(0..a-1) + (a-1)(b-1)/2,
    as in `_genus`, read off one running sum.

    The eight exceptional pairs, all at b = 1, keep their drop: their F
    and g come from the single-pair `_frobenius` and `_genus`.  The drop moves F
    at a = 29, 47 and 79.

    a runs in blocks that the table's growth also bounds (`_grow`), so the
    first rows come at once.  M, the last n of every level and the running
    sum carry from block to block.  Within a block, last_m(a) is one
    binary search per d into the block's mu values sorted by (mu, n); the
    carried last n answers the levels that the block has not reached by
    a.  Everything fits in int64 under `_sweep_columns`' size check:
    M*a <= 2*a**2 since mu(n) <= 2n, and (a-1)*b <= 10**8.
    """
    if a_max < 2 or b_max < 1:
        return
    cap = max(1, _SWEEP_BLOCK // 8)
    width = max(1, cap // b_max)
    last = np.full(min(1 << 16, 2 * a_max), -1, dtype=np.int64)  # one slot per level
    top = total = 0
    a0 = 2
    while a0 <= a_max:
        values = _grow(a0 - 1, a_max - 1).values
        a1 = min(a0 + width, a_max + 1, len(values) + 1)
        lo, size = a0 - 1, a1 - a0  # block of n = a - 1
        mus = values[lo : a1 - 1].astype(np.int64)
        tops = np.maximum(np.maximum.accumulate(mus), top)
        sums = np.cumsum(mus) + total
        at = np.arange(size)
        keys = np.sort(mus * size + at)  # (mu(n), n - lo), ordered
        # One column per d: the level M - d, and its last n below a.
        level = tops[:, None] - np.arange(min(b_max, int(tops[-1]) + 1))
        pos = np.searchsorted(keys, level * size + at[:, None], side="right") - 1
        key = keys[pos]
        here = (pos >= 0) & (key // size == level)
        carried = np.where(level >= 0, last[np.maximum(level, 0)], -1)
        lasts = np.where(here, key % size + lo, carried)
        ends = np.flatnonzero(np.diff(keys // size, append=-1))
        last[keys[ends] // size] = keys[ends] % size + lo
        top, total = int(tops[-1]), int(sums[-1])

        a = np.arange(a0, a1)[:, None]
        heads = level * a
        step = max(1, cap // size)
        for b0 in range(1, b_max + 1, step):
            b = np.arange(b0, min(b0 + step, b_max + 1))
            f = heads[:, :1] + lasts[:, :1] * b
            for d in range(1, heads.shape[1]):
                np.maximum(f, heads[:, d : d + 1] + lasts[:, d : d + 1] * b, out=f)
            f -= a
            g = sums[:, None] + (a - 1) * (b - 1) // 2
            for ea, eb in EXCEPTIONAL_PAIRS:
                if a0 <= ea < a1 and b0 <= eb <= b[-1]:
                    f[ea - a0, eb - b0] = _frobenius(ea, eb)
                    g[ea - a0, eb - b0] = _genus(ea, eb)
            keep = np.gcd(a, b) == 1
            if keep.any():
                grid = np.broadcast_arrays(a, b)
                yield grid[0][keep], grid[1][keep], f[keep], g[keep]
        a0 = a1


def _sweep_columns(a_max: int, b_max: int) -> Iterator[list[list]]:
    """The sweep's rows as columns a, b, F, g, F low, F high, g low, g high.

    One list of Python lists per block of `_scan`.  The bounds take the
    terms in a alone once per a and add the terms in b over the whole
    block through `_with_b`, so every float equals the single-pair one.  An oversized grid is refused at the call, before any
    row; this also keeps a_max - 1 within what the mu table holds.
    """
    if (a_max - 1) * max(b_max, 1) > TABLE_LIMIT:
        raise ValueError(f"sweep needs (a_max - 1) * b_max <= {TABLE_LIMIT}")

    def blocks() -> Iterator[list[list]]:
        for a, b, f, g in _scan(a_max, b_max):
            first = int(a[0])
            terms = np.array([_a_terms(x) for x in range(first, int(a[-1]) + 1)])
            bounds = _with_b(terms[a - first].T, a, b)
            yield [column.tolist() for column in (a, b, f, g, *bounds)]

    return blocks()

