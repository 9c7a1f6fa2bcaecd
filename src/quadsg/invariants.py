"""Apery sets, Frobenius number, genus, and their analytic bounds."""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .mu import TABLE_LIMIT, _grow, shared_table
from .semigroup import (
    EXCEPTIONAL_CASES,
    EXCEPTIONAL_PAIRS,
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

    The table fills, or refuses past TABLE_LIMIT, before anything of size a
    is allocated.
    """
    return shared_table().ensure(a - 1).values[:a]


def _drops(a: int) -> dict[int, int]:
    """{b: n} over the exceptional pairs (a, b), where mu_{a,b}(n) = mu(n) - 1."""
    return {c.b: c.n for c in EXCEPTIONAL_CASES if c.a == a}


def _lifted(a: int, bs: list[int], width: int) -> Iterator[np.ndarray]:
    """mu_{a,b}(n)*a + n*b in column blocks of n = 0..a-1, one row per b in bs.

    Each block holds `width` columns (the last one fewer) and widens only
    its own slice of the uint16 table.  mu_{a,b}(n) is mu(n) from the
    table, less one at the exceptional n of (a, b): the values
    `mu_ab_closed` gives one n at a time.  Exact for every b: int64 while
    the largest value, at most max(mu)*a + (a-1)*max(bs), stays below
    2**63; Python ints (object arrays) past that.
    """
    lifts = _lifts(a)
    big = int(lifts.max()) * a + (a - 1) * max(bs) >= 1 << 63
    dtype = object if big else np.int64
    cols = np.array(bs, dtype=dtype)
    drops = [(bs.index(b), m) for b, m in _drops(a).items() if b in bs]
    for lo in range(0, a, width):
        hi = min(lo + width, a)
        # Rows along the contiguous axis: the row maxima then cost about
        # half of what column maxima of the transpose do at a <= 400.
        values = np.multiply.outer(cols, np.arange(lo, hi, dtype=dtype))
        values += np.multiply(lifts[lo:hi], a, dtype=dtype)
        for row, m in drops:
            if lo <= m < hi:
                values[row, m - lo] -= a
        yield values


def apery_closed(s: QuadraticSemigroup) -> AperySet:
    """Apery set with respect to a, assembled from the closed lift values.

    The element in the class of n*b mod a is mu_{a,b}(n)*a + n*b; as n
    runs over 0..a-1 the classes are hit exactly once since gcd(a,b) = 1.
    All a lifts come from the mu table in one array, and one scatter puts
    each element at its class (n*(b mod a)) mod a.  Tests check it against
    the scalar definition, `mu_ab_closed` called once per n.
    """
    require_nontrivial(s)
    a = s.a
    values = next(_lifted(a, [s.b], a))[0]
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


def _frobenius(a: int, bs: list[int]) -> list[int]:
    """F of S(a, b) for each b in bs: the row maxima of `_lifted`, less a.

    The maxima run over blocks of at most `_SWEEP_BLOCK` entries, so the
    temporaries stay small however large a is; at a <= 400 each call of
    the sweep is one block.
    """
    blocks = _lifted(a, bs, max(1, _SWEEP_BLOCK // len(bs)))
    return (functools.reduce(np.maximum, (block.max(axis=1) for block in blocks)) - a).tolist()


def _genus(a: int, bs: list[int]) -> list[int]:
    """g of S(a, b) for each b in bs, from one sum of mu(0..a-1).

    Each b adds (a-1)(b-1)/2, and an exceptional b takes one off for its
    lowered lift.  The sum accumulates in int64 straight off the uint16
    table; every mu(n) is at most 2n, so it stays below 2*a**2 < 2**63.
    """
    total = int(_lifts(a).sum(dtype=np.int64))
    drops = _drops(a)
    return [total - (b in drops) + (a - 1) * (b - 1) // 2 for b in bs]


def frobenius(s: QuadraticSemigroup) -> int:
    """Largest integer outside S; -1 when S is everything (trivial case).

    The largest Apery element less a, taken as the max of the lifted
    array mu_{a,b}(n)*a + n*b without scattering it.  Tests check it
    against the scalar definition, `mu_ab_closed` called once per n.
    """
    if s.trivial:
        return -1
    return _frobenius(s.a, [s.b])[0]


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
    return _genus(s.a, [s.b])[0]


def genus_oracle(s: QuadraticSemigroup) -> int:
    """Count the gaps class by class off the Apery set (Selmer's formula).

    The class of r mod a has (Ap[r] - r)/a gaps: its numbers below Ap[r].
    """
    if s.trivial:
        return 0
    ap = _apery(s.a, s.b)
    return int((ap - np.arange(s.a)).sum()) // s.a


def _bounds(a: int, bs: list[int]) -> Iterator[tuple[float, float, float, float]]:
    """(F low, F high, g low, g high) of S(a, b) for each b in bs, a >= 2.

    The terms in a alone are taken once; each b then adds its own terms in
    the order the single-pair expressions always used, so every float is
    the same as theirs.
    """
    f_low = a / 2.0 * (1.0 + math.sqrt(8.0 * a - 7.0))
    f_high = a / 2.0 * (3.0 + math.sqrt(24.0 * a - 15.0))
    g_low = ((8.0 * a - 7.0) ** 1.5 + 12.0 * a - 13.0) / 24.0
    g_high = (
        math.sqrt(3.0) * (8.0 * a + 3.0) ** 1.5 + 36.0 * a - 36.0 - 11.0 * math.sqrt(33.0)
    ) / 24.0
    for b in bs:
        shift = (a - 1) * (b - 1) / 2.0
        yield (f_low + a * b - a - b, f_high + a * b - a - b, g_low + shift, g_high + shift)


def frobenius_bounds(a: int, b: int) -> tuple[float, float]:
    """Closed sandwich for the Frobenius number of S(a,b).

    Certified for nontrivial pairs outside the eight exceptional ones;
    see bounds_certified.
    """
    if a < 2 or b < 1:
        raise ValueError("bounds need a >= 2 and b >= 1")
    return next(_bounds(a, [b]))[:2]


def genus_bounds(a: int, b: int) -> tuple[float, float]:
    """Closed sandwich for the genus of S(a,b); same certification caveat."""
    if a < 2 or b < 1:
        raise ValueError("bounds need a >= 2 and b >= 1")
    return next(_bounds(a, [b]))[2:]


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


def _summaries(a: int, bs: list[int]) -> Iterator[InvariantSummary]:
    """Summaries of S(a, b) for each b in bs, all coprime to a >= 2.

    F for every b comes from one lift array, g from one sum, and the
    bounds from one pass of `_bounds`.
    """
    for b, f, g, bounds in zip(bs, _frobenius(a, bs), _genus(a, bs), _bounds(a, bs)):
        yield InvariantSummary(a, b, f, g, *bounds, bounds_certified(a, b))


def invariant_summary(s: QuadraticSemigroup) -> InvariantSummary:
    """Everything at once for one nontrivial semigroup: the sweep's one-b case."""
    require_nontrivial(s)
    return next(_summaries(s.a, [s.b]))


# Most entries in one block of lifted values: 2**16 int64 values are
# 512 KiB.  It caps `_sweep`'s block of b values per a and `_frobenius`'s
# block of n.  Without a cap, a grid that the size check allows would
# allocate a * b_max entries at once (800 MB at a = 2, b_max = 5*10**7)
# before its first row, and F at a = 10**8 - 1 would widen the whole lift
# array (several GB); with it, both stream.  At a <= 400 and b_max <= 10
# each a is still one block.
_SWEEP_BLOCK = 1 << 16


def _sweep(a_max: int, b_max: int) -> Iterator[InvariantSummary]:
    """Summaries of every coprime pair with 2 <= a <= a_max and 1 <= b <= b_max.

    Rows come a ascending, then b ascending, as they are made: per a, one
    lift array serves a block of b values (`_SWEEP_BLOCK`).  The table
    grows with a, in doubling steps that end at a_max - 1.  An oversized
    grid is refused at the call, before any row; this also keeps
    a_max - 1 within what the mu table holds.
    """
    if (a_max - 1) * max(b_max, 1) > TABLE_LIMIT:
        raise ValueError(f"sweep needs (a_max - 1) * b_max <= {TABLE_LIMIT}")

    def rows() -> Iterator[InvariantSummary]:
        for a in range(2, a_max + 1):
            width = max(1, _SWEEP_BLOCK // a)
            for lo in range(1, b_max + 1, width):
                bs = [b for b in range(lo, min(lo + width, b_max + 1)) if math.gcd(a, b) == 1]
                if bs:
                    _grow(a - 1, a_max - 1)
                    yield from _summaries(a, bs)

    return rows()
