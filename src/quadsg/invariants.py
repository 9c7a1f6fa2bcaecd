"""Apery sets, Frobenius number, genus, and their analytic bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mu import shared_table
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


def _lifts(s: QuadraticSemigroup) -> np.ndarray:
    """mu_{a,b}(n) for n = 0..a-1 as one int64 array.

    mu(0..a-1) from the table, less one at the exceptional n of (a, b):
    the values `mu_ab_closed` gives one n at a time.
    """
    a = s.a
    # Fill, or refuse past TABLE_LIMIT, before allocating a entries.
    lifts = shared_table().ensure(a - 1).values[:a].copy()
    for c in EXCEPTIONAL_CASES:
        if (c.a, c.b) == (a, s.b):
            lifts[c.n] -= 1
    return lifts


def _lifted(s: QuadraticSemigroup, lifts: np.ndarray) -> np.ndarray:
    """lifts[n]*a + n*b for n = 0..a-1, exact for every b.

    int64 while the largest value, at most max(lifts)*a + (a-1)*b, stays
    below 2**63; Python ints (an object array) past that.
    """
    a, b = s.a, s.b
    n = np.arange(a, dtype=np.int64)
    if int(lifts.max()) * a + (a - 1) * b >= 1 << 63:
        lifts, n = lifts.astype(object), n.astype(object)
    return lifts * a + n * b


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
    values = _lifted(s, _lifts(s))
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


def _frobenius(s: QuadraticSemigroup, lifts: np.ndarray) -> int:
    return int(_lifted(s, lifts).max()) - s.a


def _genus(s: QuadraticSemigroup, lifts: np.ndarray) -> int:
    # Each lift mu_{a,b}(n) is at most 2n, so the sum stays below 2*a**2 < 2**63.
    return int(lifts.sum()) + (s.a - 1) * (s.b - 1) // 2


def frobenius(s: QuadraticSemigroup) -> int:
    """Largest integer outside S; -1 when S is everything (trivial case).

    The largest Apery element less a, taken as the max of the lifted
    array mu_{a,b}(n)*a + n*b without scattering it.  Tests check it
    against the scalar definition, `mu_ab_closed` called once per n.
    """
    if s.trivial:
        return -1
    return _frobenius(s, _lifts(s))


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
    return _genus(s, _lifts(s))


def genus_oracle(s: QuadraticSemigroup) -> int:
    """Count the gaps class by class off the Apery set (Selmer's formula).

    The class of r mod a has (Ap[r] - r)/a gaps: its numbers below Ap[r].
    """
    if s.trivial:
        return 0
    ap = _apery(s.a, s.b)
    return int((ap - np.arange(s.a)).sum()) // s.a


def frobenius_bounds(a: int, b: int) -> tuple[float, float]:
    """Closed sandwich for the Frobenius number of S(a,b).

    Certified for nontrivial pairs outside the eight exceptional ones;
    see bounds_certified.
    """
    if a < 2 or b < 1:
        raise ValueError("bounds need a >= 2 and b >= 1")
    low = a / 2.0 * (1.0 + math.sqrt(8.0 * a - 7.0)) + a * b - a - b
    high = a / 2.0 * (3.0 + math.sqrt(24.0 * a - 15.0)) + a * b - a - b
    return (low, high)


def genus_bounds(a: int, b: int) -> tuple[float, float]:
    """Closed sandwich for the genus of S(a,b); same certification caveat."""
    if a < 2 or b < 1:
        raise ValueError("bounds need a >= 2 and b >= 1")
    shift = (a - 1) * (b - 1) / 2.0
    low = ((8.0 * a - 7.0) ** 1.5 + 12.0 * a - 13.0) / 24.0 + shift
    high = (
        math.sqrt(3.0) * (8.0 * a + 3.0) ** 1.5 + 36.0 * a - 36.0 - 11.0 * math.sqrt(33.0)
    ) / 24.0 + shift
    return (low, high)


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
    """Everything at once for one nontrivial semigroup; F and g share one lift array."""
    require_nontrivial(s)
    lifts = _lifts(s)
    f_low, f_high = frobenius_bounds(s.a, s.b)
    g_low, g_high = genus_bounds(s.a, s.b)
    return InvariantSummary(
        a=s.a,
        b=s.b,
        frobenius=_frobenius(s, lifts),
        genus=_genus(s, lifts),
        frobenius_low=f_low,
        frobenius_high=f_high,
        genus_low=g_low,
        genus_high=g_high,
        bounds_certified=bounds_certified(s.a, s.b),
    )
