"""Numerical semigroups generated by a quadratic sequence.

S(a,b) is generated by y_n = n*a + C(n,2)*b for n >= 0.  It is a
numerical semigroup (cofinite in the nonnegative integers) exactly when
gcd(a,b) = 1, and collapses to all of them when a <= 1 or b = 0.

The pairs (m,n) with mu(n) <= m form a monoid under addition (pad with
copies of (1,0)); sending (m,n) to m*a + n*b maps it onto S(a,b).  The
least m with m*a + n*b in S, written mu_{a,b}(n) here, equals mu(n) for
0 <= n < a except at eight known (a,b,n) triples where it is mu(n) - 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mu import mu, triangular

__all__ = [
    "EXCEPTIONAL_CASES",
    "EXCEPTIONAL_PAIRS",
    "ExceptionalCase",
    "NotANumericalSemigroup",
    "QuadraticSemigroup",
    "contains",
    "describe",
    "generator",
    "make_semigroup",
    "mu_ab_closed",
    "mu_ab_oracle",
    "require_nontrivial",
]


class NotANumericalSemigroup(ValueError):
    """The generators have a common divisor, so their span is not cofinite."""


@dataclass(frozen=True)
class QuadraticSemigroup:
    """The semigroup generated by y_n = n*a + C(n,2)*b, n >= 0.

    `trivial` marks the collapse to all nonnegative integers (a <= 1 or
    b = 0); the conventions there are Frobenius number -1, genus 0,
    embedding dimension 1.
    """

    a: int
    b: int
    trivial: bool


@dataclass(frozen=True)
class ExceptionalCase:
    """A residue where the least lift sits one step below mu.

    For these pairs (all with b = 1) the least m with m*a + n in S(a,1)
    is mu(n) - 1, certified by (mu(n)-1)*a + n landing exactly on the
    generator with index `witness_index`.
    """

    a: int
    n: int
    mu_n: int
    witness_index: int

    @property
    def b(self) -> int:
        return 1


EXCEPTIONAL_CASES: tuple[ExceptionalCase, ...] = (
    ExceptionalCase(29, 26, 13, 11),
    ExceptionalCase(45, 33, 15, 13),
    ExceptionalCase(47, 44, 16, 14),
    ExceptionalCase(50, 41, 16, 14),
    ExceptionalCase(55, 50, 17, 15),
    ExceptionalCase(67, 53, 18, 16),
    ExceptionalCase(73, 63, 19, 17),
    ExceptionalCase(79, 74, 20, 18),
)

# The one lookup of the table above, by pair.
_EXCEPTIONAL: dict[tuple[int, int], ExceptionalCase] = {(c.a, c.b): c for c in EXCEPTIONAL_CASES}

EXCEPTIONAL_PAIRS: frozenset[tuple[int, int]] = frozenset(_EXCEPTIONAL)

# Most Python ints a closed form returns in one tuple: 10**7 of them take
# about 360 MB, and the list they are built from as much again.
_TUPLE_LIMIT = 10**7


def make_semigroup(a: int, b: int) -> QuadraticSemigroup:
    """Validate (a,b) and build the semigroup handle."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    if a == 0 and b == 0:
        raise ValueError("(a, b) = (0, 0) generates only 0")
    if math.gcd(a, b) != 1:
        raise NotANumericalSemigroup(
            f"gcd(a,b) must be 1, got gcd({a},{b}) = {math.gcd(a, b)}"
        )
    return QuadraticSemigroup(a=a, b=b, trivial=(a <= 1 or b == 0))


def require_nontrivial(s: QuadraticSemigroup) -> None:
    if s.trivial:
        raise ValueError(f"S({s.a},{s.b}) is trivial; operation needs a >= 2 and b >= 1")


def generator(s: QuadraticSemigroup, n: int) -> int:
    """y_n = n*a + C(n,2)*b."""
    if n < 0:
        raise ValueError("generator index must be nonnegative")
    return n * s.a + triangular(n) * s.b


_DESCRIBED_GENERATORS = 8


def describe(s: QuadraticSemigroup) -> dict:
    """JSON-ready summary: a, b, trivial, the first eight generators."""
    return {
        "a": s.a,
        "b": s.b,
        "trivial": s.trivial,
        "generators": [generator(s, n) for n in range(_DESCRIBED_GENERATORS)],
    }


@functools.lru_cache(maxsize=64)
def _apery(a: int, b: int) -> np.ndarray:
    """Read-only Apery set of nontrivial S(a,b) w.r.t. a, by round robin.

    Starts from the span of y_1 = a (only class 0 reached) and folds in
    y_2, y_3, ... (Boecker & Liptak, Algorithmica 48, 2007).  Adding y
    moves along the cycles k -> k + y mod a, one per class mod
    gcd(y, a), each of length L = a / gcd(y, a); entry j becomes
    min over t in 0..L-1 of Ap[j - t*y] + t*y (t = L returns to j at a
    higher cost).  One running minimum of Ap - walk over the cycle written
    twice, plus the walk, gives this at positions L..2L-1: position j + L
    sees every predecessor at forward distance 0..L-1, and the farther
    copies only repeat one of them at L*y more.  A y with y >= Ap[y mod a]
    is skipped: y = Ap[y mod a] + k*a already lies in the span folded so
    far, so it lowers nothing.  Generators grow with n, so once one
    exceeds every entry no later one can lower any: the stop is exact.
    Uses only the generators; never mu or a closed form.
    """
    # After y_2 (coprime to a) every entry is at most (a-1)*y_2, and only
    # y <= max(Ap) are folded, so a walk of length 2L <= 2a reaches at most
    # (2L-1)*y < 2*a*a*y_2, which the guard keeps below 2**63: no int64
    # wraps.  Every folded value is at most the entry it replaces, so none
    # passes the `unreached` marker 2**62 - 1.
    if a * a * (2 * a + b) >= 1 << 62:
        raise ValueError(f"S({a},{b}) is too large for the Apery-set oracle")
    unreached = (1 << 62) - 1
    ap = np.full(a, unreached, dtype=np.int64)
    ap[0] = 0
    n, y, top = 2, 2 * a + b, unreached
    while y <= top:
        if y < ap[y % a]:
            d = math.gcd(y, a)
            length = a // d
            cycles = (np.arange(d)[:, None] + np.arange(length) * (y % a)) % a
            walk = np.arange(2 * length, dtype=np.int64) * y
            entries = ap[cycles]
            twice = np.concatenate((entries, entries), axis=1)
            folded = (np.minimum.accumulate(twice - walk, axis=1) + walk)[:, length:]
            ap[cycles] = folded
            top = folded.max()
        y += a + n * b
        n += 1
    ap.flags.writeable = False
    return ap


def contains(s: QuadraticSemigroup, x: int) -> bool:
    """Exact membership of x in S(a,b), for any integer x."""
    if x < 0:
        return False
    if s.trivial:
        return True
    return x >= int(_apery(s.a, s.b)[x % s.a])


def mu_ab_oracle(s: QuadraticSemigroup, n: int) -> int:
    """Least m with m*a + n*b in S, read off the Apery set.

    The least member of S in the class of n*b mod a is the Apery element
    there; m is its distance from n*b in steps of a.
    """
    require_nontrivial(s)
    a, b = s.a, s.b
    if not 0 <= n < a:
        raise ValueError("oracle domain is 0 <= n < a")
    least = int(_apery(a, b)[(n * b) % a])
    return (least - n * b) // a


def mu_ab_closed(s: QuadraticSemigroup, n: int) -> int:
    """mu_{a,b}(n) on the base window 0 <= n < a without any membership scan.

    Equals mu(n) except at the eight tabulated triples, where the value
    drops by one.  Past the window, mu_{a,b}(n + a) = mu_{a,b}(n) - b:
    multiply a witness by the relation between neighbouring generators.
    """
    require_nontrivial(s)
    if not 0 <= n < s.a:
        raise ValueError("closed form domain is 0 <= n < a")
    case = _EXCEPTIONAL.get((s.a, s.b))
    return mu(n) - (case is not None and case.n == n)
