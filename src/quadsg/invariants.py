"""The semigroups S(a,b) and their invariants, each closed form beside its oracle.

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
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .mu import _BLOCK, _GREEDY, TABLE_LIMIT, _check_limit, _mu_span, _mu_sum, largest_index, mu, triangular

__all__ = [
    "AperySet",
    "EXCEPTIONAL_CASES",
    "EXCEPTIONAL_PAIRS",
    "ExceptionalCase",
    "MinimalGeneratorSet",
    "NotANumericalSemigroup",
    "QuadraticSemigroup",
    "apery_closed",
    "apery_oracle",
    "bounds_certified",
    "contains",
    "embedding_dimension",
    "frobenius",
    "frobenius_bounds",
    "frobenius_oracle",
    "generator",
    "genus",
    "genus_bounds",
    "genus_oracle",
    "make_semigroup",
    "minimal_generators_closed",
    "minimal_generators_oracle",
    "mu_ab_closed",
    "mu_ab_oracle",
    "require_nontrivial",
    "verify_decomposition",
]


class NotANumericalSemigroup(ValueError):
    """The generators have a common divisor, so their span is not cofinite."""


class QuadraticSemigroup(NamedTuple):
    """The semigroup generated by y_n = n*a + C(n,2)*b, n >= 0.

    `trivial` marks the collapse to all nonnegative integers (a <= 1 or
    b = 0); the conventions there are Frobenius number -1, genus 0,
    embedding dimension 1.
    """

    a: int
    b: int
    trivial: bool


class ExceptionalCase(NamedTuple):
    """A residue where the least lift sits one step below mu.

    For these pairs (all with b = 1) the least m with m*a + n in S(a,1)
    is mu(n) - 1, certified by (mu(n)-1)*a + n landing exactly on the
    generator with index `witness_index`.
    """

    a: int
    n: int
    mu_n: int
    witness_index: int


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

# The one lookup of the table above, by pair; every case has b = 1.
_EXCEPTIONAL: dict[tuple[int, int], ExceptionalCase] = {(c.a, 1): c for c in EXCEPTIONAL_CASES}

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


# Largest a the Apery-set oracle serves.  The round robin folds about
# sqrt(2a) generators, each in a few doubling steps of O(a) (2,151 steps
# for 630 folds at a = 199,999), so its cost grows about as a**1.5: on
# one 2-vCPU box (medians of ten fresh processes) it took 0.031 s at
# a = 50,021 (0.030-0.031 s for b = 1, 7, 1,000 and 10**6 + 1), 0.097 s
# at 100,003 and 0.51 s at 199,999, all at b = 1.  The int64 guard alone
# admits a up to about 1.3*10**6, where it took 10 s (one run at
# a = 1,321,122, b = 1).
_APERY_LIMIT = 2 * 10**5


@functools.lru_cache(maxsize=64)
def _apery(a: int, b: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Read-only Apery set of nontrivial S(a,b) w.r.t. a, and the indices it folds.

    Starts from the span of y_1 = a and y_2 = 2a + b, which is coprime to
    a, so its Apery set is Ap[x] = y_2 * (x * y_2**-1 mod a) in closed
    form, and folds in y_3, y_4, ... (Boecker & Liptak, Algorithmica 48,
    2007).  Folding y, with r = y mod a, makes entry x the least of
    Ap[(x - k*r) mod a] + k*y over k >= 0; a term with k*y > max(Ap)
    lowers nothing, so k <= K = max(Ap) // y suffices.  The fold doubles:
    step s rotates Ap by 2**s * r into one reused buffer, adds 2**s * y
    and takes the elementwise minimum, so after step s entry x holds the
    least term over k < 2**(s+1); K.bit_length() steps cover every k <= K.
    A y with y >= Ap[y mod a] is skipped: y = Ap[y mod a] + k*a already
    lies in the span folded so far, so it lowers nothing.  Generators grow
    with n, so once one exceeds every entry no later one can lower any:
    the stop is exact.
    No int64 wraps: the start is at most (a-1)*y_2 < 2**62 by the guard,
    and a fold adds at most K*y <= max(Ap), so the buffer stays at most
    2*max(Ap).
    The indices are 1, 2 and every n whose y_n was folded, in order;
    `minimal_generators_oracle` returns them.  Uses only the generators:
    no mu and none of the package's closed forms.

    Raises ValueError, before allocating, past a = _APERY_LIMIT.
    """
    if a > _APERY_LIMIT:
        raise ValueError(f"Apery-set oracle is limited to a <= {_APERY_LIMIT}, S({a},{b}) has {a}")
    y2 = 2 * a + b
    if a * a * y2 >= 1 << 62:
        raise ValueError(f"S({a},{b}) is too large for the Apery-set oracle")
    ap = np.arange(a, dtype=np.int64) * pow(y2, -1, a) % a * y2
    rotated = np.empty_like(ap)
    indices = [1, 2]
    n, y, top = 3, 3 * (a + b), (a - 1) * y2
    while y <= top:
        r = y % a
        if y < ap[r]:
            indices.append(n)
            shift, step = r, y
            for _ in range((top // y).bit_length()):
                np.add(ap[: a - shift], step, out=rotated[shift:])
                np.add(ap[a - shift :], step, out=rotated[:shift])
                np.minimum(ap, rotated, out=ap)
                shift, step = 2 * shift % a, 2 * step
            top = int(ap.max())
        y += a + n * b
        n += 1
    ap.flags.writeable = False
    return ap, tuple(indices)


def contains(s: QuadraticSemigroup, x: int) -> bool:
    """Exact membership of x in S(a,b), for any integer x."""
    if x < 0:
        return False
    if s.trivial:
        return True
    return x >= int(_apery(s.a, s.b)[0][x % s.a])


def mu_ab_oracle(s: QuadraticSemigroup, n: int) -> int:
    """Least m with m*a + n*b in S, read off the Apery set.

    The least member of S in the class of n*b mod a is the Apery element
    there; m is its distance from n*b in steps of a.
    """
    require_nontrivial(s)
    a, b = s.a, s.b
    if not 0 <= n < a:
        raise ValueError("oracle domain is 0 <= n < a")
    least = int(_apery(a, b)[0][(n * b) % a])
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


class AperySet(NamedTuple):
    """Least member of S in each residue class mod a.

    elements[k] is congruent to k and is the smallest such member; its
    predecessor elements[k] - a is outside S (except for k = 0, where the
    element is 0 itself).
    """

    elements: tuple[int, ...]


def _lifted(a: int, b: int, count: int) -> np.ndarray:
    """mu_{a,b}(n)*a + n*b over n = 0..count-1, 1 <= count <= a, in one array.

    mu_{a,b}(n) is mu(n), less one at the exceptional n of (a, b), as in
    `mu_ab_closed`; every exceptional a is at most 79, where count = a.
    Exact for every b: int64 while max(mu)*a + (count-1)*b < 2**63,
    Python ints (an object array) past that.
    """
    lifts = _mu_span(0, count - 1)
    dtype = object if int(lifts.max()) * a + (count - 1) * b >= 1 << 63 else np.int64
    values = np.arange(count, dtype=dtype) * b
    values += np.multiply(lifts, a, dtype=dtype)
    case = _EXCEPTIONAL.get((a, b))
    if case is not None:
        values[case.n] -= a
    return values


def apery_closed(s: QuadraticSemigroup) -> AperySet:
    """Apery set with respect to a, assembled from the closed lift values.

    The element in the class of n*b mod a is mu_{a,b}(n)*a + n*b; as n
    runs over 0..a-1 the classes are hit exactly once since gcd(a,b) = 1.
    All a lifts come in one array from `_lifted`, and one scatter puts
    each element at its class (n*(b mod a)) mod a.  Tests check it
    against the scalar definition, `mu_ab_closed` called once per n.

    Raises ValueError, before reading mu, past a = _TUPLE_LIMIT = 10**7:
    its arrays, list and tuple take about 1.2 GB there.  `frobenius` and
    `genus` still serve every a up to TABLE_LIMIT + 1.  A trivial S gets
    `apery_oracle`'s answer.
    """
    if s.trivial:
        return apery_oracle(s)
    a = s.a
    if a > _TUPLE_LIMIT:
        raise ValueError(f"Apery set is limited to {_TUPLE_LIMIT} elements, S({a},{s.b}) has {a}")
    values = _lifted(a, s.b, a)
    elements = np.empty_like(values)
    elements[np.arange(a, dtype=np.int64) * (s.b % a) % a] = values
    return AperySet(tuple(elements.tolist()))


def apery_oracle(s: QuadraticSemigroup) -> AperySet:
    """Apery set by round robin over the generators alone."""
    if s.trivial:
        if s.a == 1:
            return AperySet((0,))
        raise ValueError("Apery set needs a positive modulus a")
    return AperySet(tuple(_apery(s.a, s.b)[0].tolist()))


def frobenius(s: QuadraticSemigroup) -> int:
    """Largest integer outside S; -1 when S is everything (trivial case).

    F + a is the largest lift L(n) = mu_{a,b}(n)*a + n*b over n < a (the
    largest Apery element), read off the lifts of the head (`_lifted`) and
    two level terms, so mu is read only to n = 87,152.  On a level i >= 418
    (see `_mu_span`), n = C(i,2) + r, r < i, has L(n) = i*a + C(i,2)*b +
    L(r): no exceptional pair (all have a <= 79) lies there.  With
    P(t) = max L(0..t-1), level i's largest lift is i*a + C(i,2)*b + P(i),
    which grows with i, so of the whole levels 418..k-1 below a,
    k = largest_index(a - 1), level k - 1 wins, and level k holds the
    t = a - C(k,2) lifts from C(k,2) to a - 1.  So F + a is the largest of
    max L(n) over n < min(a, 87,153); (k-1)*a + C(k-1,2)*b + P(k-1) when
    k - 1 >= 418; and k*a + C(k,2)*b + P(t) when k >= 418.  The level rule
    holds only to TABLE_LIMIT, so a - 1 past it is refused first.  Tests
    check F against all a lifts streamed off `_mu_span`, and the sweep's
    scans against F.
    """
    if s.trivial:
        return -1
    a, b = s.a, s.b
    _check_limit(a - 1)
    lifts = _lifted(a, b, min(a, triangular(_GREEDY)))
    top = int(lifts.max())
    k = largest_index(a - 1)
    for i, t in ((k - 1, k - 1), (k, a - triangular(k))):
        if i >= _GREEDY:
            top = max(top, i * a + triangular(i) * b + int(lifts[:t].max()))
    return top - a


def frobenius_oracle(s: QuadraticSemigroup) -> int:
    """Largest Apery element less a, off the round-robin Apery set."""
    if s.trivial:
        return -1
    return int(_apery(s.a, s.b)[0].max()) - s.a


def genus(s: QuadraticSemigroup) -> int:
    """Number of gaps, via the integer lift-sum formula.

    g = sum of mu_{a,b}(n) over 0 <= n < a, plus (a-1)(b-1)/2: one sum of
    mu(0..a-1) from level sums (`_mu_sum`), less one for an exceptional
    (a, b) and its lowered lift.  The division is exact: a and b cannot
    both be even (they are coprime), so a-1 or b-1 is even.  Tests check
    it against the scalar definition, `mu_ab_closed` called once per n,
    and the sweep's scans against it.
    """
    if s.trivial:
        return 0
    a, b = s.a, s.b
    return _mu_sum(a) - ((a, b) in _EXCEPTIONAL) + (a - 1) * (b - 1) // 2


def genus_oracle(s: QuadraticSemigroup) -> int:
    """Count the gaps class by class off the Apery set (Selmer's formula).

    The class of r mod a has (Ap[r] - r)/a gaps: its numbers below Ap[r].
    """
    if s.trivial:
        return 0
    ap = _apery(s.a, s.b)[0]
    return int((ap - np.arange(s.a)).sum()) // s.a


class MinimalGeneratorSet(NamedTuple):
    """Indices n whose generator y_n no other generators can produce."""

    indices: tuple[int, ...]


def minimal_generators_closed(s: QuadraticSemigroup) -> MinimalGeneratorSet:
    """Minimal indices of S, decided without any search.

    For nontrivial S, y_n is minimal when C(n,2) < a; it is never minimal
    when n > a or a divides C(n,2) (so not at C(n,2) = a either); in the
    remaining band, C(n,2) > a with n <= a and a not dividing C(n,2), it
    is minimal only at the single extra index of an exceptional pair.  So
    the indices are 1..largest_index(a - 1) followed by that extra index.
    A trivial S has the lone generator y_1, or y_2 when a = 0.

    Raises ValueError, before allocating, past _TUPLE_LIMIT = 10**7
    indices (a past about 5*10**13): a tuple of that many Python ints
    takes about 360 MB, and the generators y_n that `embedding --format
    json` prints for them as much again.
    `embedding_dimension` still counts them.
    """
    if s.trivial:
        return MinimalGeneratorSet((1,) if s.a == 1 else (2,))
    count = largest_index(s.a - 1)
    if count > _TUPLE_LIMIT:
        raise ValueError(f"index list is limited to {_TUPLE_LIMIT} indices, S({s.a},{s.b}) has {count}")
    indices = tuple(range(1, count + 1))
    case = _EXCEPTIONAL.get((s.a, s.b))
    if case is not None:
        indices += (case.witness_index,)
    return MinimalGeneratorSet(indices)


def minimal_generators_oracle(s: QuadraticSemigroup) -> MinimalGeneratorSet:
    """Minimal indices of S read off the round robin, using no closed forms.

    They are the indices `_apery` records as it folds:

    1. The generators strictly increase, so a sum of other generators
       equal to y_n uses only y_1..y_{n-1}.
    2. So y_n is minimal exactly when y_1..y_{n-1} do not span it, that
       is, when y_n < Ap[y_n mod a] over them.  When y_n comes up, the
       fold holds that Ap (a skipped generator lies in the span already),
       so it folds y_n exactly when y_n is minimal.  y_1 = a always is,
       and so is y_2, coprime to a: the span of a holds only multiples
       of a.  Both form the start.
    3. The fold stops once y_n > max Ap, and every later generator, larger
       still, lies in the span from then on.

    One fold serves this oracle and the Apery-set one, so both stop at
    `_APERY_LIMIT`.
    """
    if s.trivial:
        # The lone minimal generator 1 is y_1, or y_2 when a = 0.
        return MinimalGeneratorSet((1,) if s.a == 1 else (2,))
    return MinimalGeneratorSet(_apery(s.a, s.b)[1])


def embedding_dimension(a: int, b: int) -> int:
    """Size of the minimal generating set of S(a,b), in integer arithmetic.

    Counts the indices n >= 1 with C(n,2) < a, plus one for the extra
    index of an exceptional pair.  Never evaluates the real inverse of
    the triangular map.
    """
    s = make_semigroup(a, b)
    if s.trivial:
        return 1
    return largest_index(a - 1) + ((a, b) in _EXCEPTIONAL)


def verify_decomposition(
    s: QuadraticSemigroup, n: int, coefficients: dict[int, int]
) -> bool:
    """Exact check that y_n equals the stated combination of earlier generators."""
    total = 0
    for idx, c in coefficients.items():
        if not 1 <= idx < n:
            raise ValueError("decomposition indices must satisfy 1 <= i < n")
        if c < 0:
            raise ValueError("multiplicities must be nonnegative")
        total += c * generator(s, idx)
    return total == generator(s, n)


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
    return (a, b) not in _EXCEPTIONAL


def _scan(a_max: int, b_max: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(a, b, F, g) of every coprime pair 2 <= a <= a_max, 1 <= b <= b_max.

    Takes a_max >= 2 and b_max >= 1, as `_sweep_columns` checks.  Rows
    come a ascending, then b ascending, in int64 arrays of at most
    `_BLOCK // 8` pairs.  F and g for every a come from scans of mu, not
    from one lift array per a, nor from `frobenius`'s level terms, so the
    tests compare the two.

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
    as in `genus`, read off one running sum.

    The eight exceptional pairs, all at b = 1, keep their drop: their F
    and g come from the single-pair `frobenius` and `genus`.  The drop
    moves F at a = 29, 47 and 79.

    a runs in blocks of at most `width` values, each reading its own span
    of mu.  M, the last n of every level and the running sum carry from
    block to block.  Within a block, last_m(a)
    is one binary search per d into the block's mu values sorted by (mu,
    n); the carried last n answers the levels that the block has not
    reached by a.  Everything fits in int64 under `_sweep_columns`' size
    check: M*a <= 2*a**2 since mu(n) <= 2n, and (a-1)*b <= 10**8.
    """
    cap = _BLOCK // 8
    width = max(1, cap // b_max)
    last = np.full(min(1 << 16, 2 * a_max), -1, dtype=np.int64)  # one slot per level
    top = total = 0
    a0 = 2
    while a0 <= a_max:
        a1 = min(a0 + width, a_max + 1)
        lo, size = a0 - 1, a1 - a0  # block of n = a - 1
        mus = _mu_span(lo, a1 - 2).astype(np.int64)
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
            for ea, eb in _EXCEPTIONAL:
                if a0 <= ea < a1 and b0 <= eb <= b[-1]:
                    s = make_semigroup(ea, eb)
                    f[ea - a0, eb - b0] = frobenius(s)
                    g[ea - a0, eb - b0] = genus(s)
            keep = np.gcd(a, b) == 1
            if keep.any():
                grid = np.broadcast_arrays(a, b)
                yield grid[0][keep], grid[1][keep], f[keep], g[keep]
        a0 = a1


def _sweep_columns(a_max: int, b_max: int) -> Iterator[list[list]]:
    """The sweep's rows as columns a, b, F, g, F low, F high, g low, g high.

    One list of Python lists per block of `_scan`.  The bounds take the
    terms in a alone once per a and add the terms in b over the whole
    block through `_with_b`, so every float equals the single-pair one.
    An empty or oversized grid is refused at the call, before any row;
    this also keeps a_max - 1 within TABLE_LIMIT.
    """
    if a_max < 2 or b_max < 1:
        raise ValueError("sweep needs a_max >= 2 and b_max >= 1")
    if (a_max - 1) * b_max > TABLE_LIMIT:
        raise ValueError(f"sweep needs (a_max - 1) * b_max <= {TABLE_LIMIT}")

    def blocks() -> Iterator[list[list]]:
        for a, b, f, g in _scan(a_max, b_max):
            first = int(a[0])
            terms = np.array([_a_terms(x) for x in range(first, int(a[-1]) + 1)])
            bounds = _with_b(terms[a - first].T, a, b)
            yield [column.tolist() for column in (a, b, f, g, *bounds)]

    return blocks()
