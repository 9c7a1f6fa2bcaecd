"""Exhaustive searches, certificates, and the bound-gap function analysis.

Two finite searches locate every place the closed forms need a special
case.  The drop search finds all (a, n) where one shift lowers mu by at
least 2, which is exactly where the least lift can undercut mu(n); the
residue search finds all (a, n) where an extra generator could enter the
minimal set.  Both come with certificate replay: exact arithmetic
witnesses for each hit, verifiable without trusting either search.
Each search lists only the (a, n) pairs that the floor mu(m) >= f(m) of
`MuTable` leaves and tests them against the mu table in vectorised
blocks; only the hits are examined one by one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .invariants import (
    _BLOCK,
    EXCEPTIONAL_CASES,
    contains,
    generator,
    make_semigroup,
    minimal_generators_oracle,
    mu_ab_oracle,
    verify_decomposition,
)
from .mu import inverse_triangular, largest_index, mu, shared_table

__all__ = [
    "EMBED_DECOMPOSITIONS",
    "EXPECTED_DROP_PAIRS",
    "EXPECTED_RESIDUE_PAIRS",
    "EXTRA_INDEX_ROWS",
    "Certificate",
    "DropHit",
    "GAnalysis",
    "ResidueHit",
    "SearchReport",
    "decomposition_certificates",
    "exception_certificates",
    "g_analysis",
    "g_local_max",
    "g_of",
    "g_solve",
    "search_embedding_eq",
    "search_mu_drop",
]


@dataclass(frozen=True)
class DropHit:
    """mu falls by `drop` when n is shifted once by a."""

    a: int
    n: int
    mu_n: int
    mu_shifted: int

    @property
    def drop(self) -> int:
        return self.mu_n - self.mu_shifted


@dataclass(frozen=True)
class ResidueHit:
    """C(n,2) mod a has mu exactly n + 1."""

    a: int
    n: int
    binom: int
    residue: int
    mu_residue: int


@dataclass(frozen=True)
class SearchReport:
    """One search's hits; `quadsg search --format json` prints the fields in order.

    This and the two hit types stay dataclasses, not named tuples, because
    the benchmark's self-test (`perfbench/selftest.py`) tampers with them
    through `dataclasses.replace`.
    """

    search_id: str
    a_max: int
    hits: tuple

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((h.a, h.n) for h in self.hits)


_SEARCH_CAP = 10**5


def _pairs(first: int, lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair (first + k, j) with lo[k] < j <= hi[k], as two int64 arrays.

    In order of k, then j, in blocks of at most `_BLOCK` pairs, so memory
    stays flat however many pairs there are.
    """
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        k = np.searchsorted(ends, flat, side="right")
        yield first + k, lo[k] + 1 + flat - (ends[k] - counts[k])


def search_mu_drop(a_max: int) -> SearchReport:
    """All (a, n) with 3 <= n < a <= a_max and mu(n) - mu(n+a) in 2..4.

    A drop of at least 2 is the only way the least lift can land below
    mu; 4 bounds the window the derivation needs.

    Only pairs with n + a <= C(mu(n) - 2, 2) are read.  A drop of at
    least 2 needs mu(n+a) <= mu(n) - 2 = k, and mu(m) >= f(m) =
    (1 + sqrt(8m+1))/2 for m >= 1 (see `MuTable`).  For an integer k >= 1,
    f(m) <= k exactly when 8m + 1 <= (2k-1)^2, that is m <= C(k,2); and
    k >= 1 here, since mu(n) >= f(n) >= f(3) = 3.  So for each n the
    candidate a form the interval n < a <= min(a_max, C(mu(n) - 2, 2) - n),
    empty for all but a few n.
    """
    if not 4 <= a_max <= _SEARCH_CAP:
        raise ValueError(f"a_max must be in 4..{_SEARCH_CAP}")
    values = shared_table().ensure(2 * a_max).values
    ns = np.arange(3, a_max, dtype=np.int64)
    k = values[3:a_max].astype(np.int64) - 2
    hits = []
    for n, a in _pairs(3, ns, np.minimum(a_max, k * (k - 1) // 2 - ns)):
        mu_n, mu_shifted = values[n], values[n + a]
        drop = np.subtract(mu_n, mu_shifted, dtype=np.int64)
        keep = (drop >= 2) & (drop <= 4)
        hits += map(DropHit, *(x[keep].tolist() for x in (a, n, mu_n, mu_shifted)))
    hits.sort(key=lambda hit: (hit.a, hit.n))
    return SearchReport("mu-drop", a_max, tuple(hits))


def search_embedding_eq(a_max: int) -> SearchReport:
    """All (a, n), 1 <= n <= a <= a_max, with mu(C(n,2) mod a) = n + 1.

    Every such hit already meets the side constraints a < C(n,2) <= C(a,2)
    with a not dividing C(n,2), so none needs a check.  If C(n,2) < a the
    residue is C(n,2) itself, whose mu is n (0 for n = 1).  If a divides
    C(n,2), including C(n,2) = a, the residue is 0 and mu(0) = 0.  Neither
    is n + 1, and n <= a already keeps C(n,2) <= C(a,2).

    So a hit has C(n,2) > a, that is n > largest_index(a).  Its residue
    lies in 0..a-1, so n + 1 = mu(residue) <= M(a) = max mu(0..a-1).
    Only n with largest_index(a) < n <= min(a, M(a) - 1) are read: M comes
    from one running maximum over the table, largest_index from a binary
    search over exact integer triangular numbers.
    """
    if not 2 <= a_max <= _SEARCH_CAP:
        raise ValueError(f"a_max must be in 2..{_SEARCH_CAP}")
    values = shared_table().ensure(a_max).values
    a_all = np.arange(2, a_max + 1, dtype=np.int64)
    top = np.maximum.accumulate(values[:a_max]).astype(np.int64)[1:]
    i = np.arange(largest_index(a_max) + 2, dtype=np.int64)
    low = np.searchsorted(i * (i - 1) // 2, a_all, side="right") - 1
    hits = []
    for a, n in _pairs(2, low, np.minimum(a_all, top - 1)):
        binom = n * (n - 1) // 2
        residue = binom % a
        keep = values[residue] == n + 1
        hits += map(ResidueHit, *(x[keep].tolist() for x in (a, n, binom, residue, n + 1)))
    return SearchReport("embedding-eq", a_max, tuple(hits))


def g_of(a: float) -> float:
    """Bound-gap margin at scale a; positive means drops can still occur.

    Defined for a >= 2 as the amount by which the combined ceiling at the
    largest base argument exceeds the floor one shift later.
    """
    if a < 2:
        raise ValueError("defined for a >= 2")
    fa = inverse_triangular(a - 1.0)
    return fa - inverse_triangular(2.0 * a - 1.0) + 3.0 * inverse_triangular((fa - 2.0) / 3.0)


_VALUE_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def g_solve(target: float, bracket: tuple[float, float]) -> float:
    """Bisect g(x) = target over a bracket where g - target changes sign."""
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    f_lo = g_of(lo) - target
    f_hi = g_of(hi) - target
    if abs(f_lo) < _VALUE_TOL:
        return lo
    if abs(f_hi) < _VALUE_TOL:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError("g - target must change sign across the bracket")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        f_mid = g_of(mid) - target
        if abs(f_mid) < _VALUE_TOL:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise ArithmeticError("bisection did not reach tolerance")


def g_local_max(bracket: tuple[float, float] = (10.0, 200.0)) -> tuple[float, float]:
    """Golden-section search for the interior maximum of g over the bracket.

    Returns (argmax, value) with the argmax located to 1e-6.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = g_of(x1)
    f2 = g_of(x2)
    while hi - lo > 1e-6:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = g_of(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = g_of(x1)
    x = 0.5 * (lo + hi)
    return (x, g_of(x))


class GAnalysis(NamedTuple):
    """Peak and threshold crossings of g at the scales the searches rely on."""

    local_max_location: float
    local_max_value: float
    root_at_2: float
    root_at_1: float


def g_analysis() -> GAnalysis:
    """g peaks under 5 and decays through 2 and 1; these numbers say where.

    Past root_at_2 no further drop pairs can appear, and past root_at_1 no
    further residue hits; that is what makes both searches complete.
    """
    location, value = g_local_max((10.0, 200.0))
    return GAnalysis(
        local_max_location=location,
        local_max_value=value,
        root_at_2=g_solve(2.0, (100.0, 600.0)),
        root_at_1=g_solve(1.0, (100.0, 1000.0)),
    )


# Every strict residue-search hit, with a decomposition of y_n in S(a,1)
# over smaller generators, proving y_n is not minimal there.
EMBED_DECOMPOSITIONS: dict[tuple[int, int], dict[int, int]] = {
    (10, 6): {2: 2, 3: 1},
    (13, 7): {2: 2, 4: 1},
    (19, 9): {2: 2, 6: 1},
    (22, 9): {2: 1, 3: 1, 5: 1},
    (26, 10): {2: 1, 3: 1, 6: 1},
    (34, 12): {2: 1, 3: 1, 8: 1},
    (40, 12): {2: 1, 5: 1, 6: 1},
    (43, 13): {2: 1, 4: 1, 8: 1},
    (53, 15): {2: 1, 4: 1, 10: 1},
    (58, 14): {2: 2, 3: 1, 8: 1},
    (61, 15): {2: 1, 6: 1, 8: 1},
    (64, 15): {2: 2, 3: 1, 9: 1},
    (66, 16): {3: 1, 4: 1, 10: 1},
    (70, 16): {2: 2, 3: 1, 10: 1},
    (78, 18): {3: 1, 4: 1, 12: 1},
    (82, 18): {2: 2, 3: 1, 12: 1},
    (83, 17): {2: 2, 4: 1, 10: 1},
    (90, 18): {2: 2, 4: 1, 11: 1},
    (97, 19): {2: 2, 4: 1, 12: 1},
    (104, 20): {2: 2, 4: 1, 13: 1},
    (106, 21): {3: 1, 5: 1, 14: 1},
    (107, 21): {4: 2, 14: 1},
    (118, 22): {2: 2, 4: 1, 15: 1},
    (142, 24): {2: 1, 8: 1, 15: 1},
    (181, 27): {2: 2, 6: 1, 18: 1},
    (184, 27): {2: 1, 3: 1, 5: 1, 18: 1},
    (190, 28): {2: 2, 6: 1, 19: 1},
    (193, 28): {2: 1, 3: 1, 5: 1, 19: 1},
    (226, 30): {2: 1, 3: 1, 6: 1, 20: 1},
    (236, 31): {2: 1, 3: 1, 6: 1, 21: 1},
}

# For the eight exceptional pairs: every index n <= a where C(n,2) falls
# in the critical residue class, with a decomposition of y_n over smaller
# generators.  The one such index left out is each case's witness_index
# (EXCEPTIONAL_CASES), whose generator stays minimal.
EXTRA_INDEX_ROWS: tuple[tuple[int, int, dict[int, int]], ...] = (
    (29, 19, {1: 1, 2: 1, 8: 1, 11: 1}),
    (45, 33, {1: 6, 2: 2, 5: 1, 13: 2}),
    (47, 34, {1: 11, 3: 1, 14: 2}),
    (50, 39, {1: 1, 2: 1, 3: 1, 5: 1, 10: 1, 14: 2}),
    (55, 26, {1: 15, 15: 1}),
    (55, 30, {1: 5, 5: 1, 10: 1, 15: 1}),
    (55, 41, {5: 1, 15: 3}),
    (67, 52, {1: 10, 8: 1, 16: 3}),
    (73, 57, {1: 9, 2: 2, 3: 1, 6: 1, 17: 3}),
    (79, 62, {6: 1, 18: 4}),
)

EXPECTED_DROP_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (c.a, c.n) for c in EXCEPTIONAL_CASES
)

EXPECTED_RESIDUE_PAIRS: tuple[tuple[int, int], ...] = tuple(sorted(EMBED_DECOMPOSITIONS))


class Certificate(NamedTuple):
    kind: str
    a: int
    n: int
    ok: bool
    detail: str


def _format_decomposition(n: int, coefficients: dict[int, int]) -> str:
    terms = []
    for idx in sorted(coefficients):
        c = coefficients[idx]
        terms.append(f"y_{idx}" if c == 1 else f"{c}*y_{idx}")
    return f"y_{n} = " + " + ".join(terms)


def exception_certificates() -> list[Certificate]:
    """Re-derive each exceptional drop from scratch.

    Per case: the mu value, the witness generator the reduced lift lands
    on, membership one step below failing, and agreement with the
    Apery-set oracle.
    """
    out = []
    for case in EXCEPTIONAL_CASES:
        s = make_semigroup(case.a, 1)
        m = case.mu_n - 1
        w = m * case.a + case.n
        checks = [
            (mu(case.n) == case.mu_n, f"mu({case.n}) = {case.mu_n}"),
            (
                w == generator(s, case.witness_index),
                f"{m}*{case.a} + {case.n} = y_{case.witness_index}",
            ),
            (contains(s, w), f"{w} in S({case.a},1)"),
            (not contains(s, w - case.a), f"{w - case.a} not in S({case.a},1)"),
            (mu_ab_oracle(s, case.n) == m, f"least lift of {case.n} is {m}"),
        ]
        out.append(
            Certificate(
                kind="mu-drop",
                a=case.a,
                n=case.n,
                ok=all(ok for ok, _ in checks),
                detail="; ".join(text for _, text in checks),
            )
        )
    return out


def decomposition_certificates() -> list[Certificate]:
    """Verify every tabulated decomposition and minimality claim exactly.

    The thirty residue-table rows come first, then the rows of the eight
    exceptional a in (a, n) order: each witness generator, which the
    oracle must find minimal, and the decompositions of EXTRA_INDEX_ROWS.
    """
    rows = [("residue-table", a, n, c) for (a, n), c in sorted(EMBED_DECOMPOSITIONS.items())]
    extra = [("extra-minimal", c.a, c.witness_index, None) for c in EXCEPTIONAL_CASES]
    extra += [("extra-table", a, n, c) for a, n, c in EXTRA_INDEX_ROWS]
    rows += sorted(extra, key=lambda row: row[1:3])
    out = []
    for kind, a, n, coefficients in rows:
        s = make_semigroup(a, 1)
        if coefficients is None:
            ok = n in minimal_generators_oracle(s).indices
            detail = f"y_{n} unreachable from other generators of S({a},1)"
        else:
            ok = verify_decomposition(s, n, coefficients)
            detail = _format_decomposition(n, coefficients)
        out.append(Certificate(kind, a, n, ok, detail))
    return out
