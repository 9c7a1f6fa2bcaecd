"""Minimal generating sets and the embedding dimension."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mu import largest_index
from .semigroup import (
    EXCEPTIONAL_PAIRS,
    _EXCEPTIONAL,
    _TUPLE_LIMIT,
    QuadraticSemigroup,
    _apery,
    generator,
    make_semigroup,
)

__all__ = [
    "MinimalGeneratorSet",
    "embedding_dimension",
    "minimal_generators_closed",
    "minimal_generators_oracle",
    "verify_decomposition",
]

# Most entries in one block of the minimal-generator oracle's scan: 2**16
# int64 sums are 512 KiB, so memory stays flat however large a is.
_REACH_BLOCK = 1 << 16


@dataclass(frozen=True)
class MinimalGeneratorSet:
    """Indices n whose generator y_n no other generators can produce."""

    semigroup: QuadraticSemigroup
    indices: tuple[int, ...]

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(generator(self.semigroup, n) for n in self.indices)

    def __len__(self) -> int:
        return len(self.indices)


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
    takes about 360 MB, and their elements as much again.
    `embedding_dimension` still counts them.
    """
    if s.trivial:
        return MinimalGeneratorSet(semigroup=s, indices=(1,) if s.a == 1 else (2,))
    count = largest_index(s.a - 1)
    if count > _TUPLE_LIMIT:
        raise ValueError(f"index list is limited to {_TUPLE_LIMIT} indices, S({s.a},{s.b}) has {count}")
    indices = tuple(range(1, count + 1))
    case = _EXCEPTIONAL.get((s.a, s.b))
    if case is not None:
        indices += (case.witness_index,)
    return MinimalGeneratorSet(semigroup=s, indices=indices)


def minimal_generators_oracle(s: QuadraticSemigroup) -> MinimalGeneratorSet:
    """Recompute minimality from the Apery set, using no closed forms.

    The minimal generators are a together with the nonzero Apery elements
    w that no other nonzero Apery element w' reaches, i.e. w - w' is never
    in S (Rosales & Garcia-Sanchez, Numerical Semigroups, ch. 1).  Each is
    some y_n, read back by walking the generators in order.

    Ap[r] is reached exactly when Ap[r] = Ap[r'] + Ap[(r - r') mod a] for
    some r' not in {0, r}: if Ap[r] - Ap[r'] is in S, it is the Apery
    element of its class, since Ap[r] - a is not in S.  Row r' of a
    circulant view of the Apery set written twice holds Ap[(r - r') mod a]
    for every r without a copy, and the rows are scanned in blocks of at
    most `_REACH_BLOCK` entries.
    """
    if s.trivial:
        # The lone minimal generator 1 is y_1, or y_2 when a = 0.
        return MinimalGeneratorSet(semigroup=s, indices=(1,) if s.a == 1 else (2,))
    a, b = s.a, s.b
    ap = _apery(a, b)
    # The zero Ap[0] at doubled[a] lands on the diagonal r' = r, where it
    # would match every Ap[r] with itself; -1 there matches none.
    doubled = np.concatenate((ap, ap))
    doubled[a] = -1
    circulant = np.lib.stride_tricks.sliding_window_view(doubled, a)[::-1]
    reached = np.zeros(a, dtype=bool)
    reached[0] = True
    rows = max(1, _REACH_BLOCK // a)
    for lo in range(1, a, rows):
        hi = min(lo + rows, a)
        reached |= (ap[lo:hi, None] + circulant[lo:hi] == ap).any(axis=0)
    indices = [1]
    n, y = 1, a
    for w in np.sort(ap[~reached]).tolist():
        while y < w:
            y += a + n * b
            n += 1
        indices.append(n)
    return MinimalGeneratorSet(semigroup=s, indices=tuple(indices))


def embedding_dimension(a: int, b: int) -> int:
    """Size of the minimal generating set of S(a,b), in integer arithmetic.

    Counts the indices n >= 1 with C(n,2) < a, plus one for the extra
    index of an exceptional pair.  Never evaluates the real inverse of
    the triangular map.
    """
    s = make_semigroup(a, b)
    if s.trivial:
        return 1
    count = largest_index(a - 1)
    if (a, b) in EXCEPTIONAL_PAIRS:
        count += 1
    return count


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
