"""Minimal generator decisions, the oracle, and the embedding dimension."""

import importlib
import math
import time
import tracemalloc

import numpy as np
import pytest

import quadsg as q
from helpers import minimal_generators_naive

invariants_module = importlib.import_module("quadsg.invariants")


def closed_indices(a: int, b: int) -> tuple[int, ...]:
    return q.minimal_generators_closed(q.make_semigroup(a, b)).indices


def test_is_minimal_examples():
    assert 6 not in closed_indices(10, 1)
    assert 11 in closed_indices(29, 1)
    assert 19 not in closed_indices(29, 1)
    assert 2 in closed_indices(2, 1)


def test_is_minimal_55():
    indices = closed_indices(55, 1)
    assert 15 in indices
    for n in (26, 30, 41):
        assert n not in indices


def test_is_minimal_branches():
    indices = closed_indices(10, 1)
    # C(n,2) < a keeps a generator minimal.
    for n in (1, 2, 3, 4):
        assert n in indices
    # Indices past a never are.
    assert 11 not in indices
    assert 25 not in indices
    # a | C(n,2) never is (C(5,2) = 10 here).
    assert 5 not in indices
    # The boundary C(n,2) = a is a multiple of a, hence not minimal.
    assert 3 not in closed_indices(3, 2)


def test_trivial_semigroups():
    s11 = q.make_semigroup(1, 1)
    closed = q.minimal_generators_closed(s11).indices
    assert 1 in closed
    assert 2 not in closed
    assert closed == q.minimal_generators_oracle(s11).indices == (1,)
    assert q.embedding_dimension(1, 1) == 1

    s01 = q.make_semigroup(0, 1)
    assert q.minimal_generators_oracle(s01).indices == (2,)
    assert q.minimal_generators_closed(s01).indices == (2,)
    assert q.embedding_dimension(0, 1) == 1
    assert q.embedding_dimension(1, 0) == 1


def test_dimension_examples():
    assert q.embedding_dimension(29, 1) == 9
    assert q.embedding_dimension(2, 1) == 2
    assert q.embedding_dimension(10, 1) == 4
    assert q.embedding_dimension(10, 3) == 4
    assert q.embedding_dimension(45, 1) == 10
    assert q.embedding_dimension(47, 1) == 11
    with pytest.raises(q.NotANumericalSemigroup):
        q.embedding_dimension(4, 2)


def test_minimal_generator_set_elements():
    s = q.make_semigroup(29, 1)
    gens = q.minimal_generators_oracle(s)
    assert gens.indices == (1, 2, 3, 4, 5, 6, 7, 8, 11)
    assert q.generator(s, gens.indices[0]) == 29
    assert q.generator(s, gens.indices[-1]) == 374
    assert len(gens.indices) == 9


def test_closed_vs_oracle_indicator():
    pairs = [(a, b) for a in range(2, 46) for b in range(1, 4) if math.gcd(a, b) == 1]
    pairs += sorted(q.EXCEPTIONAL_PAIRS)
    for a, b in pairs:
        s = q.make_semigroup(a, b)
        oracle = q.minimal_generators_oracle(s).indices
        assert q.minimal_generators_closed(s).indices == oracle, (a, b)
        closed = q.minimal_generators_closed(s).indices
        for n in range(1, a + 6):
            assert (n in closed) == (n in oracle), (a, b, n)


def test_closed_generators_at_large_a():
    start = time.perf_counter()
    gens = q.minimal_generators_closed(q.make_semigroup(10**11, 1))
    assert time.perf_counter() - start < 0.5
    assert len(gens.indices) == q.embedding_dimension(10**11, 1) == 447_214
    assert gens.indices[-1] == 447_214
    assert q.minimal_generators_closed(q.make_semigroup(1, 10**11)).indices == (1,)


def test_closed_generators_refuse_huge_a_before_allocating():
    # 44,721,359,550 indices: counted in integer arithmetic, never listed.
    s = q.make_semigroup(10**21, 1)
    assert q.embedding_dimension(10**21, 1) == 44_721_359_550
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limited"):
            q.minimal_generators_closed(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_vs_naive_closure():
    pairs = [(a, b) for a in range(2, 17) for b in range(1, 6) if math.gcd(a, b) == 1]
    for a, b in pairs + [(29, 1), (30, 7)]:
        s = q.make_semigroup(a, b)
        expected = minimal_generators_naive(a, b, 700)
        assert list(q.minimal_generators_oracle(s).indices) == expected, (a, b)


def _oracle_per_w_prime(a, b):
    # The minimal-generator oracle as first written: one pass over the Apery
    # set per nonzero element w', marking the elements w with w - w' in S.
    ap = invariants_module._apery(a, b)[0]
    reached = np.zeros(a, dtype=bool)
    reached[0] = True
    for w_prime in ap[1:]:
        diff = ap - w_prime
        reached |= (diff > 0) & (diff >= ap[diff % a])
    indices = [1]
    n, y = 1, a
    for w in np.sort(ap[~reached]).tolist():
        while y < w:
            y += a + n * b
            n += 1
        indices.append(n)
    return tuple(indices)


@pytest.mark.parametrize("lift", [None, 1, 7])
def test_oracle_matches_per_w_prime_reference(lift):
    # Lifting b to b + lift*a keeps every generator's class mod a but not
    # its value, so the fold works through other Apery values; no lifted
    # pair is exceptional, so the eight extra-minimal indices must go.
    pairs = [(a, b) for a in range(2, 151) for b in range(1, 7) if math.gcd(a, b) == 1]
    for a, b in pairs + sorted(q.EXCEPTIONAL_PAIRS):
        if lift is not None:
            b += lift * a
        got = q.minimal_generators_oracle(q.make_semigroup(a, b)).indices
        assert got == _oracle_per_w_prime(a, b), (a, b, lift)


def test_oracles_refuse_past_the_limit_before_allocating():
    # Just past the limit the fold would take several seconds; the refusal
    # comes first, before any array of size a.
    a = invariants_module._APERY_LIMIT + 1
    s = q.make_semigroup(a, 1)
    refused = [q.apery_oracle, q.frobenius_oracle, q.genus_oracle, q.minimal_generators_oracle]
    tracemalloc.start()
    try:
        for oracle in refused:
            with pytest.raises(ValueError, match="limited"):
                oracle(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_oracle_speed_at_a_1000():
    start = time.perf_counter()
    gens = q.minimal_generators_oracle(q.make_semigroup(1000, 1))
    assert time.perf_counter() - start < 0.5
    assert len(gens.indices) == q.embedding_dimension(1000, 1)


def test_dimension_vs_oracle():
    for a, b in [(2, 1), (10, 1), (29, 1), (55, 1), (79, 1), (60, 7), (120, 1)]:
        s = q.make_semigroup(a, b)
        assert q.embedding_dimension(a, b) == len(q.minimal_generators_oracle(s).indices)


def test_dimension_at_most_a():
    for a in range(2, 200):
        assert q.embedding_dimension(a, 1) <= a


def test_monotone_in_b():
    # Growing b never adds minimal generators: with a fixed, the index set
    # for b2 is contained in the index set for any smaller coprime b1.
    for a in [10, 29, 50, 55, 81]:
        sets = {}
        for b in range(1, 5):
            if math.gcd(a, b) != 1:
                continue
            s = q.make_semigroup(a, b)
            sets[b] = set(q.minimal_generators_oracle(s).indices)
        bs = sorted(sets)
        for b1, b2 in zip(bs, bs[1:]):
            assert sets[b2] <= sets[b1], (a, b1, b2)
            assert len(sets[b1]) >= len(sets[b2])


def test_verify_decomposition():
    s = q.make_semigroup(10, 1)
    assert q.verify_decomposition(s, 6, {2: 2, 3: 1})
    assert not q.verify_decomposition(s, 6, {2: 1, 3: 1})
    with pytest.raises(ValueError):
        q.verify_decomposition(s, 6, {6: 1})
    with pytest.raises(ValueError):
        q.verify_decomposition(s, 6, {7: 1})
    with pytest.raises(ValueError):
        q.verify_decomposition(s, 6, {0: 1})
    with pytest.raises(ValueError):
        q.verify_decomposition(s, 6, {2: -1, 3: 3})
