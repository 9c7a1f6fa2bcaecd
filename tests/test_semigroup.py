"""Semigroup construction, membership, the lifted monoid, and least lifts."""

import importlib
import json
import math
import random

import numpy as np
import pytest

import quadsg as q
from helpers import least_lift_scan, lift_members, semigroup_members

invariants_module = importlib.import_module("quadsg.invariants")


def test_make_semigroup_validation():
    with pytest.raises(q.NotANumericalSemigroup):
        q.make_semigroup(4, 2)
    with pytest.raises(q.NotANumericalSemigroup):
        q.make_semigroup(6, 9)
    with pytest.raises(q.NotANumericalSemigroup):
        q.make_semigroup(5, 0)
    with pytest.raises(ValueError):
        q.make_semigroup(0, 0)
    with pytest.raises(ValueError):
        q.make_semigroup(-2, 1)
    with pytest.raises(ValueError):
        q.make_semigroup(2, -1)
    # The coprimality error is a ValueError, so one handler catches both.
    assert issubclass(q.NotANumericalSemigroup, ValueError)


def test_trivial_flag():
    assert q.make_semigroup(1, 1).trivial
    assert q.make_semigroup(1, 0).trivial
    assert q.make_semigroup(0, 1).trivial
    assert q.make_semigroup(1, 7).trivial
    assert not q.make_semigroup(2, 1).trivial
    assert not q.make_semigroup(29, 1).trivial


def test_generator_values():
    s = q.make_semigroup(2, 1)
    assert [q.generator(s, n) for n in range(7)] == [0, 2, 5, 9, 14, 20, 27]
    s29 = q.make_semigroup(29, 1)
    assert q.generator(s29, 11) == 374
    with pytest.raises(ValueError):
        q.generator(s, -1)


def test_describe_is_json_ready():
    info = q.describe(q.make_semigroup(2, 1))
    assert info == {
        "a": 2,
        "b": 1,
        "trivial": False,
        "generators": [0, 2, 5, 9, 14, 20, 27, 35],
    }
    json.dumps(info)


@pytest.mark.parametrize("a,b", [(2, 1), (3, 1), (3, 2), (5, 2), (29, 1), (2, 5)])
def test_membership_matches_naive_closure(a, b):
    s = q.make_semigroup(a, b)
    bound = 400
    naive = semigroup_members(a, b, bound)
    got = {x for x in range(bound + 1) if q.contains(s, x)}
    assert got == naive


def test_membership_no_members_below_a():
    for a, b in [(5, 2), (29, 1), (7, 3)]:
        s = q.make_semigroup(a, b)
        assert not any(q.contains(s, x) for x in range(1, a))
        assert q.contains(s, 0)
        assert q.contains(s, a)


def test_contains():
    s = q.make_semigroup(2, 1)
    assert not q.contains(s, -3)
    members = {0, 2, 4, 5, 6, 7, 8, 9}
    for x in range(10):
        assert q.contains(s, x) == (x in members)
    assert q.contains(s, 10**5)
    trivial = q.make_semigroup(1, 1)
    assert q.contains(trivial, 1)
    assert not q.contains(trivial, -1)


def test_contains_far_past_frobenius():
    # Membership is read off the Apery set, so no array grows with x.
    assert q.contains(q.make_semigroup(2, 1), 10**12) is True
    assert q.contains(q.make_semigroup(2, 1), 2**70 + 1) is True


def test_oracle_refuses_pairs_past_int64():
    # Unguarded, the int64 walks wrap here and the Apery set comes out wrong.
    s = q.make_semigroup(100, 9 * 10**16 + 1)
    with pytest.raises(ValueError):
        q.contains(s, 10**20)
    with pytest.raises(ValueError):
        q.mu_ab_oracle(s, 1)


def _round_robin_apery(a, b):
    # The Apery oracle as first written: every y <= max(Ap) is folded, each
    # cycle rotated to start at its least entry, then one running minimum.
    unreached = (1 << 62) - 1
    ap = np.full(a, unreached, dtype=np.int64)
    ap[0] = 0
    n, y = 2, 2 * a + b
    while y <= ap.max():
        d = math.gcd(y, a)
        length = a // d
        steps = np.arange(length, dtype=np.int64)
        cycles = (np.arange(d)[:, None] + steps * (y % a)) % a
        start = ap[cycles].argmin(axis=1)
        cycles = np.take_along_axis(cycles, (start[:, None] + steps) % length, axis=1)
        walk = steps * y
        ap[cycles] = np.minimum.accumulate(ap[cycles] - walk, axis=1) + walk
        y += a + n * b
        n += 1
    return ap


def _largest_b_under_guard(a):
    last = ((1 << 62) - 1) // (a * a) - 2 * a
    return next(b for b in range(last, 0, -1) if math.gcd(a, b) == 1)


def test_apery_matches_round_robin_reference():
    rng = random.Random(15)
    pairs = []
    while len(pairs) < 40:
        a, b = rng.randrange(2, 3000), rng.randrange(1, 60)
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    # With 3 | a and a > 3, y_3 = 3a + 3b shares the factor 3 with a and
    # lies outside the span of a and y_2 (that would need j*y_2 = y_3 - i*a
    # with j = 3, so i = -3), so it is folded along three cycles of a/3.
    pairs += [(6, 1), (99, 1), (300, 7), (1200, 1), (2997, 59)]
    pairs += sorted(q.EXCEPTIONAL_PAIRS)
    pairs += [(a, _largest_b_under_guard(a)) for a in (3, 100, 1999)]
    for a, b in pairs:
        got = invariants_module._apery(a, b)
        assert np.array_equal(got, _round_robin_apery(a, b)), (a, b)


# The lifted pair monoid holds (m, n) exactly when mu(n) <= m, and m*a + n*b
# projects it onto S(a,b); these tests check both against plain closures.


def test_lift_contains_examples():
    reach = lift_members(14, 26)
    for m, n, member in [(0, 0, True), (2, 1, True), (1, 1, False), (13, 26, True), (12, 26, False)]:
        assert (q.mu(n) <= m) == reach[m][n] == member, (m, n)
    with pytest.raises(ValueError):
        q.mu(-1)


def test_lift_vs_bfs_grid():
    m_max = n_max = 40
    reach = lift_members(m_max, n_max)
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            assert (q.mu(n) <= m) == reach[m][n], (m, n)


def test_lift_row_threshold_is_mu():
    # The first reachable m in each column of the BFS grid is mu(n).
    reach = lift_members(200, 60)
    for n in range(61):
        assert next(m for m in range(201) if reach[m][n]) == q.mu(n), n


def test_project_and_surjectivity():
    for a, b in [(3, 2), (5, 3)]:
        s = q.make_semigroup(a, b)
        image = {m * a + n * b for m in range(60) for n in range(60) if q.mu(n) <= m}
        for x in image:
            assert q.contains(s, x)
        member_set = semigroup_members(a, b, 60)
        assert member_set <= image
    assert q.contains(q.make_semigroup(2, 1), 2 * 2 + 1 * 1)


def test_mu_ab_oracle_examples_and_domain():
    s = q.make_semigroup(5, 2)
    assert q.mu_ab_oracle(s, 1) == 2
    with pytest.raises(ValueError):
        q.mu_ab_oracle(s, 5)
    with pytest.raises(ValueError):
        q.mu_ab_oracle(s, -1)
    with pytest.raises(ValueError):
        q.mu_ab_oracle(q.make_semigroup(1, 1), 0)


def test_mu_ab_closed_domain():
    s = q.make_semigroup(5, 2)
    with pytest.raises(ValueError):
        q.mu_ab_closed(s, 5)
    with pytest.raises(ValueError):
        q.mu_ab_closed(s, -1)
    with pytest.raises(ValueError):
        q.mu_ab_closed(q.make_semigroup(1, 2), 0)


def test_mu_ab_closed_vs_oracle_small_grid():
    for a in range(2, 41):
        for b in range(1, 4):
            if math.gcd(a, b) != 1:
                continue
            s = q.make_semigroup(a, b)
            for n in range(a):
                assert q.mu_ab_closed(s, n) == q.mu_ab_oracle(s, n), (a, b, n)


def test_exceptional_triples():
    assert len(q.EXCEPTIONAL_CASES) == 8
    assert q.EXCEPTIONAL_PAIRS == {
        (29, 1), (45, 1), (47, 1), (50, 1), (55, 1), (67, 1), (73, 1), (79, 1)
    }
    for case in q.EXCEPTIONAL_CASES:
        s = q.make_semigroup(case.a, 1)
        assert q.mu(case.n) == case.mu_n
        assert q.mu_ab_closed(s, case.n) == case.mu_n - 1
        assert q.mu_ab_oracle(s, case.n) == case.mu_n - 1
        witness = (case.mu_n - 1) * case.a + case.n
        assert witness == q.generator(s, case.witness_index)
        assert q.contains(s, witness)
        assert not q.contains(s, witness - case.a)


def test_exceptional_drop_requires_b_one():
    # The same residues behave normally at other coprime b.
    for case in q.EXCEPTIONAL_CASES:
        b = 2 if case.a % 2 else 3
        s = q.make_semigroup(case.a, b)
        assert q.mu_ab_closed(s, case.n) == case.mu_n


def test_mu_ab_closed_equals_mu_off_the_list():
    s = q.make_semigroup(29, 1)
    drops = {c.n for c in q.EXCEPTIONAL_CASES if c.a == 29}
    for n in range(29):
        expected = q.mu(n) - (1 if n in drops else 0)
        assert q.mu_ab_closed(s, n) == expected


def _mu_ab_shifted(s, n):
    """mu_{a,b} at any integer n, reduced to the base window by the shift rule."""
    return q.mu_ab_closed(s, n % s.a) - (n // s.a) * s.b


def test_mu_ab_shift_examples():
    s = q.make_semigroup(5, 2)
    assert _mu_ab_shifted(s, 1) == 2
    assert _mu_ab_shifted(s, 6) == 0
    s29 = q.make_semigroup(29, 1)
    assert _mu_ab_shifted(s29, 55) == 11
    with pytest.raises(ValueError):
        _mu_ab_shifted(q.make_semigroup(1, 1), 3)


def test_mu_ab_shift_identity_and_scan():
    # The shift rule against a direct scan for the least lift, on both
    # sides of the base window.
    for a, b in [(5, 2), (7, 3), (29, 1)]:
        s = q.make_semigroup(a, b)
        for n in range(-10, 3 * a):
            direct = least_lift_scan(lambda x: q.contains(s, x), a, b, n)
            assert _mu_ab_shifted(s, n) == direct, (a, b, n)
            assert least_lift_scan(lambda x: q.contains(s, x), a, b, n + a) == direct - b
