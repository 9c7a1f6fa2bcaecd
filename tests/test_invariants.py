"""Apery sets, Frobenius number, genus, and the analytic bounds."""

import importlib
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import quadsg as q
from helpers import (
    apery_closed_plain,
    frobenius_streamed,
    invariant_bounds_plain,
    invariants_row,
    semigroup_members,
)
from quadsg import cli

invariants_module = importlib.import_module("quadsg.invariants")


# F and g of S(a, 1), read off an int64 mu table without F's level terms:
# at b = 1, F + a is max(mu)*a plus the last n < a where mu attains its
# max, and g is the sum of mu(0..a-1).
AT_SCALE = {
    10**6 + 1: (1_482_000_435, 978_309_399),
    10**7 + 1: (45_860_001_727, 30_413_207_600),
    10**8 - 1: (1_433_399_976_564, 953_011_630_009),
}


def summaries_pair_by_pair(a_max, b_max):
    """The sweep's rows (a, b, F, g, F low, F high, g low, g high), one pair at a time."""
    return [
        tuple(invariants_row(a, b).values())[:8]
        for a in range(2, a_max + 1)
        for b in range(1, b_max + 1)
        if math.gcd(a, b) == 1
    ]


def sweep_rows(a_max, b_max):
    """The sweep's rows off its column blocks, as they come."""
    return (row for block in invariants_module._sweep_columns(a_max, b_max) for row in zip(*block))


def test_apery_examples():
    assert q.apery_closed(q.make_semigroup(2, 1)).elements == (0, 5)
    assert q.apery_oracle(q.make_semigroup(2, 1)).elements == (0, 5)
    # Derived by brute force: S(3,1) = <3, 7, 12, ...>.
    assert q.apery_oracle(q.make_semigroup(3, 1)).elements == (0, 7, 14)
    assert q.apery_closed(q.make_semigroup(3, 1)).elements == (0, 7, 14)
    # Derived by hand from the lift values of S(5,2).
    assert q.apery_closed(q.make_semigroup(5, 2)).elements == (0, 21, 12, 33, 24)


def test_apery_structure():
    for a, b in [(5, 2), (7, 3), (29, 1), (10, 3)]:
        s = q.make_semigroup(a, b)
        ap = q.apery_closed(s)
        assert len(ap.elements) == a
        assert ap.elements[0] == 0
        for k in range(a):
            w = ap.elements[k]
            assert w % a == k
            assert q.contains(s, w)
            if k:
                assert not q.contains(s, w - a)


def test_apery_trivial_and_errors():
    assert q.apery_oracle(q.make_semigroup(1, 1)) == q.AperySet((0,))
    assert q.apery_oracle(q.make_semigroup(1, 0)) == q.AperySet((0,))
    with pytest.raises(ValueError):
        q.apery_oracle(q.make_semigroup(0, 1))
    # The closed form keeps the oracle's conventions on trivial S.
    for a, b in [(1, 1), (1, 0), (1, 5)]:
        s = q.make_semigroup(a, b)
        assert q.apery_closed(s) == q.apery_oracle(s) == q.AperySet((0,))
    with pytest.raises(ValueError):
        q.apery_closed(q.make_semigroup(0, 1))


def test_frobenius_genus_examples():
    s21 = q.make_semigroup(2, 1)
    assert q.frobenius(s21) == 3
    assert q.genus(s21) == 2
    s31 = q.make_semigroup(3, 1)
    assert q.frobenius(s31) == 11
    assert q.genus(s31) == 6
    # S(3,2) worked out by hand: gaps are 1, 2, 4, 5, 7, 10, 13.
    s32 = q.make_semigroup(3, 2)
    assert q.frobenius(s32) == 13
    assert q.genus(s32) == 7


def test_trivial_conventions():
    for a, b in [(1, 1), (1, 0), (0, 1), (1, 9)]:
        s = q.make_semigroup(a, b)
        assert q.frobenius(s) == -1
        assert q.genus(s) == 0
        assert q.frobenius_oracle(s) == -1
        assert q.genus_oracle(s) == 0


def test_frobenius_matches_gap_scan():
    for a, b in [(2, 1), (3, 2), (5, 2), (7, 3), (29, 1)]:
        s = q.make_semigroup(a, b)
        f = q.frobenius(s)
        bound = f + 2 * a + 2
        members = semigroup_members(a, b, bound)
        gaps = [x for x in range(bound + 1) if x not in members]
        assert max(gaps) == f
        assert len(gaps) == q.genus(s)


def test_closed_vs_oracle_grid():
    for a in range(2, 41):
        for b in range(1, 4):
            if math.gcd(a, b) != 1:
                continue
            s = q.make_semigroup(a, b)
            assert q.apery_closed(s).elements == q.apery_oracle(s).elements
            assert q.frobenius(s) == q.frobenius_oracle(s)
            assert q.genus(s) == q.genus_oracle(s)


def test_closed_vs_oracle_exceptional_pairs():
    for a, b in sorted(q.EXCEPTIONAL_PAIRS):
        s = q.make_semigroup(a, b)
        assert q.apery_closed(s).elements == q.apery_oracle(s).elements
        assert q.frobenius(s) == q.frobenius_oracle(s)
        assert q.genus(s) == q.genus_oracle(s)


def test_genus_formula_integrality():
    # (a-1)(b-1) is even for every coprime pair.
    for a in range(2, 60):
        for b in range(1, 6):
            if math.gcd(a, b) == 1:
                assert (a - 1) * (b - 1) % 2 == 0


def test_frobenius_bounds_values():
    low, high = q.frobenius_bounds(2, 1)
    assert low == 3.0
    assert high == pytest.approx(2.0 + math.sqrt(33.0), abs=1e-12)
    assert q.frobenius(q.make_semigroup(2, 1)) == low
    with pytest.raises(ValueError):
        q.frobenius_bounds(1, 1)
    with pytest.raises(ValueError):
        q.frobenius_bounds(2, 0)


def test_genus_bounds_values():
    low, high = q.genus_bounds(2, 1)
    assert low == pytest.approx(38.0 / 24.0, abs=1e-12)
    expected_high = (math.sqrt(3.0) * 19.0**1.5 + 36.0 - 11.0 * math.sqrt(33.0)) / 24.0
    assert high == pytest.approx(expected_high, abs=1e-12)
    assert low <= q.genus(q.make_semigroup(2, 1)) <= high
    with pytest.raises(ValueError):
        q.genus_bounds(0, 1)


def test_bound_sandwich_grid():
    for a in range(2, 61):
        for b in range(1, 4):
            if math.gcd(a, b) != 1 or not q.bounds_certified(a, b):
                continue
            s = q.make_semigroup(a, b)
            f_low, f_high = q.frobenius_bounds(a, b)
            g_low, g_high = q.genus_bounds(a, b)
            assert f_low - 1e-9 <= q.frobenius(s) <= f_high + 1e-9, (a, b)
            assert g_low - 1e-9 <= q.genus(s) <= g_high + 1e-9, (a, b)


def test_bounds_certified():
    assert not q.bounds_certified(29, 1)
    assert q.bounds_certified(29, 2)
    assert q.bounds_certified(28, 1)
    assert not q.bounds_certified(1, 1)
    assert not q.bounds_certified(2, 0)


def test_invariant_summary(capsys):
    def invariants(a, b):
        code = cli.run(["invariants", "--a", str(a), "--b", str(b), "--format", "json"])
        out, err = capsys.readouterr()
        return code, out, err

    code, out, err = invariants(29, 1)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["a"], doc["b"], doc["frobenius"], doc["genus"]) == (29, 1, 345, 217)
    assert doc["frobenius_low"] < doc["frobenius_high"]
    assert doc["genus_low"] < doc["genus_high"]
    assert doc["bounds_certified"] is False
    assert json.loads(invariants(29, 2)[1])["bounds_certified"] is True
    assert invariants(1, 1) == (1, "", "error: S(1,1) is trivial; operation needs a >= 2 and b >= 1\n")


def test_sweep_matches_pair_by_pair():
    # The benchmark's grid.
    assert list(sweep_rows(400, 10)) == summaries_pair_by_pair(400, 10)


def test_bounds_floats_equal_the_scalar_expressions():
    # The sweep takes the terms in a alone once per a; every float must
    # still be the one the pair-by-pair expressions give, not merely close.
    for a, b, *_, f_low, f_high, g_low, g_high in sweep_rows(400, 10):
        assert (f_low, f_high, g_low, g_high) == invariant_bounds_plain(a, b), (a, b)
    a = 10**6 + 1
    for b in [1, 2, 3, 7, 10, 999_999]:
        assert q.frobenius_bounds(a, b) + q.genus_bounds(a, b) == invariant_bounds_plain(a, b), b


@pytest.mark.parametrize("block", [None, 40])
def test_sweep_covers_exceptional_pairs(block, monkeypatch):
    # All eight exceptional pairs (a <= 79, b = 1); with 40-entry blocks
    # the scan takes 5 pairs at a time, so every a spans three blocks of b.
    if block is not None:
        monkeypatch.setattr(invariants_module, "_BLOCK", block)
    rows = list(sweep_rows(80, 12))
    assert rows == summaries_pair_by_pair(80, 12)
    assert q.EXCEPTIONAL_PAIRS <= {(a, b) for a, b, *_ in rows}
    for a, b, f, g, *_ in rows:
        s = q.make_semigroup(a, b)
        assert (f, g) == (q.frobenius_oracle(s), q.genus_oracle(s)), (a, b)
    # The single-pair path drops the lift at b = 1 only.
    exceptional_a = {a for a, _ in q.EXCEPTIONAL_PAIRS}
    for a, b, f, g, *_ in rows:
        if a in exceptional_a:
            s = q.make_semigroup(a, b)
            assert (q.frobenius(s), q.genus(s)) == (f, g), (a, b)


def scanned(a_max, b_max):
    """{(a, b): (F, g)} off the sweep's scans, in the order they come."""
    rows = {}
    for block in invariants_module._scan(a_max, b_max):
        for a, b, f, g in zip(*(column.tolist() for column in block)):
            rows[a, b] = (f, g)
    return rows


def per_a_reference():
    """{(a, b): (F, g)} from the single-pair `frobenius` and `genus`:
    every a < 3001 at b = 1, and every coprime a < 1500 at b = 2, 3, 5, 7
    and 10."""
    rows = {}
    for a_max, bs in [(3000, [1]), (1499, [2, 3, 5, 7, 10])]:
        for a in range(2, a_max + 1):
            for b in bs:
                if math.gcd(a, b) == 1:
                    s = q.make_semigroup(a, b)
                    rows[a, b] = q.frobenius(s), q.genus(s)
    return rows


@pytest.mark.parametrize("block", [None, 64])
def test_scan_matches_per_a_reference(block, monkeypatch):
    # With a 64-entry cap a block holds at most 8 pairs, so M, the last n
    # of each level and the sum carry across hundreds of block edges.
    expected = per_a_reference()
    if block is not None:
        monkeypatch.setattr(invariants_module, "_BLOCK", block)
    ones = scanned(3000, 1)
    assert list(ones) == [(a, 1) for a in range(2, 3001)]
    assert ones == {key: value for key, value in expected.items() if key[1] == 1}
    rows = scanned(1499, 10)
    assert {key: rows[key] for key in expected if key[1] > 1} == {
        key: value for key, value in expected.items() if key[1] > 1
    }


def test_sweep_streams_in_bounded_memory():
    # The size check allows a = 2 with 5*10**7 values of b; its first rows
    # come from one capped block, not from a 2 x b_max array.
    tracemalloc.start()
    try:
        rows = list(itertools.islice(sweep_rows(3, 50_000_000), 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row[:2] for row in rows[:3]] == [(2, 1), (2, 3), (2, 5)]
    assert len(rows) == 1000
    assert peak < 8 << 20, peak


def test_sweep_block_is_not_cut_by_table_growth():
    # A grid within one block's cap comes in one block, read off one span
    # of mu.
    blocks = list(invariants_module._sweep_columns(400, 10))
    assert len(blocks) == 1
    assert blocks[0][0][-1] == 400


def test_closed_forms_refuse_oversized_a_before_allocating():
    s = q.make_semigroup(10**11, 1)
    tracemalloc.start()
    try:
        for closed_form in (q.apery_closed, q.frobenius, q.genus):
            with pytest.raises(ValueError, match="limited"):
                closed_form(s)
        # mu serves a = 10**7 + 1, but its Apery set is over the 10**7
        # elements a closed form returns in one tuple.
        with pytest.raises(ValueError, match="limited to 10000000 elements"):
            q.apery_closed(q.make_semigroup(10**7 + 1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_closed_forms_exact_past_int64():
    # The benchmark's sweep grid, the exceptional pairs, and two pairs whose
    # Apery elements pass 2**63, where an int64 computation would wrap.
    pairs = [(a, b) for a in range(2, 401) for b in range(1, 11) if math.gcd(a, b) == 1]
    pairs += sorted(q.EXCEPTIONAL_PAIRS) + [(5, 10**20 + 1), (1001, 2**62 + 1)]
    for a, b in pairs:
        s = q.make_semigroup(a, b)
        plain = apery_closed_plain(s)
        assert q.apery_closed(s).elements == plain, (a, b)
        assert q.frobenius(s) == max(plain) - a, (a, b)
        # Selmer: the class of r holds (Ap[r] - r)/a gaps.
        assert q.genus(s) == (sum(plain) - a * (a - 1) // 2) // a, (a, b)
    assert max(apery_closed_plain(q.make_semigroup(1001, 2**62 + 1))) >= 1 << 63


def edge_of_oracle_guard(a):
    """The largest b coprime to a that the Apery oracle serves, a^2(2a + b) < 2**62,
    and the smallest coprime b past it."""
    last = ((1 << 62) - 1) // (a * a) - 2 * a
    below = next(b for b in range(last, 0, -1) if math.gcd(a, b) == 1)
    past = next(b for b in itertools.count(last + 1) if math.gcd(a, b) == 1)
    return below, past


@pytest.mark.parametrize("a", [2, 29, 64, 1000, 1999])
def test_closed_forms_match_oracle_at_int64_guard(a):
    below, past = edge_of_oracle_guard(a)
    s = q.make_semigroup(a, below)
    assert q.apery_closed(s).elements == q.apery_oracle(s).elements
    assert q.frobenius(s) == q.frobenius_oracle(s)
    assert q.genus(s) == q.genus_oracle(s)
    with pytest.raises(ValueError, match="too large"):
        q.apery_oracle(q.make_semigroup(a, past))


def test_frobenius_genus_speed_at_a_million():
    s = q.make_semigroup(10**6 + 1, 1)
    start = time.perf_counter()
    q.frobenius(s)
    q.genus(s)
    assert time.perf_counter() - start < 0.5


# a where `frobenius` takes its level terms: around the ends of levels 417,
# 418 and 419, where the head, level k - 1 and level k win in turn, and
# seeded a spread evenly in log scale from C(418,2) up to 10**7 + 1; the
# exceptional a keep their drop at b = 1.
_rng = random.Random(37)
_low, _high = math.log(q.triangular(418)), math.log(10**7)
F_POINTS = sorted(a for a, _ in q.EXCEPTIONAL_PAIRS)
F_POINTS += [q.triangular(j) + d for j in (418, 419, 420) for d in (-1, 0, 1)]
F_POINTS += sorted(round(math.exp(_rng.uniform(_low, _high))) for _ in range(19)) + [10**7 + 1]


@pytest.mark.parametrize("b", [1, 2, 1000, 10**6 + 1, 2**62 + 1])
def test_frobenius_matches_streamed_lifts(b):
    for a in F_POINTS:
        if math.gcd(a, b) == 1:
            assert q.frobenius(q.make_semigroup(a, b)) == frobenius_streamed(a, b), (a, b)


@pytest.mark.slow
@pytest.mark.parametrize("b", [1, 2**62 + 1])
def test_frobenius_matches_streamed_lifts_at_the_limit(b):
    s = q.make_semigroup(10**8 - 1, b)
    assert q.frobenius(s) == frobenius_streamed(s.a, b)


def test_frobenius_reads_only_the_head(monkeypatch):
    # F reads mu only in the head, up to n = C(418,2) - 1 = 87,152, however
    # large a is.
    spans = []
    span = invariants_module._mu_span

    def counted(lo, hi):
        spans.append((lo, hi))
        return span(lo, hi)

    monkeypatch.setattr(invariants_module, "_mu_span", counted)
    head_end = q.triangular(418)
    for a in (29, head_end - 1, head_end, q.triangular(419) + 1, 10**7 + 1, 10**8 - 1, 10**8 + 1):
        for b in (1, 2**62 + 1):
            if math.gcd(a, b) == 1:
                q.frobenius(q.make_semigroup(a, b))
    assert spans and max(hi for _, hi in spans) == head_end - 1


@pytest.mark.slow
@pytest.mark.parametrize("b", [1, 2])
def test_closed_vs_oracle_at_a_100001(b):
    s = q.make_semigroup(10**5 + 1, b)
    assert q.apery_closed(s).elements == q.apery_oracle(s).elements
    assert q.minimal_generators_oracle(s).indices == q.minimal_generators_closed(s).indices


@pytest.mark.parametrize("a", sorted(AT_SCALE))
def test_invariants_inside_bounds_at_scale(a, capsys):
    # F takes the lifts of the head and two level terms, and g sums levels
    # off the head's prefix sums, so neither holds anything of size a: a
    # lift array widened whole would take about 228 MiB at a = 10**7 + 1.
    s = q.make_semigroup(a, 1)
    tracemalloc.start()
    try:
        f, g = q.frobenius(s), q.genus(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    f_low, f_high = q.frobenius_bounds(a, 1)
    g_low, g_high = q.genus_bounds(a, 1)
    with capsys.disabled():
        print(f"\na = {a}: F/a^1.5 = {f / a**1.5:.4f}, g/a^1.5 = {g / a**1.5:.4f}")
    assert (f, g) == AT_SCALE[a]
    assert f_low <= f <= f_high
    assert g_low <= g <= g_high
    assert peak < 8 << 20, peak


@pytest.mark.slow
def test_closed_vs_oracle_to_a_1000_b_50():
    # Every coprime pair with a <= 1000 and b <= 50 (30,637 of them): the
    # closed Apery set against the oracle, and the sweep's row against F
    # and g (Selmer's formula) read off that same oracle array.
    rows = sweep_rows(1000, 50)
    pairs = [(a, b) for a in range(2, 1001) for b in range(1, 51) if math.gcd(a, b) == 1]
    for (a, b), row in zip(pairs, rows, strict=True):
        s = q.make_semigroup(a, b)
        oracle = q.apery_oracle(s).elements
        assert q.apery_closed(s).elements == oracle, (a, b)
        assert row[:2] == (a, b)
        assert row[2] == max(oracle) - a, (a, b)
        assert row[3] == (sum(oracle) - a * (a - 1) // 2) // a, (a, b)


@pytest.mark.slow
def test_decade_profile_to_a_hundred_million(capsys):
    # F/a^1.5 and g/a^1.5 at b = 1 for every a < 10**8, from the sweep's
    # block scan, reported per decade: the least and largest ratio over the
    # decade and the ratio at its last a.  Only the scan's blocks are held.
    a_max = 10**8 - 1
    edges = 10 ** np.arange(10)
    decades, pinned = {}, {}
    tracemalloc.start()
    try:
        for a, _, f, g in invariants_module._scan(a_max, 1):
            first, ratios = int(a[0]), np.stack([f, g]) / a**1.5
            for k in range(len(str(first)) - 1, len(str(int(a[-1])))):
                part = ratios[:, max(0, 10**k - first) : 10 ** (k + 1) - first]
                low, high, end = part.min(axis=1), part.max(axis=1), part[:, -1]
                if k in decades:
                    low = np.minimum(low, decades[k][0])
                    high = np.maximum(high, decades[k][1])
                decades[k] = (low, high, end)
            for x in AT_SCALE:
                if first <= x <= a[-1]:
                    pinned[x] = (int(f[x - first]), int(g[x - first]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pinned == AT_SCALE
    assert peak < 8 << 20, peak
    limits = np.array([math.sqrt(2.0), 2.0 * math.sqrt(2.0) / 3.0])
    ends = np.array([decades[k][2] for k in range(3, 8)])
    fit = np.polyfit(np.log(edges[4:9] - 1.0), np.log(ends - limits), 1)[0]
    with capsys.disabled():
        print("\ndecade       F/a^1.5 least, largest, at end   g/a^1.5 least, largest, at end")
        for k, (low, high, end) in sorted(decades.items()):
            print(f"[1e{k}, 1e{k + 1})  {low[0]:.5f} {high[0]:.5f} {end[0]:.5f}"
                  f"   {low[1]:.5f} {high[1]:.5f} {end[1]:.5f}")
        print(f"fitted exponent of the distance at a = 10^k - 1, k = 4..8:"
              f" F/a^1.5 - sqrt(2): {fit[0]:.3f}, g/a^1.5 - 2 sqrt(2)/3: {fit[1]:.3f}")
