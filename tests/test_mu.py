"""mu values, the head and its level rule, the fold oracle and bounds."""

import ast
import hashlib
import importlib
import inspect
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import quadsg as q
from quadsg import cli
from helpers import mu_fixpoint_mismatches, mu_table_plain

# The package's function mu shadows the submodule on the package object.
mu_module = importlib.import_module("quadsg.mu")

PLAIN_LIMIT = 3000
GROWTH_LIMIT = 3 * 10**5

# sha256 of the bytes of mu(0..n) as uint16, taken from the chunked fill of
# an earlier table; the head and the level rule must give the same bytes.
TABLE_SHA256 = {
    400: "91e1fb719d04da647ca83622e895a23defd58fe078655dab16873ecc78b25f16",
    4950: "2b6d03b32aaba8f7b560b382856e1f95a95fdededaf9c23789aa00aba9246cb6",
    1_999_000: "553eedac45410c590c1a6a17238107d454bf7b6ca0f6e8892119390cb5c88f6d",
    10**7: "3efc41da00e095bda517377232701618c285bafc8dde9378d7c2a03cf080cf6b",
}
# The same for mu(0..2**22).
STEPPED_SHA256 = "ec4fd833ec032815cb46ddada111fb4c4306d0259e1a7dfa9b4ef849d5268ab5"
LIMIT_SHA256 = "f594d3d5cd6a176d14a0fafeb1c344a6e4dd5658670e494df08a8b163cc05df3"

# Hand-enumerable small cases (every partition written out by hand) and
# the eight larger arguments the exceptional pairs hinge on; all are
# re-verified against the oracle below.
FROZEN_MU = {
    0: 0,
    1: 2,
    2: 4,
    3: 3,
    4: 5,
    5: 7,
    6: 4,
    7: 6,
    8: 8,
    9: 7,
    10: 5,
    12: 8,
    26: 13,
    33: 15,
    41: 16,
    44: 16,
    50: 17,
    53: 18,
    63: 19,
    74: 20,
}


@pytest.fixture(scope="module")
def plain():
    return mu_table_plain(PLAIN_LIMIT)


@pytest.fixture(scope="module")
def table():
    return q.MuTable(PLAIN_LIMIT)


@pytest.fixture(scope="module")
def fold():
    # The fold is the oracle, which shares nothing with the fill;
    # mu_oracle returns its last entry.
    return mu_module._mu_fold(GROWTH_LIMIT)


@pytest.fixture(scope="module")
def largest_optimal(fold):
    # The largest index of an optimal partition of each n, read off the
    # fold: the largest i with mu(n - C(i,2)) + i = mu(n).
    top = np.zeros(len(fold), dtype=np.int64)
    for i in range(2, q.largest_index(GROWTH_LIMIT) + 1):
        t = q.triangular(i)
        top[t:][fold[: len(fold) - t] + i == fold[t:]] = i
    return top


def _levels(n_max):
    # largest_index(n) for n = 0..n_max: level i holds i entries.
    i = np.arange(1, q.largest_index(n_max) + 1)
    return np.repeat(i, i)[: n_max + 1]


def test_frozen_values(plain):
    for n, expected in FROZEN_MU.items():
        assert q.mu(n) == expected
        assert plain[n] == expected


def test_table_matches_plain_dp(table, plain):
    assert np.array_equal(table.values, np.array(plain))


def _sha256(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


def _streamed_sha256(n_max):
    # The digest of mu(0..n_max) hashed one `_mu_span` block at a time.
    digest = hashlib.sha256()
    for lo in range(0, n_max + 1, 1 << 16):
        digest.update(mu_module._mu_span(lo, min(lo + (1 << 16), n_max + 1) - 1).tobytes())
    return digest.hexdigest()


def test_table_bytes_are_pinned():
    assert _streamed_sha256(1 << 22) == STEPPED_SHA256
    for n, digest in TABLE_SHA256.items():
        assert _streamed_sha256(n) == digest, n
    assert _sha256(q.MuTable(1_999_000).values) == TABLE_SHA256[1_999_000]


def test_matches_exhaustive_oracle(fold):
    mismatches = np.flatnonzero(q.MuTable(10**5).values != fold[: 10**5 + 1])
    assert mismatches.size == 0, mismatches[:5]
    for n in FROZEN_MU:
        assert q.mu_oracle(n) == q.mu(n) == fold[n]


@pytest.mark.slow
def test_matches_exhaustive_oracle_to_limit():
    n = q.ORACLE_LIMIT
    mismatches = np.flatnonzero(q.MuTable(n).values != mu_module._mu_fold(n))
    assert mismatches.size == 0, mismatches[:5]


def test_fold_shares_nothing_with_the_fill():
    # The oracle checks the table only if it does not read it: the fold's
    # body names no MuTable state and none of the fill's helpers or rule.
    tree = ast.parse(inspect.getsource(mu_module._mu_fold))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    loaded |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    fill = {"MuTable", "_DEPTH", "_GREEDY", "_head", "_build_head", "_mu_span"}
    assert loaded & fill == set()


@pytest.mark.parametrize("n_max", [10**6, pytest.param(10**7, marks=pytest.mark.slow)])
def test_table_is_the_recursion_fixpoint(n_max):
    # Every entry, checked against mu's recursion rather than the fill's rule.
    mismatches = mu_fixpoint_mismatches(q.MuTable(n_max).values)
    assert mismatches.size == 0, mismatches[:5]


def test_fixpoint_check_finds_a_wrong_entry(table):
    for n, delta in ((0, 1), (1234, 1), (1234, -1), (PLAIN_LIMIT, 1)):
        values = table.values.astype(np.int64)
        values[n] += delta
        assert mu_fixpoint_mismatches(values.astype(np.uint16))[0] == n, (n, delta)


def test_triangular_arguments_exact():
    i = 2
    while q.triangular(i) <= PLAIN_LIMIT:
        assert q.mu(q.triangular(i)) == i
        i += 1


def test_subadditive(table):
    values = table.values[:1501]
    for i in range(1, 751):
        lhs = int(values[i]) + values[i : 1501 - i]
        assert np.all(lhs >= values[2 * i : 1501])


def test_growth_in_random_steps_matches_fold(fold):
    # mu(0..GROWTH_LIMIT) read forward in seeded random steps of `_mu_span`,
    # each step starting right after the last, with a stop at the end of
    # every mark's level: among them C(417,2) - 1, so the next step starts
    # at level 417, the last one below the greedy rule, and C(418,2) - 1,
    # the head's last entry, so the next step is the first past the head.
    # The steps put together hold the fold's value at every n.
    rng = random.Random(8)
    stops = [q.triangular(j) - 1 for j in (10, 100, 400, 417, 418)] + [GROWTH_LIMIT]
    lo, steps = 0, []
    for stop in stops:
        while lo <= stop:
            hi = min(stop, lo + rng.randrange(1 << rng.randint(0, 15)))
            steps.append(mu_module._mu_span(lo, hi))
            lo = hi + 1
    grown = np.concatenate(steps)
    assert len(steps) > len(stops) and len(grown) == GROWTH_LIMIT + 1
    mismatches = np.flatnonzero(grown != fold)
    assert mismatches.size == 0, mismatches[:5]


def test_spans_and_scalar_match_fold(fold):
    # Seeded windows of `_mu_span` that straddle levels 417/418 and later
    # level ends, and lone n, against the fold; the scalar `mu` reads what
    # `_mu_span(n, n)` reads.  Past the fold, windows that end at
    # TABLE_LIMIT, lie inside level 14,142, or cross two or three level ends
    # near 10**7 are checked entry by entry against the scalar `mu`, so each
    # level's slice is clipped to the window at both ends.
    rng = random.Random(35)
    ends = [q.triangular(j) for j in (417, 418, 419, 500, 774)]
    windows = [(t - d, t + e) for t in ends for d, e in ((1, 0), (0, 1), (5, 5), (400, 700))]
    windows += [(lo, lo + rng.randrange(1 << 17)) for lo in rng.sample(range(GROWTH_LIMIT - (1 << 17)), 20)]
    for lo, hi in windows:
        mismatches = np.flatnonzero(mu_module._mu_span(lo, hi) != fold[lo : hi + 1])
        assert mismatches.size == 0, (lo, hi, mismatches[:5])
    assert q.largest_index(q.TABLE_LIMIT) == 14_142
    top, t = q.triangular(14_142), q.triangular(4472)
    far = [(q.TABLE_LIMIT - 3000, q.TABLE_LIMIT), (top + 100, top + 8000), (t - 10, t + 2 * 4472 + 10)]
    far += [(t - 4471 - 5, t + 5), (t + 1, t + 4472 + 4473 - 1)]
    for lo, hi in far:
        span = mu_module._mu_span(lo, hi)
        assert span.tolist() == [q.mu(n) for n in range(lo, hi + 1)], (lo, hi)
    for n in [0, 27, 28, *(t + d for t in ends for d in (-1, 0, 1)), *rng.sample(range(10**8), 200), 10**8]:
        assert q.mu(n) == int(mu_module._mu_span(n, n)[0]), n
        if n <= GROWTH_LIMIT:
            assert q.mu(n) == fold[n], n


def test_fill_window_keeps_an_optimal_partition(largest_optimal):
    # Every n from 28 to 2*10**5 has an optimal partition, read off the
    # fold, whose largest index lies in its level's window i - depth..i
    # under the level rule, so the rule cuts off no optimum.
    n_max = 2 * 10**5
    top = largest_optimal[: n_max + 1]
    level = _levels(n_max)
    depth = np.where(level < mu_module._GREEDY, mu_module._DEPTH, 0)
    n = np.arange(28, n_max + 1)
    outside = n[(top[28:] < (level - depth)[28:]) | (top[28:] > level[28:])]
    assert outside.size == 0, outside[:5]
    assert len(mu_module._head) == q.triangular(mu_module._GREEDY)


def test_head_blocks_read_only_entries_below_them():
    # The block rule of `_build_head`, i1 = min(418, (C(i0,2) + 6) // 4 + 1)
    # from i0 = 8, tiles levels 8..417 in 6 blocks.  The whole rectangle each
    # block reads, extra columns included: rows i0..i1-1, columns 0..i1-2,
    # depths 0..3.  Every source is below the block's first entry C(i0,2)
    # and every part index is at least 2.  Past the head, level i reads the
    # head at r < i <= largest_index(TABLE_LIMIT), inside the head.
    depth = mu_module._DEPTH
    assert depth == 3
    blocks, i0 = [], 8
    while i0 < mu_module._GREEDY:
        i1 = min(mu_module._GREEDY, (q.triangular(i0) + 6) // 4 + 1)
        blocks.append((i0, i1))
        i0 = i1
    assert len(blocks) == 6 and blocks[-1][1] == 418
    for i0, i1 in blocks:
        assert i1 > i0 and i0 - depth >= 2, (i0, i1)
        rows = np.arange(i0, i1)[:, None, None]
        r = np.arange(i1 - 1)[None, :, None]
        d = np.arange(depth + 1)[None, None, :]
        sources = r + d * rows - d * (d + 1) // 2
        assert sources.min() >= 0 and sources.max() < q.triangular(i0), (i0, i1)
    assert q.largest_index(q.TABLE_LIMIT) < q.triangular(418) == len(mu_module._head)


def test_depth_census_from_the_fold(largest_optimal):
    # The census in `_build_head`'s docstring: the least depth that keeps an
    # optimal partition of every n on the level, read off the fold, is 0,
    # 1, 2 and 3 on 303, 97, 9 and 1 of the levels 8..417, and 0 on every
    # level from 418 to 774, the last whole level below 3*10**5.
    i = np.arange(8, 775)
    n = np.arange(q.triangular(8), q.triangular(775))
    need = np.maximum.reduceat(np.repeat(i, i) - largest_optimal[n], i * (i - 1) // 2 - 28)
    assert np.bincount(need[i < 418]).tolist() == [303, 97, 9, 1]
    assert (need[i >= 418] == 0).all()


def _greedy_failing_levels(fold, first, last):
    # The levels i in first..last with mu(C(i,2) + r) != i + mu(r) for some
    # r < i, read off the fold.
    levels = np.arange(first, last + 1)
    n = np.arange(q.triangular(first), q.triangular(last + 1))
    i = np.repeat(levels, levels)
    r = n - i * (i - 1) // 2
    assert (r >= 0).all() and (r < i).all()
    return np.unique(i[fold[n] != i + fold[r]])


def test_greedy_identity_past_level_417(fold):
    # On the fold, mu(C(i,2) + r) = i + mu(r) for every r < i on every
    # level i from 418 to 774, the last whole level below 3*10**5, and it
    # fails on exactly 107 of the levels 8..417, the last at 417.
    failing = _greedy_failing_levels(fold, 8, 774)
    assert len(failing) == 107
    assert failing.max() == 417


def test_greedy_identity_to_the_table_limit(fold):
    # The level rule from level _GREEDY to the top level served, from the
    # fold alone, never the head.  Levels _GREEDY..774 are checked directly;
    # on every level i from 745 to largest_index(TABLE_LIMIT) the proof in
    # `_mu_span`'s docstring needs, with U = i + max mu(0..i-1), lo = C(i,2)
    # and k1 = max(2, 1 + ceil(2*lo/U)), that 2*k1 >= U, that C(i-2,2) +
    # C(U-i+2,2) < lo, and that mu(r+i-1) - mu(r) >= 1 for every r < i.
    assert _greedy_failing_levels(fold, mu_module._GREEDY, 774).size == 0
    top = q.largest_index(q.TABLE_LIMIT)
    assert top == 14_142
    values = fold[: 2 * top + 1]
    i = np.arange(745, top + 1)
    ub = i + np.maximum.accumulate(values)[i - 1]
    lo = i * (i - 1) // 2
    k1 = np.maximum(2, 1 - (-2 * lo // ub))
    assert (2 * k1 >= ub).all()
    assert ((i - 2) * (i - 3) // 2 + (ub - i + 2) * (ub - i + 1) // 2 < lo).all()
    drop = min(int((values[j - 1 : 2 * j - 1] - values[:j]).min()) for j in range(745, top + 1))
    assert drop >= 1, drop


def test_table_is_uint16_within_its_bound():
    # The bounds of `_build_head` and `_mu_span` on every sum they form: mu(m)
    # plus a part index below 418 in the head, i + mu(r) with r < i <=
    # 14,142 past it.
    top = q.largest_index(q.TABLE_LIMIT)
    size = len(mu_module._head)
    assert math.ceil(q.gauss_bound(size - 1)) + mu_module._GREEDY - 1 < 2**16
    assert math.ceil(q.gauss_bound(top - 1)) + top < 2**16
    tracemalloc.start()
    try:
        values = mu_module._mu_span(0, q.triangular(2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.dtype == np.uint16
    # 2 bytes per entry is 4 MB; int64 entries alone would be 16 MB.
    assert peak < 6 << 20, peak


def test_head_build_speed():
    # The whole head, built afresh as at import, serves certify's gather to
    # C(2000,2).  The fastest of three builds is timed, so one scheduling
    # stall does not count.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        head = mu_module._build_head()
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, times
    assert np.array_equal(head, mu_module._head)
    assert q.mu(q.triangular(2000)) == 2000


def test_fill_speed_at_ten_million():
    # Past level 417 every level is the greedy copy of the head, one
    # np.add per level.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = q.MuTable(10**7)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5, times
    assert table.values[q.triangular(4472)] == 4472


def test_level_sums_match_span_sums():
    # `_mu_sum(a)` from level sums against a running sum of mu(0..a-1) over
    # `_mu_span` blocks: around the head's end C(418,2), at level ends, and
    # at seeded a.  `genus` at 10**8 - 1 is pinned in the next test.
    rng = random.Random(36)
    ends = [q.triangular(j) + d for j in (8, 100, 417, 418, 419, 420, 1000, 4472) for d in (-1, 0, 1)]
    targets = sorted({1, 2, *ends, *rng.sample(range(1, 10**7), 30), 10**7 + 1})
    total = lo = 0
    for a in targets:
        while lo < a:
            hi = min(a, lo + (1 << 20))
            total += int(mu_module._mu_span(lo, hi - 1).sum(dtype=np.int64))
            lo = hi
        assert mu_module._mu_sum(a) == total, a


def test_memory_stays_flat_at_the_limit():
    # The scalar mu at 10**8 reads the head at r < 14,142, the Frobenius
    # number at a = 10**8 - 1 takes the lifts of the head and two level
    # terms, and the genus sums levels off the head's prefix sums: none
    # holds anything of size a.
    s = q.make_semigroup(10**8 - 1, 1)
    tracemalloc.start()
    try:
        assert q.mu(10**8) == 14_142 + q.mu(10**8 - q.triangular(14_142))
        f, g = q.frobenius(s), q.genus(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (f, g) == (1_433_399_976_564, 953_011_630_009)
    assert peak < 8 << 20, peak


@pytest.mark.slow
def test_full_table_at_limit():
    assert _streamed_sha256(q.TABLE_LIMIT) == LIMIT_SHA256
    values = q.MuTable(q.TABLE_LIMIT).values
    assert _sha256(values) == LIMIT_SHA256
    # Every level from 8 to 417 fits in a block of its own at depth 3 (see
    # `_build_head`).
    top = q.largest_index(q.TABLE_LIMIT)
    assert top == 14_142
    i = np.arange(8, mu_module._GREEDY)
    assert (4 * i - 7 < i * (i - 1) // 2).all()
    i = np.arange(2, q.largest_index(q.TABLE_LIMIT) + 1, dtype=np.int64)
    assert np.array_equal(values[i * (i - 1) // 2], i)
    # The envelope at every n, a block of 2**20 at a time.
    slack = math.inf
    for lo in range(1, q.TABLE_LIMIT + 1, 1 << 20):
        n = np.arange(lo, min(lo + (1 << 20), q.TABLE_LIMIT + 1))
        lower, gauss, combined = mu_module._envelope(n)
        m = values[lo : lo + len(n)]
        assert (np.ceil(lower - 1e-9) <= m).all(), lo
        ceiling = np.minimum(gauss, combined) + 1e-9
        assert (m <= ceiling).all(), lo
        slack = min(slack, float((ceiling - m).min()))
    print(f"\nsmallest ceiling slack up to {q.TABLE_LIMIT}: {slack:.3f}")


def test_mu_function_extends_given_table():
    # mu reads the head: n's own entry below level 418, r's for
    # n = C(i,2) + r from there on.
    assert q.mu(26) == 13
    assert q.mu(q.triangular(5000) + 1000) == 5000 + q.mu(1000)
    with pytest.raises(ValueError):
        q.mu(-1)


def test_values_view_read_only(table):
    with pytest.raises(ValueError):
        table.values[0] = 99


def test_spans_are_read_only():
    # Spans inside the head, across its end C(418,2) = 87,153 and past it
    # are read-only, and a snapshot's values are the span mu(0..n).
    size = len(mu_module._head)
    assert size == q.triangular(418) == 87_153
    for lo, hi in ((0, 10), (5, size - 1), (size - 5, size + 5), (0, size), (size, size + 1000), (10**7, 10**7 + 10)):
        span = mu_module._mu_span(lo, hi)
        with pytest.raises(ValueError):
            span[0] = 0
    for n in (10, size - 1, size, size + 1000):
        table = q.MuTable(n)
        assert list(vars(table)) == ["values"]
        values = table.values
        assert not values.flags.writeable and values.dtype == np.uint16
        assert np.array_equal(values, mu_module._mu_span(0, n)), n


def test_getitem_bounds():
    with pytest.raises(ValueError):
        q.MuTable(-1)


def test_oracle_domain():
    with pytest.raises(ValueError):
        q.mu_oracle(-1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limited"):
            q.mu_oracle(q.ORACLE_LIMIT + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert q.mu_oracle(0) == 0


def test_triangular_and_inverse():
    assert [q.triangular(i) for i in range(6)] == [0, 0, 1, 3, 6, 10]
    with pytest.raises(ValueError):
        q.triangular(-1)
    with pytest.raises(ValueError):
        q.inverse_triangular(-0.5)
    for x in range(1, 2001):
        assert abs(q.inverse_triangular(q.triangular(x)) - x) <= 1e-9


def test_largest_index():
    assert q.largest_index(0) == 1
    assert q.largest_index(1) == 2
    assert q.largest_index(2) == 2
    assert q.largest_index(3) == 3
    assert q.largest_index(6) == 4
    for i in range(2, 2001):
        t = q.triangular(i)
        assert q.largest_index(t) == i
        assert q.largest_index(t - 1) == i - 1
    with pytest.raises(ValueError):
        q.largest_index(-1)


def test_bound_values():
    assert q.lower_bound(1) == 2.0
    assert q.lower_bound(3) == 3.0
    assert q.gauss_bound(0) == 3.0
    assert q.gauss_bound(3) == 6.0
    assert q.gauss_bound(1) == pytest.approx(4.372281323, abs=1e-8)
    assert q.combined_bound(1) == 5.0
    # The combined ceiling is not uniformly below the three-part one.
    assert q.combined_bound(2) > q.gauss_bound(2)
    with pytest.raises(ValueError):
        q.lower_bound(0)
    with pytest.raises(ValueError):
        q.combined_bound(0)
    with pytest.raises(ValueError):
        q.gauss_bound(-1)


def test_envelope_sandwich():
    for n in range(1, 1001):
        m = q.mu(n)
        assert q.lower_bound(n) - 1e-9 <= m
        assert m <= min(q.gauss_bound(n), q.combined_bound(n)) + 1e-9


def bound_rows(n_max):
    """The `bounds` rows (n, mu, lower, gauss, combined) off the column blocks."""
    return [row for block in mu_module._bounds_columns(n_max) for row in zip(*block)]


def test_envelope_equals_the_scalar_bounds():
    # Not merely close: `bounds` prints the array floats where the scalar
    # functions are the public API.
    rng = random.Random(17)
    ns = [*range(1, 10**4 + 1), *(rng.randrange(1, 10**8) for _ in range(10**4)), 10**8]
    lower, gauss, combined = (column.tolist() for column in mu_module._envelope(np.array(ns)))
    assert lower == [q.lower_bound(n) for n in ns]
    assert gauss == [q.gauss_bound(n) for n in ns]
    assert combined == [q.combined_bound(n) for n in ns]


def test_bound_profiles_shape():
    rows = bound_rows(10)
    assert [row[0] for row in rows] == list(range(1, 11))
    assert rows[0] == (1, 2, 2.0, q.gauss_bound(1), 5.0)
    assert rows[9][1] == 5
    assert rows[9][2] == 5.0
    # Out-of-range n_max is refused at the call, before any row is made.
    with pytest.raises(ValueError):
        mu_module._bounds_columns(0)
    with pytest.raises(ValueError, match="limited"):
        mu_module._bounds_columns(q.TABLE_LIMIT + 1)


def test_bound_profiles_come_in_full_chunks():
    # Blocks are cut at `_BLOCK // 4` rows and n_max alone, and each block's
    # mu column is the span of its n.
    blocks = list(mu_module._bounds_columns(100_000))
    rows = mu_module._BLOCK // 4
    assert rows == 1 << 14
    assert [len(block[0]) for block in blocks] == [rows] * 6 + [100_000 - 6 * rows]
    assert [m for block in blocks for m in block[1]] == mu_module._mu_span(1, 100_000).tolist()


def test_bounds_csv(capsys):
    # The bounds CSV is written by the CLI renderer from `_bounds_columns`.
    assert cli.run(["bounds", "--n-max", "12", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "n,mu,lower,gauss,combined"
    assert lines[1] == "1,2,2,4.37228132,5"
    assert len(lines) == 13
    assert text.endswith("\n")
    row10 = lines[10].split(",")
    assert row10[:3] == ["10", "5", "5"]


def test_readers_refuse_past_limit_before_allocating():
    # Every reader of mu refuses an n past TABLE_LIMIT before allocating
    # anything of its size.
    assert q.TABLE_LIMIT >= 2 * 10**7
    message = f"mu table is limited to n <= {q.TABLE_LIMIT}, asked for {10**10}"
    tracemalloc.start()
    try:
        for read in (q.MuTable, q.mu, lambda n: mu_module._mu_span(0, n), lambda n: mu_module._mu_sum(n + 1)):
            with pytest.raises(ValueError) as error:
                read(10**10)
            assert str(error.value) == message
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cli_mu_past_limit_is_domain_error(capsys):
    assert cli.run(["mu", "--n", "10000000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")

