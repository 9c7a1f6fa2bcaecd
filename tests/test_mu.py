"""mu values, the growable table, the fold oracle and bounds."""

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

# sha256 of MuTable(n).values.tobytes(), taken from the chunked fill that
# came before the level blocks; the level blocks must write the same bytes.
TABLE_SHA256 = {
    400: "91e1fb719d04da647ca83622e895a23defd58fe078655dab16873ecc78b25f16",
    4950: "2b6d03b32aaba8f7b560b382856e1f95a95fdededaf9c23789aa00aba9246cb6",
    1_999_000: "553eedac45410c590c1a6a17238107d454bf7b6ca0f6e8892119390cb5c88f6d",
    10**7: "3efc41da00e095bda517377232701618c285bafc8dde9378d7c2a03cf080cf6b",
}
# The same for one table grown by ensure to each of these n in turn.
GROWTH_STEPS = (1, 2, 3, 100, 2015, 2016, 2017, 5000, 70_000, 1_999_000, 1 << 22)
GROWN_SHA256 = "ec4fd833ec032815cb46ddada111fb4c4306d0259e1a7dfa9b4ef849d5268ab5"
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


def test_frozen_values(table, plain):
    for n, expected in FROZEN_MU.items():
        assert table[n] == expected
        assert plain[n] == expected


def test_table_matches_plain_dp(table, plain):
    assert np.array_equal(table.values, np.array(plain))
    # The head the fill copies rather than computes.
    assert list(mu_module._HEAD) == plain[: len(mu_module._HEAD)]


def _sha256(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_table_bytes_are_pinned():
    for n, digest in TABLE_SHA256.items():
        assert _sha256(q.MuTable(n).values) == digest, n
    grown = q.MuTable()
    for n in GROWTH_STEPS:
        grown.ensure(n)
    assert _sha256(grown.values) == GROWN_SHA256


def test_matches_exhaustive_oracle(table, fold):
    mismatches = np.flatnonzero(q.MuTable(10**5).values != fold[: 10**5 + 1])
    assert mismatches.size == 0, mismatches[:5]
    for n in FROZEN_MU:
        assert q.mu_oracle(n) == table[n] == fold[n]


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
    fill = {"MuTable", "_blocks", "_fill_block", "_DEPTH", "_GREEDY", "_HEAD", "_shared"}
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


def test_triangular_arguments_exact(table):
    i = 2
    while q.triangular(i) <= PLAIN_LIMIT:
        assert table[q.triangular(i)] == i
        i += 1


def test_subadditive(table):
    values = table.values[:1501]
    for i in range(1, 751):
        lhs = int(values[i]) + values[i : 1501 - i]
        assert np.all(lhs >= values[2 * i : 1501])


def test_extension_matches_fresh_build():
    grown = q.MuTable()
    for target in (1, 7, 50, 512, 1300):
        grown.ensure(target)
    fresh = q.MuTable(grown.n_max)
    assert np.array_equal(grown.values, fresh.values)


def test_growth_in_random_steps_matches_fold(fold):
    # Each pass grows one table by seeded random ensure steps and ends a
    # fill exactly at every mark, so the next fill starts right after it:
    # level starts C(j,2) - 1, C(j,2) and C(j,2) + 1, two of them the
    # starts of blocks of a fresh fill, the first past 2**14 and 2**17.
    # The random steps stop at a quarter of each mark, so the fill that
    # ends at the mark spans many blocks, and most fills start mid-level.
    starts = [start for start, _, _ in mu_module._blocks(28, GROWTH_LIMIT)]
    block_starts = [next(s for s in starts if s > m) for m in (1 << 14, 1 << 17)]
    rng = random.Random(8)
    for d in (-1, 0, 1):
        marks = sorted([q.triangular(j) + d for j in (10, 100, 400, 774)] + [s + d for s in block_starts])
        grown = q.MuTable()
        for mark in marks:
            while grown.n_max < mark // 4:
                grown.ensure(rng.randint(grown.n_max + 1, mark // 4))
            grown.ensure(mark)
            assert grown.n_max == mark
        grown.ensure(GROWTH_LIMIT)
        mismatches = np.flatnonzero(grown.values[: GROWTH_LIMIT + 1] != fold)
        assert mismatches.size == 0, (d, mismatches[:5])


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_fill_at_many_chunk_boundaries(chunk, fold, monkeypatch):
    # Blocks capped at `chunk` entries: one level per block, or a few
    # where the block cut allows, so the block depth and the cut are taken
    # afresh at every level, each entry checked against the fold.
    monkeypatch.setattr(mu_module, "_BLOCK", chunk)
    n_max = 4000
    for start, end, _ in mu_module._blocks(28, n_max):
        assert end - start < chunk or q.largest_index(start) == q.largest_index(end)
    mismatches = np.flatnonzero(q.MuTable(n_max).values != fold[: n_max + 1])
    assert mismatches.size == 0, (chunk, mismatches[:5])


@pytest.mark.parametrize("chunk", [None, 7])
def test_fill_window_keeps_an_optimal_partition(chunk, largest_optimal, monkeypatch):
    # Every n from 28 to 2*10**5 has an optimal partition, read off the
    # fold, whose largest index lies in its level's window i - depth..i
    # under the fill's rule, so the rule cuts off no optimum; nor does the
    # depth of the block the fill puts the level in, with blocks capped at
    # `chunk` entries.
    if chunk is not None:
        monkeypatch.setattr(mu_module, "_BLOCK", chunk)
    n_max = 2 * 10**5
    top = largest_optimal[: n_max + 1]
    level = _levels(n_max)
    depth = np.where(level < mu_module._GREEDY, mu_module._DEPTH, 0)
    n = np.arange(28, n_max + 1)
    outside = n[(top[28:] < (level - depth)[28:]) | (top[28:] > level[28:])]
    assert outside.size == 0, outside[:5]
    block_k = np.zeros(n_max + 1, dtype=np.int64)
    for start, end, d in mu_module._blocks(28, n_max):
        block_k[start : end + 1] = level[start : end + 1] - d
    short = np.flatnonzero(top[28:] < block_k[28:]) + 28
    assert short.size == 0, (chunk, short[:5])


def _walk(steps):
    # The blocks the fill writes for a table grown to each of steps in turn.
    lo = 1
    for hi in steps:
        yield from mu_module._blocks(max(lo, 28), hi)
        lo = hi + 1


@pytest.mark.parametrize(
    "steps", [(q.triangular(2000),), (10**7,), GROWTH_STEPS], ids=["c2000", "1e7", "grown"]
)
def test_every_block_reads_only_entries_below_it(steps):
    # The whole rectangle each block reads, extra columns included: rows
    # i0..i, columns 0..i-1, depths 0..D.  Every source is below the
    # block's first entry, every part index is at least 2, and the blocks
    # tile 28..n_max with at most _BLOCK entries or one level each.
    last = 27
    for start, end, depth in _walk(steps):
        assert start == last + 1
        last = end
        i0, i = q.largest_index(start), q.largest_index(end)
        assert end + 1 - start <= mu_module._BLOCK or i == i0, (start, end)
        assert i0 - depth >= 2, (start, depth)
        rows = np.arange(i0, i + 1)[:, None, None]
        r = np.arange(i)[None, :, None]
        d = np.arange(depth + 1)[None, None, :]
        sources = r + d * rows - d * (d + 1) // 2
        assert sources.min() >= 0 and sources.max() < start, (start, end, depth)
    assert last == steps[-1]


def test_fill_work_counts_at_c_2000():
    # certify's fill.  The chunked fill before the level blocks walked 163
    # chunks and 2,696 part-index passes.
    blocks = list(mu_module._blocks(28, q.triangular(2000)))
    assert len(blocks) == 36
    assert sum(depth + 1 for *_, depth in blocks) == 57


def test_depth_census_from_the_fold(largest_optimal):
    # The census in `MuTable`'s docstring: the least depth that keeps an
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
    # The fill's rule from level _GREEDY to the table's top, from the fold
    # alone, never the table.  Levels _GREEDY..774 are checked directly;
    # on every level i from 745 to largest_index(TABLE_LIMIT) the proof in
    # `MuTable`'s docstring needs, with U = i + max mu(0..i-1), lo = C(i,2)
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
    # The MuTable docstring's bound on every sum the fill forms.
    assert math.ceil(q.gauss_bound(q.TABLE_LIMIT)) + q.largest_index(q.TABLE_LIMIT) < 2**16
    tracemalloc.start()
    try:
        table = q.MuTable(q.triangular(2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.values.dtype == np.uint16
    # 2 bytes per entry is 4 MB; int64 entries alone would be 16 MB.
    assert peak < 6 << 20, peak


def test_fill_speed_at_c_2000():
    # certify fills the table to C(2000,2) in a fresh process.  The fastest
    # of three fresh fills is timed, so one scheduling stall does not count.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = q.MuTable(q.triangular(2000))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.3, times
    assert table[q.triangular(2000)] == 2000


def test_fill_speed_at_ten_million():
    # Past level 417 every level takes one part index, one pass per block;
    # the linear bound alone, in the chunked fill before the level blocks,
    # took about 1.1 s on a 2-vCPU machine.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = q.MuTable(10**7)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5, times
    assert table[q.triangular(4472)] == 4472


@pytest.mark.slow
def test_full_table_at_limit():
    values = q.MuTable(q.TABLE_LIMIT).values
    assert _sha256(values) == LIMIT_SHA256
    # Every level from 8 to the last, 14,142, fits in a block of its own
    # at the depth of the fill's rule (see `MuTable`).
    top = q.largest_index(q.TABLE_LIMIT)
    assert top == 14_142
    i = np.arange(8, top + 1)
    depth = np.where(i < mu_module._GREEDY, mu_module._DEPTH, 0)
    assert ((depth + 1) * i - 1 - depth * (depth + 1) // 2 < i * (i - 1) // 2).all()
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


def test_mu_function_extends_given_table(monkeypatch):
    # mu reads the process-wide table and grows it on demand.
    monkeypatch.setattr(mu_module, "_shared", q.MuTable())
    assert q.mu(26) == 13
    assert q.shared_table().n_max >= 26
    with pytest.raises(ValueError):
        q.mu(-1)


def test_values_view_read_only(table):
    with pytest.raises(ValueError):
        table.values[0] = 99


def test_getitem_bounds(table):
    with pytest.raises(ValueError):
        table[-1]
    with pytest.raises(IndexError):
        table[table.n_max + 1]
    with pytest.raises(ValueError):
        q.MuTable(-1)
    with pytest.raises(ValueError):
        q.MuTable().ensure(-1)


def test_ensure_below_n_max_keeps_the_table():
    table = q.MuTable(10)
    before = table.values.copy()
    assert table.ensure(5) is table
    assert table.n_max == 10
    assert np.array_equal(table.values, before)


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


def test_envelope_sandwich(table):
    for n in range(1, 1001):
        m = table[n]
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


def test_bound_profiles_shape(monkeypatch):
    monkeypatch.setattr(mu_module, "_shared", q.MuTable())
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


def test_bound_profiles_grow_table_to_n_max(monkeypatch):
    # The call fills the table to exactly n_max: growing it by doubling
    # from n = 1 would end it at n = 2**20.
    monkeypatch.setattr(mu_module, "_shared", q.MuTable())
    assert len(bound_rows(600_000)) == 600_000
    assert q.shared_table().n_max == 600_000
    # A table already past n_max still ends the rows at n_max.
    assert len(bound_rows(10)) == 10


def test_bound_profiles_come_in_full_chunks(monkeypatch):
    # Blocks are cut at `_BLOCK // 4` rows and n_max alone.
    monkeypatch.setattr(mu_module, "_shared", q.MuTable())
    sizes = [len(block[0]) for block in mu_module._bounds_columns(100_000)]
    rows = mu_module._BLOCK // 4
    assert rows == 1 << 14
    assert sizes == [rows] * 6 + [100_000 - 6 * rows]


def test_bounds_csv(monkeypatch, capsys):
    # The bounds CSV is written by the CLI renderer from `_bounds_columns`.
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    assert cli.run(["bounds", "--n-max", "12", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "n,mu,lower,gauss,combined"
    assert lines[1] == "1,2,2,4.37228132,5"
    assert len(lines) == 13
    assert text.endswith("\n")
    row10 = lines[10].split(",")
    assert row10[:3] == ["10", "5", "5"]


def test_ensure_refuses_past_limit_before_allocating():
    assert q.TABLE_LIMIT >= 2 * 10**7
    table = q.MuTable(10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limited"):
            table.ensure(10**10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert table.n_max == 10


def test_cli_mu_past_limit_is_domain_error(monkeypatch, capsys):
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    assert cli.run(["mu", "--n", "10000000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")

