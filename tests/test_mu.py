"""mu values, the growable table, the fold oracle, bounds, and the cache."""

import importlib
import math
import tracemalloc
import zlib

import numpy as np
import pytest

import quadsg as q
from quadsg import cli
from helpers import mu_table_plain

# The package's function mu shadows the submodule on the package object.
mu_module = importlib.import_module("quadsg.mu")

PLAIN_LIMIT = 3000

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


def test_frozen_values(table, plain):
    for n, expected in FROZEN_MU.items():
        assert table[n] == expected
        assert plain[n] == expected


def test_table_matches_plain_dp(table, plain):
    assert np.array_equal(table.values, np.array(plain))


def test_matches_exhaustive_oracle(table):
    # The fold is the unwindowed oracle; mu_oracle returns its last entry.
    fold = mu_module._mu_fold(10**5)
    mismatches = np.flatnonzero(q.MuTable(10**5).values != fold)
    assert mismatches.size == 0, mismatches[:5]
    for n in FROZEN_MU:
        assert q.mu_oracle(n) == table[n] == fold[n]


@pytest.mark.slow
def test_matches_exhaustive_oracle_to_limit():
    n = q.ORACLE_LIMIT
    mismatches = np.flatnonzero(q.MuTable(n).values != mu_module._mu_fold(n))
    assert mismatches.size == 0, mismatches[:5]


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


def test_mu_function_extends_given_table():
    own = q.MuTable()
    assert q.mu(26, own) == 13
    assert own.n_max >= 26
    with pytest.raises(ValueError):
        q.mu(-1, own)


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


def test_bound_profiles_shape(table):
    profiles = q.bound_profiles(10, table)
    assert [p.n for p in profiles] == list(range(1, 11))
    assert profiles[0] == q.BoundProfile(1, 2, 2.0, q.gauss_bound(1), 5.0)
    assert profiles[9].mu == 5
    assert profiles[9].lower == 5.0
    with pytest.raises(ValueError):
        q.bound_profiles(0, table)


def test_bounds_csv(monkeypatch, capsys):
    # The bounds CSV is written by the CLI renderer from bound_profiles.
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    monkeypatch.delenv("QUADSG_MEMO_PATH", raising=False)
    assert cli.run(["bounds", "--n-max", "12", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "n,mu,lower,gauss,combined"
    assert lines[1] == "1,2,2,4.37228132,5"
    assert len(lines) == 13
    assert text.endswith("\n")
    row10 = lines[10].split(",")
    assert row10[:3] == ["10", "5", "5"]


def test_cache_roundtrip(tmp_path, table):
    path = tmp_path / "mu.bin"
    q.save_table(table, str(path))
    loaded = q.load_table(str(path))
    assert loaded.n_max == table.n_max
    assert np.array_equal(loaded.values, table.values)


def test_cache_layout(tmp_path):
    small = q.MuTable(5)
    path = tmp_path / "mu.bin"
    q.save_table(small, str(path))
    blob = path.read_bytes()
    assert blob[:4] == b"QSMU"
    assert blob[4] == 2
    assert int.from_bytes(blob[5:13], "little") == 5
    assert int.from_bytes(blob[13:17], "little") == zlib.crc32(blob[17:])
    assert len(blob) == 17 + 8 * 6
    assert int.from_bytes(blob[17:25], "little") == 0
    assert int.from_bytes(blob[25:33], "little") == 2
    # Written beside the target and renamed over it: nothing left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["mu.bin"]


def test_cache_rejects_corruption(tmp_path):
    small = q.MuTable(40)
    path = tmp_path / "mu.bin"
    q.save_table(small, str(path))
    good = path.read_bytes()

    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(ValueError):
        q.load_table(str(path))

    path.write_bytes(good[:4] + bytes([9]) + good[5:])
    with pytest.raises(ValueError):
        q.load_table(str(path))

    path.write_bytes(good[:-8])
    with pytest.raises(ValueError):
        q.load_table(str(path))

    # Tamper with the value at a triangular position.
    tampered = bytearray(good)
    pos = 17 + 8 * q.triangular(7)
    tampered[pos : pos + 8] = (99).to_bytes(8, "little")
    path.write_bytes(bytes(tampered))
    with pytest.raises(ValueError):
        q.load_table(str(path))


def test_cache_rejects_interior_corruption(tmp_path):
    table = q.MuTable(10_000)
    path = tmp_path / "mu.bin"
    q.save_table(table, str(path))
    blob = bytearray(path.read_bytes())
    # The entry for n = 9999 is second from the end; 164 ^ 0b111 = 163.
    pos = len(blob) - 16
    assert blob[pos] == table[9999] == 164
    blob[pos] ^= 0b111
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        q.load_table(str(path))


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
    monkeypatch.delenv("QUADSG_MEMO_PATH", raising=False)
    assert cli.run(["mu", "--n", "10000000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_cli_rebuilds_version_1_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    path = tmp_path / "mu.cache"
    values = q.MuTable(40).values.astype("<u8").tobytes()
    path.write_bytes(b"QSMU" + bytes([1]) + (40).to_bytes(8, "little") + values)
    monkeypatch.setenv("QUADSG_MEMO_PATH", str(path))
    assert cli.run(["mu", "--n", "26"]) == 0
    out, err = capsys.readouterr()
    assert out == "13\n"
    assert "warning: ignoring mu cache" in err
    assert q.load_table(str(path)).n_max >= 26
