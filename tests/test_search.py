"""Exhaustive searches, the gap function g, and the certificate replays."""

import importlib
import math
import dataclasses
from dataclasses import astuple

import numpy as np
import pytest

import quadsg as q
from helpers import drop_hits_plain, drop_hits_scan, residue_hits_plain, residue_hits_scan


@pytest.fixture(scope="module")
def table():
    """mu to 1400, what the searches read to a_max = 700."""
    return q.MuTable(2 * 700)


def test_drop_search_small(table):
    assert q.search_mu_drop(28).hits == ()
    report = q.search_mu_drop(29)
    assert report.pairs() == ((29, 26),)
    hit = report.hits[0]
    assert hit.mu_n == 13
    assert hit.mu_shifted == 11
    assert hit.drop == 2
    assert report.search_id == "mu-drop"
    assert report.a_max == 29


def test_search_records_take_dataclasses_replace(table):
    # The benchmark's self-test (perfbench/selftest.py) tampers with a drop
    # hit and with both reports through dataclasses.replace, which a named
    # tuple would refuse.
    drop, residue = q.search_mu_drop(485), q.search_embedding_eq(655)
    hit = drop.hits[3]
    bad = dataclasses.replace(hit, mu_n=hit.mu_n + 1, mu_shifted=hit.mu_shifted + 1)
    assert (bad.a, bad.n, bad.mu_n, bad.mu_shifted) == (hit.a, hit.n, hit.mu_n + 1, hit.mu_shifted + 1)
    tampered = dataclasses.replace(drop, hits=drop.hits[:3] + (bad,) + drop.hits[4:])
    assert tampered.hits[3] == bad and tampered.pairs() == drop.pairs()
    shorter = dataclasses.replace(residue, hits=residue.hits[1:])
    assert (shorter.search_id, shorter.a_max) == ("embedding-eq", 655)
    assert shorter.pairs() == residue.pairs()[1:]


def test_drop_search_full(table):
    report = q.search_mu_drop(485)
    assert report.pairs() == tuple(sorted(q.EXPECTED_DROP_PAIRS))
    assert all(hit.drop == 2 for hit in report.hits)


def test_drop_witness_invariant(table):
    # Each hit really does shift down by b = 1 steps of a: the least lift
    # coefficient at n is mu(n) - 2 + 2 = mu(n + a) + 2... checked directly.
    for a, n in q.EXPECTED_DROP_PAIRS:
        s = q.make_semigroup(a, 1)
        assert q.mu_ab_oracle(s, n) == q.mu(n) - 1


def test_eq_search_small(table):
    report = q.search_embedding_eq(13)
    assert report.pairs() == ((10, 6), (13, 7))
    assert q.search_embedding_eq(9).hits == ()
    assert report.search_id == "embedding-eq"


def test_eq_search_full(table):
    report = q.search_embedding_eq(655)
    assert report.pairs() == tuple(sorted(q.EXPECTED_RESIDUE_PAIRS))
    for hit in report.hits:
        assert hit.binom == hit.n * (hit.n - 1) // 2
        assert hit.residue == hit.binom % hit.a
        assert hit.mu_residue == hit.n + 1


@pytest.mark.parametrize("a_max", [4, 29, 300, 700])
def test_scans_match_plain_loops(table, a_max):
    values = table.values.tolist()
    drop = q.search_mu_drop(a_max)
    assert [astuple(h) for h in drop.hits] == drop_hits_plain(values, a_max)
    plain = residue_hits_plain(values, a_max)
    # No bare equation hit violates a side constraint, so the scan checks none.
    assert [hit for hit in plain if hit[-1]] == []
    eq = q.search_embedding_eq(a_max)
    assert [astuple(h) for h in eq.hits] == [hit[:-1] for hit in plain]


def test_pruned_searches_match_scans():
    # The pruned searches read only the pairs the floor of mu leaves; the
    # reference scans read every pair.  Compare at 3000, at a stride of
    # a_max, and on each side of every hit's a, where a miss would show.
    t = q.MuTable(2 * 3000)
    drop, residue = drop_hits_scan(t.values, 3000), residue_hits_scan(t.values, 3000)
    edges = {a - d for a, *_ in drop + residue for d in (0, 1)}
    for a_max in sorted(set(range(4, 3001, 97)) | edges | {3000}):
        got = [astuple(h) for h in q.search_mu_drop(a_max).hits]
        assert got == [hit for hit in drop if hit[0] <= a_max], a_max
        got = [astuple(h) for h in q.search_embedding_eq(a_max).hits]
        assert got == [hit for hit in residue if hit[0] <= a_max], a_max
    assert [hit[:2] for hit in drop] == list(q.EXPECTED_DROP_PAIRS)
    assert [hit[:2] for hit in residue] == list(q.EXPECTED_RESIDUE_PAIRS)


def test_floor_of_mu_in_integers():
    # The premise of both prunes, mu(m) >= f(m) for m >= 1, in the integer
    # form they use: m <= C(mu(m), 2), on the served mu to C(2000,2).
    top = q.triangular(2000)
    k = q.MuTable(top).values[1:].astype(np.int64)
    assert np.all(np.arange(1, top + 1) <= k * (k - 1) // 2)


def test_drop_search_to_search_cap():
    # Nothing past the eight: the drop search over every a <= 10**5 (about
    # 10 ms on a 2-vCPU machine, mu to 2*10**5 included) finds only the
    # known pairs, each a drop of 2.
    report = q.search_mu_drop(100_000)
    assert report.pairs() == q.EXPECTED_DROP_PAIRS
    assert all(hit.drop == 2 for hit in report.hits)


def test_residue_search_to_search_cap():
    # Nothing past the thirty: the residue search over every a <= 10**5
    # (about 0.2 s on a 2-vCPU machine) finds only the tabulated pairs.
    assert q.search_embedding_eq(100_000).pairs() == q.EXPECTED_RESIDUE_PAIRS


def test_search_domains():
    with pytest.raises(ValueError):
        q.search_mu_drop(3)
    with pytest.raises(ValueError):
        q.search_embedding_eq(1)
    with pytest.raises(ValueError):
        q.search_mu_drop(100_001)
    with pytest.raises(ValueError):
        q.search_embedding_eq(100_001)


def test_g_values():
    assert q.g_of(2) == 2.0
    with pytest.raises(ValueError):
        q.g_of(1.5)
    # The function passes within 0.01 of these targets near the quoted spots.
    assert abs(q.g_of(485.92) - 2.0) <= 0.01
    assert abs(q.g_of(655.24) - 1.0) <= 0.01
    assert abs(q.g_of(52.15) - 4.59) <= 0.02


def test_g_is_the_combined_ceiling_less_the_shifted_floor():
    # g_of spells out combined_bound(a - 1) - lower_bound(2a - 1) in its own
    # float order, which the pinned g-analysis output depends on; the two
    # agree to rounding (the largest gap on this grid is about 3e-14).
    grid = [*range(2, 2001), *np.geomspace(2.0, 1e5, 3001).tolist()]
    for a in grid:
        assert abs(q.g_of(a) - (q.combined_bound(a - 1) - q.lower_bound(2 * a - 1))) <= 1e-12, a


def test_g_solve(table):
    root = q.g_solve(2.0, (100, 600))
    assert abs(root - 485.935675) < 1e-4
    assert abs(q.g_of(root) - 2.0) < 1e-9
    root1 = q.g_solve(1.0, (100, 1000))
    assert abs(root1 - 655.268619) < 1e-4
    assert abs(q.g_of(root1) - 1.0) < 1e-9
    # Round trip through an arbitrary interior point.
    target = q.g_of(300.0)
    assert abs(q.g_solve(target, (299, 301)) - 300.0) < 1e-4
    # An endpoint that already solves g = target is returned as it is.
    assert q.g_solve(q.g_of(100.0), (100.0, 600.0)) == 100.0
    assert q.g_solve(q.g_of(600.0), (100.0, 600.0)) == 600.0
    with pytest.raises(ValueError):
        q.g_solve(2.0, (600, 100))
    with pytest.raises(ValueError):
        q.g_solve(10.0, (100, 600))


def test_g_solve_refuses_a_sign_change_without_a_root(monkeypatch):
    # g - target jumps from -1 to +1 at 300.5 and is never within tolerance
    # of 0, so the bisection runs out of steps.
    search = importlib.import_module("quadsg.search")
    monkeypatch.setattr(search, "g_of", lambda x: -1.0 if x < 300.5 else 1.0)
    with pytest.raises(ArithmeticError):
        search.g_solve(0.0, (100.0, 600.0))


def test_g_local_max():
    x1, v1 = q.g_local_max((10, 200))
    x2, v2 = q.g_local_max((40, 60))
    assert abs(x1 - x2) < 1e-4
    assert abs(x1 - 52.1463) < 1e-3
    assert abs(v1 - 4.59358) < 1e-3
    assert v1 >= q.g_of(x1 - 0.01)
    assert v1 >= q.g_of(x1 + 0.01)
    assert abs(v1 - v2) < 1e-9
    with pytest.raises(ValueError):
        q.g_local_max((5.0, 5.0))


def test_g_shape():
    # Increasing up to the peak, decreasing after it, on a half-step grid.
    xs = [2 + 0.5 * k for k in range(int((52.0 - 2) / 0.5) + 1)]
    vals = [q.g_of(x) for x in xs]
    assert all(u < v for u, v in zip(vals, vals[1:]))
    xs = [53 + 0.5 * k for k in range(int((1000 - 53) / 0.5) + 1)]
    vals = [q.g_of(x) for x in xs]
    assert all(u > v for u, v in zip(vals, vals[1:]))


def test_g_analysis():
    report = q.g_analysis()
    assert abs(q.g_of(report.root_at_2) - 2.0) <= 1e-9
    assert abs(q.g_of(report.root_at_1) - 1.0) <= 1e-9
    assert 485 < report.root_at_2 < 486
    assert 655 < report.root_at_1 < 656
    assert abs(report.local_max_value - q.g_of(report.local_max_location)) < 1e-9


def test_exception_certificates(table):
    certs = q.exception_certificates()
    assert len(certs) == 8
    assert all(c.ok for c in certs)
    assert {c.kind for c in certs} == {"mu-drop"}
    assert sorted((c.a, c.n) for c in certs) == sorted(q.EXPECTED_DROP_PAIRS)


def test_decomposition_certificates():
    certs = q.decomposition_certificates()
    assert len(certs) == 48
    assert all(c.ok for c in certs), [c for c in certs if not c.ok]
    kinds = {}
    for c in certs:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds == {
        "residue-table": 30,
        "extra-minimal": 8,
        "extra-table": 10,
    }


def test_tables_consistent():
    assert sorted(q.EXPECTED_DROP_PAIRS) == sorted(
        (c.a, c.n) for c in q.EXCEPTIONAL_CASES
    )
    # Every decomposition row actually sums to its target generator.
    for a, n, coeffs in q.EXTRA_INDEX_ROWS:
        s = q.make_semigroup(a, 1)
        total = sum(mult * q.generator(s, i) for i, mult in coeffs.items())
        assert total == q.generator(s, n), (a, n)
    # The residue-search table and the exceptional list never overlap.
    assert not set(q.EXPECTED_RESIDUE_PAIRS) & set(q.EXPECTED_DROP_PAIRS)
    assert sorted(q.EMBED_DECOMPOSITIONS) == sorted(q.EXPECTED_RESIDUE_PAIRS)
