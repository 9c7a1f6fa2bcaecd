"""Acceptance gate: twelve pass/fail checks over the whole package.

Each test prints exactly one line, "criterion NN: PASS|FAIL (detail)", to
the real stdout so the verdicts survive pytest's capture, then asserts.
Criterion 11 is expected to fail: the recorded crossing locations for the
bound-gap function do not match where the function actually crosses, even
though its values at the recorded locations are on target. The assertion
states both numbers; see the test body.
"""

import importlib
import math
import time

import numpy as np
import pytest

import quadsg as q

_BUILT = {}


@pytest.fixture
def report(capfd):
    """Prints one verdict line straight to the terminal, past capture."""

    def _line(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            # The leading break detaches the line from pytest's -v prefix.
            print(f"\ncriterion {num:02d}: {verdict} ({detail})", flush=True)

    return _line


@pytest.fixture(scope="module")
def big_table():
    """mu to C(2000,2), installed as the process-wide table the package reads."""
    if "table" not in _BUILT:
        _BUILT["table"] = q.MuTable(q.triangular(2000))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("quadsg.mu"), "_shared", _BUILT["table"])
        yield _BUILT["table"]


def _grid(a_max: int, b_max: int):
    return [
        (a, b)
        for a in range(2, a_max + 1)
        for b in range(1, b_max + 1)
        if math.gcd(a, b) == 1
    ]


def test_criterion_01_mu_base_values(report):
    start = time.perf_counter()
    table = q.MuTable(q.triangular(2000))
    bad = []
    if table[0] != 0 or table[1] != 2 or table[2] != 4:
        bad.append("anchors")
    bad += [i for i in range(2, 2001) if table[q.triangular(i)] != i]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    report(1, ok, f"anchors and 1999 triangular identities, {elapsed:.3f}s")
    _BUILT["table"] = table
    assert not bad, f"mismatches at {bad[:5]}"
    assert elapsed < 1.0, f"build and check took {elapsed:.3f}s, budget 1s"


def test_criterion_02_oracle_equivalence(big_table, report):
    start = time.perf_counter()
    fold = importlib.import_module("quadsg.mu")._mu_fold(10**4)
    bad = np.flatnonzero(big_table.values[: 10**4 + 1] != fold).tolist()
    bad += [n for n in range(301) if big_table[n] != q.mu_oracle(n)]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    report(2, ok, f"recursion equals fold oracle for n <= 10000, {elapsed:.3f}s")
    assert not bad, f"oracle disagrees at {bad[:5]}"
    assert elapsed < 30.0


def test_criterion_03_bound_sandwich(big_table, report):
    start = time.perf_counter()
    slack = 1e-9
    bad = []
    for n in range(1, 2001):
        value = big_table[n]
        low = q.lower_bound(n)
        high = min(q.gauss_bound(n), q.combined_bound(n))
        if not (low - slack <= value <= high + slack):
            bad.append(n)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    report(3, ok, f"envelope holds for 1 <= n <= 2000, {elapsed:.3f}s")
    assert not bad, f"envelope violated at {bad[:5]}"
    assert elapsed < 1.0


def test_criterion_04_drop_search(big_table, report):
    start = time.perf_counter()
    result = q.search_mu_drop(485)
    elapsed = time.perf_counter() - start
    pairs_ok = result.pairs() == tuple(sorted(q.EXPECTED_DROP_PAIRS))
    drops_ok = all(hit.drop == 2 for hit in result.hits)
    ok = pairs_ok and drops_ok and elapsed < 5.0
    report(4, ok, f"search to 485 found {len(result.hits)} pairs, {elapsed:.3f}s")
    assert pairs_ok, f"got {result.pairs()}"
    assert drops_ok
    assert elapsed < 5.0


def test_criterion_05_exception_certificates(big_table, report):
    start = time.perf_counter()
    certs = q.exception_certificates()
    failed = [c for c in certs if not c.ok]
    s = q.make_semigroup(29, 1)
    explicit = (
        q.contains(s, 374)
        and not q.contains(s, 345)
        and q.generator(s, 11) == 374
        and 12 * 29 + 26 * 1 == 374
    )
    elapsed = time.perf_counter() - start
    ok = len(certs) == 8 and not failed and explicit and elapsed < 5.0
    report(5, ok, f"8 certificates verified, 374 in S(29,1) and 345 not, {elapsed:.3f}s")
    assert len(certs) == 8
    assert not failed, failed
    assert explicit
    assert elapsed < 5.0


def test_criterion_06_lift_closed_form(big_table, report):
    start = time.perf_counter()
    bad = []
    for a, b in _grid(100, 5):
        s = q.make_semigroup(a, b)
        for n in range(a):
            if q.mu_ab_closed(s, n) != q.mu_ab_oracle(s, n):
                bad.append((a, b, n))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    report(6, ok, f"closed form equals oracle on the (a,b) grid, {elapsed:.3f}s")
    assert not bad, f"first mismatches {bad[:5]}"
    assert elapsed < 60.0


def test_criterion_07_apery_frobenius_genus(big_table, report):
    start = time.perf_counter()
    grid = _grid(100, 5)
    covered = set(grid)
    assert all(pair in covered for pair in q.EXCEPTIONAL_PAIRS)
    bad = []
    for a, b in grid:
        s = q.make_semigroup(a, b)
        if q.apery_closed(s) != q.apery_oracle(s):
            bad.append(("apery", a, b))
        if q.frobenius(s) != q.frobenius_oracle(s):
            bad.append(("frobenius", a, b))
        if q.genus(s) != q.genus_oracle(s):
            bad.append(("genus", a, b))
    s21 = q.make_semigroup(2, 1)
    anchors = (
        q.apery_closed(s21).elements == (0, 5)
        and q.frobenius(s21) == 3
        and q.genus(s21) == 2
    )
    elapsed = time.perf_counter() - start
    ok = not bad and anchors and elapsed < 120.0
    report(7, ok, f"invariants match brute force on the grid, {elapsed:.3f}s")
    assert not bad, f"first mismatches {bad[:5]}"
    assert anchors
    assert elapsed < 120.0


def test_criterion_08_invariant_bounds(big_table, report):
    start = time.perf_counter()
    slack = 1e-9
    bad = []
    for a, b in _grid(100, 5):
        if (a, b) in q.EXCEPTIONAL_PAIRS:
            continue
        s = q.make_semigroup(a, b)
        f_lo, f_hi = q.frobenius_bounds(a, b)
        g_lo, g_hi = q.genus_bounds(a, b)
        if not f_lo - slack <= q.frobenius(s) <= f_hi + slack:
            bad.append(("frobenius", a, b))
        if not g_lo - slack <= q.genus(s) <= g_hi + slack:
            bad.append(("genus", a, b))
    f_lo, _ = q.frobenius_bounds(2, 1)
    exact = q.frobenius(q.make_semigroup(2, 1)) == f_lo == 3.0
    elapsed = time.perf_counter() - start
    ok = not bad and exact and elapsed < 10.0
    report(8, ok, f"both sandwiches hold off the exceptional pairs, {elapsed:.3f}s")
    assert not bad, f"first violations {bad[:5]}"
    assert exact
    assert elapsed < 10.0


def test_criterion_09_embedding_dimension(report):
    start = time.perf_counter()
    bad = []
    for a, b in _grid(120, 4):
        s = q.make_semigroup(a, b)
        if q.embedding_dimension(a, b) != len(q.minimal_generators_oracle(s).indices):
            bad.append((a, b))
    anchors = q.embedding_dimension(29, 1) == 9 and q.embedding_dimension(2, 1) == 2
    elapsed = time.perf_counter() - start
    ok = not bad and anchors and elapsed < 120.0
    report(9, ok, f"dimension equals oracle count on the grid, {elapsed:.3f}s")
    assert not bad, f"first mismatches {bad[:5]}"
    assert anchors
    assert elapsed < 120.0


def test_criterion_10_embedding_search(big_table, report):
    start = time.perf_counter()
    result = q.search_embedding_eq(655)
    pairs_ok = result.pairs() == tuple(sorted(q.EXPECTED_RESIDUE_PAIRS))
    certs = q.decomposition_certificates()
    failed = [c for c in certs if not c.ok]
    elapsed = time.perf_counter() - start
    ok = pairs_ok and len(certs) == 48 and not failed and elapsed < 10.0
    report(10, ok, f"search to 655 found {len(result.hits)} pairs, "
                    f"{len(certs)} decompositions verified, {elapsed:.3f}s")
    assert pairs_ok, f"got {result.pairs()[:5]}..."
    assert len(certs) == 48
    assert not failed, failed
    assert elapsed < 10.0


def test_criterion_11_bound_gap_analysis(report):
    start = time.perf_counter()
    ga = q.g_analysis()
    elapsed = time.perf_counter() - start
    peak_ok = (
        abs(ga.local_max_location - 52.15) <= 0.05
        and abs(ga.local_max_value - 4.59) <= 0.02
    )
    root2_ok = abs(ga.root_at_2 - 485.92) <= 0.01
    root1_ok = abs(ga.root_at_1 - 655.24) <= 0.01
    ok = peak_ok and root2_ok and root1_ok and elapsed < 1.0
    report(
        11,
        ok,
        f"peak ({ga.local_max_location:.4f}, {ga.local_max_value:.4f}) "
        f"{'within' if peak_ok else 'outside'} pinned windows; "
        f"roots {ga.root_at_2:.6f} vs 485.92+-0.01 and "
        f"{ga.root_at_1:.6f} vs 655.24+-0.01, {elapsed:.3f}s",
    )
    assert peak_ok
    assert elapsed < 1.0
    # The recorded crossing locations are value-accurate but not
    # location-accurate: the function really is within 0.01 of its targets
    # at 485.92 and 655.24 (it moves at roughly -0.006 per unit there), yet
    # the true crossings sit at 485.9357 and 655.2686, outside the 0.01
    # windows. Both integer cutoffs (485, 655) that the searches depend on
    # are unaffected. The assertions below state the pinned windows as
    # given and therefore fail honestly.
    assert root2_ok, (
        f"g reaches 2 at {ga.root_at_2:.6f}, not within 485.92 +- 0.01; "
        f"g(485.92) = {q.g_of(485.92):.6f} (on target to 1e-4 in value)"
    )
    assert root1_ok, (
        f"g reaches 1 at {ga.root_at_1:.6f}, not within 655.24 +- 0.01; "
        f"g(655.24) = {q.g_of(655.24):.6f} (on target to 2e-4 in value)"
    )


def test_criterion_12_growth_proxy(big_table, report):
    start = time.perf_counter()
    bad = []
    for a in (50, 100, 200, 400):
        s = q.make_semigroup(a, 1)
        scale = a ** 1.5
        f_ratio = q.frobenius(s) / scale
        g_ratio = q.genus(s) / scale
        if not 0.4 <= f_ratio <= 2.5:
            bad.append(("frobenius", a, f_ratio))
        if not 0.4 <= g_ratio <= 2.5:
            bad.append(("genus", a, g_ratio))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    report(12, ok, f"scaled invariants stay in [0.4, 2.5], {elapsed:.3f}s")
    assert not bad, bad
    assert elapsed < 30.0
