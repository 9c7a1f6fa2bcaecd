"""End-to-end checks of the command line interface through cli.run."""

import argparse
import csv
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadsg as q
from helpers import invariant_bounds_plain, invariants_row
from quadsg import cli

# The package exports a function named mu, which shadows the submodule on
# the package object; go through importlib for the module itself.
mu_module = importlib.import_module("quadsg.mu")
invariants_module = importlib.import_module("quadsg.invariants")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_mu_plain(capsys):
    code, out, err = run_cli(capsys, "mu", "--n", "26")
    assert code == 0
    assert out == "13\n"
    assert err == ""


def test_mu_json(capsys):
    code, out, _ = run_cli(capsys, "mu", "--n", "26", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 26, "mu": 13}


def test_mu_csv(capsys):
    code, out, _ = run_cli(capsys, "mu", "--n", "5", "--format", "csv")
    assert code == 0
    assert parse_csv(out) == [["n", "mu"], ["5", "7"]]


def test_mu_negative_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "mu", "--n", "-5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


USAGE_ERRORS = [
    ("nonsense",),
    ("mu", "--n", "5", "--bogus"),
    ("search",),
    ("mu",),
    ("certify", "--all", "--threads", "2"),
    ("search", "mu-drop", "--a-max", "30", "--threads", "2"),
]


def test_usage_errors(capsys):
    for argv in USAGE_ERRORS:
        assert run_cli(capsys, *argv)[0] == cli.USAGE_EXIT, argv


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "usage:" in out


def test_semigroup_gcd_error(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--a", "4", "--b", "2")
    assert code == 1
    assert "gcd(a,b) must be 1" in err


def test_semigroup_json(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--a", "1", "--b", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trivial"] is True
    assert doc["generators"] == [0, 1, 3, 6, 10, 15, 21, 28]


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n-max", "3")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "mu", "lower", "gauss", "combined"]
    assert rows[1] == ["1", "2", "2", "4.37228132", "5"]
    assert len(rows) == 4


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n-max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc] == [1, 2]
    assert doc[0]["mu"] == 2
    assert abs(doc[0]["gauss"] - q.gauss_bound(1)) < 1e-12


def test_apery_plain_and_oracle(capsys):
    code, out, _ = run_cli(capsys, "apery", "--a", "3", "--b", "1")
    assert code == 0
    assert out == "0 7 14\n"
    code, oracle_out, _ = run_cli(capsys, "apery", "--a", "3", "--b", "1", "--oracle")
    assert code == 0
    assert oracle_out == out
    # S(1, b) is every nonnegative integer: one class, least member 0.
    for flags in ((), ("--oracle",)):
        assert run_cli(capsys, "apery", "--a", "1", "--b", "5", *flags) == (0, "0\n", "")


def test_apery_csv(capsys):
    code, out, _ = run_cli(capsys, "apery", "--a", "3", "--b", "1", "--format", "csv")
    assert code == 0
    assert parse_csv(out) == [
        ["residue", "element"],
        ["0", "0"],
        ["1", "7"],
        ["2", "14"],
    ]


def test_frobenius_and_genus(capsys):
    assert run_cli(capsys, "frobenius", "--a", "2", "--b", "1")[1] == "3\n"
    assert run_cli(capsys, "frobenius", "--a", "2", "--b", "1", "--oracle")[1] == "3\n"
    assert run_cli(capsys, "genus", "--a", "2", "--b", "1")[1] == "2\n"
    code, out, _ = run_cli(capsys, "genus", "--a", "2", "--b", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"a": 2, "b": 1, "genus": 2}


def test_closed_forms_past_limit_are_domain_errors(capsys):
    for command in ("apery", "invariants", "frobenius", "genus"):
        code, out, err = run_cli(capsys, command, "--a", str(10**11), "--b", "1")
        assert code == 1, command
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err
    # The Apery set stops at 10**7 elements, well inside the table.
    code, out, err = run_cli(capsys, "apery", "--a", str(10**7 + 1), "--b", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_bounds_domain_errors_byte_for_byte(capsys):
    # Both are refused before any row.
    assert run_cli(capsys, "bounds", "--n-max", "0") == (1, "", "error: n_max must be at least 1\n")
    assert run_cli(capsys, "bounds", "--n-max", "100000001") == (
        1,
        "",
        "error: mu table is limited to n <= 100000000, asked for 100000001\n",
    )


@pytest.mark.parametrize(
    "argv, n_max",
    [
        (("bounds", "--n-max", "100000"), 100_000),
        (("invariants", "--sweep", "--a-max", "3000", "--b-max", "17"), 2999),
    ],
)
def test_streams_read_mu_block_by_block(capsys, monkeypatch, argv, n_max):
    # `bounds` and the sweep read mu one span per block, together exactly
    # the n they print.
    spans = []
    span = mu_module._mu_span

    def counted(lo, hi):
        spans.append((lo, hi))
        return span(lo, hi)

    monkeypatch.setattr(mu_module, "_mu_span", counted)
    monkeypatch.setattr(invariants_module, "_mu_span", counted)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    # The sweep's exceptional pairs take F from `frobenius`, which reads mu(0..a-1).
    spans = [(lo, hi) for lo, hi in spans if lo > 0]
    assert len(spans) > 1
    assert [lo for lo, _ in spans] == [1] + [hi + 1 for _, hi in spans[:-1]]
    assert spans[-1][1] == n_max


def test_sweep_past_limit_is_domain_error(capsys):
    for a_max, b_max in [(10**11, 1), (10**11, 0), (2, 10**11)]:
        start = time.perf_counter()
        argv = ("invariants", "--sweep", "--a-max", str(a_max), "--b-max", str(b_max))
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("command", ["apery", "frobenius", "genus", "embedding"])
def test_oracles_past_limit_are_domain_errors(capsys, command):
    a = invariants_module._APERY_LIMIT + 1
    code, out, err = run_cli(capsys, command, "--a", str(a), "--b", "1", "--oracle")
    assert (code, out) == (1, ""), command
    assert err.count("\n") == 1 and err.startswith("error: ") and "limited" in err, err


def cli_process(argv, **popen):
    """A CLI subprocess on this source tree, its stdout piped as text."""
    src_dir = str(Path(q.__file__).resolve().parents[1])
    path = os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.Popen(
        [sys.executable, "-m", "quadsg.cli", *argv], stdout=subprocess.PIPE, text=True, env=env, **popen
    )


def first_lines(argv, count):
    """The first `count` stdout lines of a CLI subprocess, then kill it.

    A watchdog kills the process if they do not come within 10 s.
    """
    proc = cli_process(argv)
    watchdog = threading.Timer(10, proc.kill)
    watchdog.start()
    try:
        return [proc.stdout.readline() for _ in range(count)]
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_sweep_streams_rows():
    # A sweep too large to finish prints its first rows once its table
    # (a_max - 1 = 10**8, the largest there is) is filled.
    argv = ["invariants", "--sweep", "--a-max", "100000001", "--b-max", "1", "--format", "csv"]
    lines = first_lines(argv, 3)
    assert lines == [
        "a,b,frobenius,genus,F_lo,F_hi,g_lo,g_hi\n",
        "2,1,3,2,3,7.74456265,1.58333333,4.84402771\n",
        "3,1,11,6,6.68465844,14.8247517,3.87886648,10.4920755\n",
    ]


def test_sweep_streams_wide_b_range():
    # One a with 5*10**7 values of b passes the size check; the sweep takes
    # them a capped block at a time, so the first rows still come at once.
    argv = ["invariants", "--sweep", "--a-max", "3", "--b-max", "50000000", "--format", "csv"]
    assert first_lines(argv, 3) == [
        "a,b,frobenius,genus,F_lo,F_hi,g_lo,g_hi\n",
        "2,1,3,2,3,7.74456265,1.58333333,4.84402771\n",
        "2,3,5,3,5,9.74456265,2.58333333,5.84402771\n",
    ]


def test_bounds_streams_rows():
    # The largest table there is: the first rows come once it is filled,
    # long before the 10**8 rows are printed.
    lines = first_lines(["bounds", "--n-max", "100000000"], 3)
    assert lines == [
        "n,mu,lower,gauss,combined\n",
        "1,2,2,4.37228132,5\n",
        "2,4,2.56155281,5.27491722,6.43206265\n",
    ]


def test_closed_pipe_exits_1_with_empty_stderr():
    # A consumer that stops reading (`| head -1`) closes the pipe while the
    # table is still being written: main exits 1 and prints no traceback.
    proc = cli_process(["bounds", "--n-max", "300000"], stderr=subprocess.PIPE)
    watchdog = threading.Timer(10, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout.readline() == "n,mu,lower,gauss,combined\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=10), err) == (1, "")
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()


@pytest.mark.slow
def test_sweep_of_a_million_by_ten():
    # The size check allows (10**6, 10): about 6*10**6 rows.  The scans make
    # the first row come at once and the whole grid well inside a minute.
    argv = ["invariants", "--sweep", "--a-max", "1000000", "--b-max", "10"]
    sample = {2, 3, 29, 47, 79, 1000, 65_537, 999_983, 10**6}
    sample |= set(random.Random(16).sample(range(4, 10**6), 20))
    start = time.perf_counter()
    proc = cli_process(argv)
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        assert proc.stdout.readline() == SWEEP_HEADER_LINE
        first = proc.stdout.readline()
        first_row_s = time.perf_counter() - start
        count, sampled = 1, [first]
        for line in proc.stdout:
            count += 1
            if int(line[: line.index(",")]) in sample:
                sampled.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.stdout.close()
    elapsed = time.perf_counter() - start
    print(f"\n(10**6, 10): first row after {first_row_s:.2f} s, {count} rows in {elapsed:.1f} s")
    assert code == 0
    assert first_row_s < 5
    assert elapsed < 60
    a = np.arange(2, 10**6 + 1)
    assert count == sum(int((np.gcd(a, b) == 1).sum()) for b in range(1, 11))
    expected = [
        cli._SWEEP_ROW["csv"] % tuple(invariants_row(a, b).values())[:8] + "\n"
        for a in sorted(sample | {2})
        for b in range(1, 11)
        if math.gcd(a, b) == 1
    ]
    assert sampled == expected


def test_sweep_json_streams_objects():
    # The json array is written as it is made: a grid that passes the size
    # check but could never be held in memory prints its first object.
    argv = ["invariants", "--sweep", "--a-max", "10001", "--b-max", "10000", "--format", "json"]
    first = [invariants_row(2, b) for b in (1, 3)]
    expected = json.dumps(first, indent=2).splitlines(keepends=True)
    count = 1 + len(json.dumps(first[0], indent=2).splitlines())
    assert first_lines(argv, count) == expected[:count]
    assert expected[count - 1] == "  },\n"


# An empty grid is refused before the header, as `bounds --n-max 0` is.
SWEEP_EXTENT_REFUSAL = (1, "", "error: sweep needs a_max >= 2 and b_max >= 1\n")


@pytest.mark.parametrize("a_max", [30, 1, -3])
def test_sweep_json_matches_list_form(capsys, monkeypatch, a_max):
    # Byte for byte what json.dump writes for the whole list; a_max below
    # 2 is refused byte for byte.
    summaries = [
        invariants_row(a, b)
        for a in range(2, a_max + 1)
        for b in range(1, 4)
        if math.gcd(a, b) == 1
    ]
    expected = io.StringIO()
    json.dump(summaries, expected, indent=2)
    argv = ["invariants", "--sweep", "--a-max", str(a_max), "--b-max", "3", "--format", "json"]
    if a_max < 2:
        assert run_cli(capsys, *argv) == SWEEP_EXTENT_REFUSAL
        return
    assert run_cli(capsys, *argv) == (0, expected.getvalue() + "\n", "")
    # Again with blocks of 5 pairs, so the array's commas cross block edges.
    monkeypatch.setattr(invariants_module, "_BLOCK", 40)
    assert run_cli(capsys, *argv) == (0, expected.getvalue() + "\n", "")


def test_invariants_single(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--a", "29", "--b", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["frobenius"] == 345
    assert doc["genus"] == 217
    assert doc["bounds_certified"] is False
    assert doc["frobenius_low"] <= doc["frobenius"] <= doc["frobenius_high"]


def test_invariants_sweep(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--sweep", "--a-max", "6", "--b-max", "3")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["a", "b", "frobenius", "genus", "F_lo", "F_hi", "g_lo", "g_hi"]
    pairs = [(int(r[0]), int(r[1])) for r in rows[1:]]
    expected = [
        (a, b)
        for a in range(2, 7)
        for b in range(1, 4)
        if math.gcd(a, b) == 1
    ]
    assert pairs == expected
    for row in rows[1:]:
        a, b, frob, genus = int(row[0]), int(row[1]), int(row[2]), int(row[3])
        assert frob == q.frobenius(q.make_semigroup(a, b))
        assert genus == q.genus(q.make_semigroup(a, b))


def csv_writer_text(header, rows):
    # What csv.writer prints for a table: the reference for every csv table
    # the CLI prints, from row templates or from comma-joined cells.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


SWEEP_HEADER = ["a", "b", "frobenius", "genus", "F_lo", "F_hi", "g_lo", "g_hi"]
SWEEP_HEADER_LINE = ",".join(SWEEP_HEADER) + "\n"


def sweep_row(a, b):
    s = q.make_semigroup(a, b)
    bounds = [format(x, ".9g") for x in invariant_bounds_plain(a, b)]
    return [a, b, q.frobenius(s), q.genus(s), *bounds]


@pytest.mark.parametrize(
    "a_max,b_max,block",
    [(400, 10, None), (80, 12, 40), (-3, 2, None), (30, 0, None), (-5, 3, None), (5, -3, None)],
)
def test_sweep_csv_matches_csv_writer(a_max, b_max, block, capsys, monkeypatch):
    # A grid with no pair is refused byte for byte.
    if block is not None:
        monkeypatch.setattr(invariants_module, "_BLOCK", block)
    pairs = [(a, b) for a in range(2, a_max + 1) for b in range(1, b_max + 1) if math.gcd(a, b) == 1]
    expected = csv_writer_text(SWEEP_HEADER, [sweep_row(a, b) for a, b in pairs])
    argv = ["invariants", "--sweep", "--a-max", str(a_max), "--b-max", str(b_max)]
    result = (0, expected, "") if pairs else SWEEP_EXTENT_REFUSAL
    assert run_cli(capsys, *argv) == result
    assert run_cli(capsys, *argv, "--format", "plain") == result


def test_single_pair_csv_matches_csv_writer(capsys):
    for a, b in [(29, 1), (29, 2), (10**6 + 1, 7)]:
        expected = csv_writer_text(SWEEP_HEADER, [sweep_row(a, b)])
        assert run_cli(capsys, "invariants", "--a", str(a), "--b", str(b)) == (0, expected, "")


def apery_rows(form):
    return lambda: enumerate(form(q.make_semigroup(29, 1)).elements)


# The record tables, each with the header and rows csv.writer printed them
# from before the renderer joined cells with commas itself.
RECORD_TABLES = {
    "mu": (("mu", "--n", "26"), ["n", "mu"], lambda: [[26, q.mu(26)]]),
    "apery": (("apery", "--a", "29", "--b", "1"), ["residue", "element"], apery_rows(q.apery_closed)),
    "apery-oracle": (
        ("apery", "--a", "29", "--b", "1", "--oracle"),
        ["residue", "element"],
        apery_rows(q.apery_oracle),
    ),
    "mu-drop": (
        ("search", "mu-drop", "--a-max", "485"),
        ["a", "n", "mu_n", "mu_n_plus_a", "drop"],
        lambda: [[h.a, h.n, h.mu_n, h.mu_shifted, h.drop] for h in q.search_mu_drop(485).hits],
    ),
    "embedding-eq": (
        ("search", "embedding-eq", "--a-max", "655"),
        ["a", "n", "binom", "residue", "mu_residue"],
        lambda: [
            [h.a, h.n, h.binom, h.residue, h.mu_residue] for h in q.search_embedding_eq(655).hits
        ],
    ),
    "g-analysis": (
        ("g-analysis",),
        ["quantity", "value"],
        lambda: [[k, format(v, ".9g")] for k, v in q.g_analysis()._asdict().items()],
    ),
    "tgrid": (
        ("tgrid", "--m-max", "30", "--n-max", "40"),
        ["m", "n", "member"],
        lambda: [[m, n, int(q.mu(n) <= m)] for n in range(41) for m in range(31)],
    ),
}


@pytest.mark.parametrize("name", list(RECORD_TABLES))
def test_record_tables_match_csv_writer(name, capsys):
    argv, header, rows = RECORD_TABLES[name]
    expected = csv_writer_text(header, rows())
    assert expected.count("\n") > 1
    assert run_cli(capsys, *argv, "--format", "csv") == (0, expected, "")


def bound_profile(n):
    return {
        "n": n,
        "mu": q.mu(n),
        "lower": q.lower_bound(n),
        "gauss": q.gauss_bound(n),
        "combined": q.combined_bound(n),
    }


def test_bounds_rows_match_csv_writer(capsys):
    rows = [
        [p["n"], p["mu"], *(format(p[key], ".9g") for key in ("lower", "gauss", "combined"))]
        for p in map(bound_profile, range(1, 5001))
    ]
    expected = csv_writer_text(["n", "mu", "lower", "gauss", "combined"], rows)
    assert run_cli(capsys, "bounds", "--n-max", "5000") == (0, expected, "")
    plain = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert run_cli(capsys, "bounds", "--n-max", "5000", "--format", "plain") == (0, plain, "")


def test_bounds_json_matches_json_dump(capsys):
    # The json rows come from one template; byte for byte what json.dump
    # writes for the whole list of profiles, from the scalar bounds.
    expected = io.StringIO()
    json.dump([bound_profile(n) for n in range(1, 5001)], expected, indent=2)
    argv = ["bounds", "--n-max", "5000", "--format", "json"]
    assert run_cli(capsys, *argv) == (0, expected.getvalue() + "\n", "")


def test_invariants_sweep_needs_limits(capsys):
    code, _, err = run_cli(capsys, "invariants", "--sweep", "--a-max", "6")
    assert code == cli.USAGE_EXIT
    assert "usage error" in err


def test_embedding_plain(capsys):
    code, out, _ = run_cli(capsys, "embedding", "--a", "29", "--b", "1")
    assert code == 0
    assert out.splitlines() == ["dimension 9", "indices 1 2 3 4 5 6 7 8 11"]


def test_embedding_huge_a_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "embedding", "--a", str(10**21), "--b", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_embedding_oracle_json(capsys):
    code, out, _ = run_cli(
        capsys, "embedding", "--a", "29", "--b", "1", "--oracle", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 9
    assert doc["indices"] == [1, 2, 3, 4, 5, 6, 7, 8, 11]
    assert doc["elements"][-1] == 374


def test_embedding_oracle_disagreement_exits_2(capsys, monkeypatch):
    # --oracle compares the oracle's list with embedding_dimension; a short
    # list fails that check and prints nothing on stdout.
    monkeypatch.setattr(
        invariants_module, "minimal_generators_oracle", lambda s: q.MinimalGeneratorSet((1, 2))
    )
    code, out, err = run_cli(capsys, "embedding", "--a", "29", "--b", "1", "--oracle")
    assert (code, out) == (cli.FAILURE_EXIT, "")
    assert err == "error: index list of length 2 disagrees with dimension 9\n"


def test_invariants_pair_is_its_sweep_row(capsys):
    # The one-pair json and the sweep's json template spell the nine keys
    # apart; each pair's object must match, key order included.
    argv = ["invariants", "--sweep", "--a-max", "30", "--b-max", "7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    sweep = {(row["a"], row["b"]): row for row in json.loads(out)}
    for a, b in [(2, 1), (29, 1), (29, 2), (30, 7)]:
        code, out, err = run_cli(capsys, "invariants", "--a", str(a), "--b", str(b), "--format", "json")
        assert (code, err) == (0, "")
        assert list(json.loads(out).items()) == list(sweep[a, b].items())


def test_embedding_certify(capsys):
    # embedding --certify is removed: certify --all is the one command that
    # replays the 48 decomposition certificates, and embedding needs a pair.
    for argv in (("--a", "29", "--b", "1", "--certify"), ("--certify",), ("--a", "29"), ()):
        code, out, err = run_cli(capsys, "embedding", *argv)
        assert (code, out) == (cli.USAGE_EXIT, ""), argv
        assert "error:" in err, argv
    code, out, _ = run_cli(capsys, "certify", "--all")
    assert code == 0
    certs = q.decomposition_certificates()
    expected = [f"PASS {c.kind} a={c.a} n={c.n}: {c.detail}" for c in certs]
    assert len(expected) == 48
    # They follow the table check and the eight exceptional drops.
    assert out.splitlines()[9:57] == expected


def test_search_mu_drop(capsys):
    code, out, _ = run_cli(capsys, "search", "mu-drop", "--a-max", "30")
    assert code == 0
    assert parse_csv(out) == [
        ["a", "n", "mu_n", "mu_n_plus_a", "drop"],
        ["29", "26", "13", "11", "2"],
    ]


def test_search_embedding_eq(capsys):
    code, out, _ = run_cli(capsys, "search", "embedding-eq", "--a-max", "13")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["a", "n", "binom", "residue", "mu_residue"]
    assert rows[1:] == [["10", "6", "15", "5", "7"], ["13", "7", "21", "8", "8"]]


def test_search_embedding_eq_raw(capsys):
    # The raw residue mode is removed: --raw is a usage error and the json
    # hits carry no excluded_by field.
    argv = ("search", "embedding-eq", "--a-max", "13", "--raw")
    assert run_cli(capsys, *argv)[0] == cli.USAGE_EXIT
    code, out, _ = run_cli(capsys, "search", "embedding-eq", "--a-max", "13", "--format", "json")
    assert code == 0
    hits = json.loads(out)["hits"]
    assert [(h["a"], h["n"]) for h in hits] == [(10, 6), (13, 7)]
    assert all("excluded_by" not in h for h in hits)


def test_g_analysis_plain(capsys):
    code, out, _ = run_cli(capsys, "g-analysis")
    assert code == 0
    fields = dict(line.split() for line in out.splitlines())
    assert set(fields) == {
        "local_max_location",
        "local_max_value",
        "root_at_2",
        "root_at_1",
    }
    assert abs(float(fields["root_at_2"]) - 485.935675) < 1e-4
    assert abs(float(fields["local_max_value"]) - 4.593579) < 1e-4


def test_g_analysis_csv(capsys):
    code, out, _ = run_cli(capsys, "g-analysis", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["quantity", "value"]
    assert len(rows) == 5


def test_tgrid_cells(capsys):
    code, out, _ = run_cli(capsys, "tgrid", "--m-max", "12", "--n-max", "8")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["m", "n", "member"]
    cells = {(int(m), int(n)): int(v) for m, n, v in rows[1:]}
    assert len(cells) == 13 * 9
    assert cells[(2, 1)] == 1
    assert cells[(1, 1)] == 0
    assert cells[(0, 0)] == 1
    # Within each row the flag flips exactly once, at column mu(n).
    for n in range(9):
        threshold = min(m for m in range(13) if cells[(m, n)])
        assert threshold == q.mu(n)
        assert all(cells[(m, n)] == (m >= threshold) for m in range(13))


def test_tgrid_plain(capsys):
    code, out, _ = run_cli(capsys, "tgrid", "--m-max", "3", "--n-max", "3", "--format", "plain")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "####"
    assert set("".join(lines)) <= {"#", "."}


def test_tgrid_limit(capsys):
    for m_max in ("501", "-1"):
        code, out, err = run_cli(capsys, "tgrid", "--m-max", m_max, "--n-max", "3")
        assert (code, out) == (1, ""), m_max
        assert "error:" in err, m_max


def test_certify_all(capsys):
    code, out, _ = run_cli(capsys, "certify", "--all")
    assert code == 0
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    assert lines[-1] == "certified 62/62 checks"


def test_cli_writes_no_cache_file(tmp_path, monkeypatch, capsys):
    # The mu table is filled afresh in each process: no variable makes the
    # CLI read or write a file of it.
    path = tmp_path / "mu.cache"
    monkeypatch.setenv("QUADSG_MEMO_PATH", str(path))
    assert run_cli(capsys, "mu", "--n", "50") == (0, "17\n", "")
    assert not path.exists()


# Full stdout of one command per format on small inputs: a str is the text
# itself, anything else is a json document printed with indent=2.
GOLDEN = {
    ("semigroup", "--a", "3", "--b", "2", "--format", "plain"): (
        "S(3,2) trivial=false generators 0 3 8 15 24 35 48 63\n"
    ),
    ("semigroup", "--a", "3", "--b", "2"): {
        "a": 3,
        "b": 2,
        "trivial": False,
        "generators": [0, 3, 8, 15, 24, 35, 48, 63],
    },
    ("invariants", "--a", "29", "--b", "1", "--format", "plain"): (
        "frobenius 345\n"
        "genus 217\n"
        "frobenius_bounds 231 420.891662\n"
        "genus_bounds 154.583333 299.353804\n"
        "bounds_certified false\n"
    ),
    ("invariants", "--a", "29", "--b", "1", "--format", "json"): {
        "a": 29,
        "b": 1,
        "frobenius": 345,
        "genus": 217,
        "frobenius_low": 231.0,
        "frobenius_high": 420.8916621702968,
        "genus_low": 154.58333333333334,
        "genus_high": 299.3538038809752,
        "bounds_certified": False,
    },
    ("invariants", "--a", "29", "--b", "1"): (
        "a,b,frobenius,genus,F_lo,F_hi,g_lo,g_hi\n"
        "29,1,345,217,231,420.891662,154.583333,299.353804\n"
    ),
    ("invariants", "--sweep", "--a-max", "6", "--b-max", "2", "--format", "plain"): (
        "a,b,frobenius,genus,F_lo,F_hi,g_lo,g_hi\n"
        "2,1,3,2,3,7.74456265,1.58333333,4.84402771\n"
        "3,1,11,6,6.68465844,14.8247517,3.87886648,10.4920755\n"
        "3,2,13,7,8.68465844,16.8247517,4.87886648,11.4920755\n"
        "4,1,14,9,11,23,6.66666667,16.8105453\n"
        "5,1,24,14,15.8614066,32.1173769,9.85710697,23.716497\n"
        "5,2,28,16,19.8614066,36.1173769,11.857107,25.716497\n"
        "6,1,41,21,21.2093727,42.0734501,13.3970039,31.1518738\n"
    ),
    ("invariants", "--sweep", "--a-max", "3", "--b-max", "1", "--format", "json"): [
        {
            "a": 2,
            "b": 1,
            "frobenius": 3,
            "genus": 2,
            "frobenius_low": 3.0,
            "frobenius_high": 7.744562646538029,
            "genus_low": 1.5833333333333333,
            "genus_high": 4.84402771492608,
            "bounds_certified": True,
        },
        {
            "a": 3,
            "b": 1,
            "frobenius": 11,
            "genus": 6,
            "frobenius_low": 6.68465843842649,
            "frobenius_high": 14.824751652906123,
            "genus_low": 3.878866484812509,
            "genus_high": 10.49207545367007,
            "bounds_certified": True,
        },
    ],
    ("bounds", "--n-max", "3", "--format", "json"): [
        {"n": 1, "mu": 2, "lower": 2.0, "gauss": 4.372281323269014, "combined": 5.0},
        {
            "n": 2,
            "mu": 4,
            "lower": 2.5615528128088303,
            "gauss": 5.274917217635375,
            "combined": 6.432062647602388,
        },
        {"n": 3, "mu": 3, "lower": 3.0, "gauss": 6.0, "combined": 7.372281323269014},
    ],
    ("bounds", "--n-max", "3", "--format", "plain"): (
        "1 2 2 4.37228132 5\n2 4 2.56155281 5.27491722 6.43206265\n3 3 3 6 7.37228132\n"
    ),
    ("apery", "--a", "4", "--b", "3", "--format", "json"): {
        "a": 4,
        "b": 3,
        "modulus": 4,
        "elements": [0, 21, 22, 11],
    },
    # The trivial S(1,0) and S(0,1), whose records the CLI assembles itself.
    ("apery", "--a", "1", "--b", "0", "--format", "json"): {
        "a": 1,
        "b": 0,
        "modulus": 1,
        "elements": [0],
    },
    ("embedding", "--a", "0", "--b", "1", "--format", "json"): {
        "a": 0,
        "b": 1,
        "dimension": 1,
        "indices": [2],
        "elements": [1],
    },
    ("frobenius", "--a", "7", "--b", "2", "--format", "json"): {"a": 7, "b": 2, "frobenius": 52},
    ("genus", "--a", "7", "--b", "2", "--format", "json"): {"a": 7, "b": 2, "genus": 28},
    ("g-analysis", "--format", "json"): {
        "local_max_location": 52.14627633912859,
        "local_max_value": 4.59357877698022,
        "root_at_2": 485.9356753528118,
        "root_at_1": 655.268618860282,
    },
    ("tgrid", "--m-max", "6", "--n-max", "5", "--format", "plain"): (
        "#######\n..#####\n....###\n...####\n.....##\n.......\n"
    ),
    ("embedding", "--a", "29", "--b", "1", "--format", "json"): {
        "a": 29,
        "b": 1,
        "dimension": 9,
        "indices": [1, 2, 3, 4, 5, 6, 7, 8, 11],
        "elements": [29, 59, 90, 122, 155, 189, 224, 260, 374],
    },
    ("search", "mu-drop", "--a-max", "50", "--format", "json"): {
        "search_id": "mu-drop",
        "a_max": 50,
        "hits": [
            {"a": 29, "n": 26, "mu_n": 13, "mu_n_plus_a": 11, "drop": 2},
            {"a": 45, "n": 33, "mu_n": 15, "mu_n_plus_a": 13, "drop": 2},
            {"a": 47, "n": 44, "mu_n": 16, "mu_n_plus_a": 14, "drop": 2},
            {"a": 50, "n": 41, "mu_n": 16, "mu_n_plus_a": 14, "drop": 2},
        ],
    },
    ("mu", "--n", "26", "--format", "plain"): "13\n",
    ("mu", "--n", "26", "--format", "csv"): "n,mu\n26,13\n",
    ("mu", "--n", "26", "--format", "json"): {"n": 26, "mu": 13},
    ("bounds", "--n-max", "3", "--format", "csv"): (
        "n,mu,lower,gauss,combined\n"
        "1,2,2,4.37228132,5\n"
        "2,4,2.56155281,5.27491722,6.43206265\n"
        "3,3,3,6,7.37228132\n"
    ),
    ("apery", "--a", "4", "--b", "3", "--format", "plain"): "0 21 22 11\n",
    ("apery", "--a", "4", "--b", "3", "--format", "csv"): "residue,element\n0,0\n1,21\n2,22\n3,11\n",
    ("frobenius", "--a", "7", "--b", "2", "--format", "plain"): "52\n",
    ("genus", "--a", "7", "--b", "2", "--format", "plain"): "28\n",
    ("embedding", "--a", "29", "--b", "1", "--format", "plain"): (
        "dimension 9\nindices 1 2 3 4 5 6 7 8 11\n"
    ),
    ("invariants", "--sweep", "--a-max", "5", "--b-max", "2", "--format", "csv"): (
        "a,b,frobenius,genus,F_lo,F_hi,g_lo,g_hi\n"
        "2,1,3,2,3,7.74456265,1.58333333,4.84402771\n"
        "3,1,11,6,6.68465844,14.8247517,3.87886648,10.4920755\n"
        "3,2,13,7,8.68465844,16.8247517,4.87886648,11.4920755\n"
        "4,1,14,9,11,23,6.66666667,16.8105453\n"
        "5,1,24,14,15.8614066,32.1173769,9.85710697,23.716497\n"
        "5,2,28,16,19.8614066,36.1173769,11.857107,25.716497\n"
    ),
    ("search", "mu-drop", "--a-max", "50", "--format", "csv"): (
        "a,n,mu_n,mu_n_plus_a,drop\n29,26,13,11,2\n45,33,15,13,2\n47,44,16,14,2\n50,41,16,14,2\n"
    ),
    ("search", "embedding-eq", "--a-max", "30", "--format", "csv"): (
        "a,n,binom,residue,mu_residue\n"
        "10,6,15,5,7\n13,7,21,8,8\n19,9,36,17,10\n22,9,36,14,10\n26,10,45,19,11\n"
    ),
    ("search", "embedding-eq", "--a-max", "30", "--format", "json"): {
        "search_id": "embedding-eq",
        "a_max": 30,
        "hits": [
            {"a": 10, "n": 6, "binom": 15, "residue": 5, "mu_residue": 7},
            {"a": 13, "n": 7, "binom": 21, "residue": 8, "mu_residue": 8},
            {"a": 19, "n": 9, "binom": 36, "residue": 17, "mu_residue": 10},
            {"a": 22, "n": 9, "binom": 36, "residue": 14, "mu_residue": 10},
            {"a": 26, "n": 10, "binom": 45, "residue": 19, "mu_residue": 11},
        ],
    },
    ("g-analysis", "--format", "plain"): (
        "local_max_location 52.1462763\n"
        "local_max_value 4.59357878\n"
        "root_at_2 485.935675\n"
        "root_at_1 655.268619\n"
    ),
    ("g-analysis", "--format", "csv"): (
        "quantity,value\n"
        "local_max_location,52.1462763\n"
        "local_max_value,4.59357878\n"
        "root_at_2,485.935675\n"
        "root_at_1,655.268619\n"
    ),
    ("tgrid", "--m-max", "2", "--n-max", "2", "--format", "csv"): (
        "m,n,member\n0,0,1\n1,0,1\n2,0,1\n0,1,0\n1,1,0\n2,1,1\n0,2,0\n1,2,0\n2,2,0\n"
    ),
    # Every check certify replays, in order, then its footer.
    ("certify", "--all"): (
        "PASS mu anchors and exact triangular values to index 2000\n"
        "PASS exceptional drop a=29 n=26: mu(26) = 13; 12*29 + 26 = y_11; 374 in S(29,1); 345 not in S(29,1); least lift of 26 is 12\n"
        "PASS exceptional drop a=45 n=33: mu(33) = 15; 14*45 + 33 = y_13; 663 in S(45,1); 618 not in S(45,1); least lift of 33 is 14\n"
        "PASS exceptional drop a=47 n=44: mu(44) = 16; 15*47 + 44 = y_14; 749 in S(47,1); 702 not in S(47,1); least lift of 44 is 15\n"
        "PASS exceptional drop a=50 n=41: mu(41) = 16; 15*50 + 41 = y_14; 791 in S(50,1); 741 not in S(50,1); least lift of 41 is 15\n"
        "PASS exceptional drop a=55 n=50: mu(50) = 17; 16*55 + 50 = y_15; 930 in S(55,1); 875 not in S(55,1); least lift of 50 is 16\n"
        "PASS exceptional drop a=67 n=53: mu(53) = 18; 17*67 + 53 = y_16; 1192 in S(67,1); 1125 not in S(67,1); least lift of 53 is 17\n"
        "PASS exceptional drop a=73 n=63: mu(63) = 19; 18*73 + 63 = y_17; 1377 in S(73,1); 1304 not in S(73,1); least lift of 63 is 18\n"
        "PASS exceptional drop a=79 n=74: mu(74) = 20; 19*79 + 74 = y_18; 1575 in S(79,1); 1496 not in S(79,1); least lift of 74 is 19\n"
        "PASS residue-table a=10 n=6: y_6 = 2*y_2 + y_3\n"
        "PASS residue-table a=13 n=7: y_7 = 2*y_2 + y_4\n"
        "PASS residue-table a=19 n=9: y_9 = 2*y_2 + y_6\n"
        "PASS residue-table a=22 n=9: y_9 = y_2 + y_3 + y_5\n"
        "PASS residue-table a=26 n=10: y_10 = y_2 + y_3 + y_6\n"
        "PASS residue-table a=34 n=12: y_12 = y_2 + y_3 + y_8\n"
        "PASS residue-table a=40 n=12: y_12 = y_2 + y_5 + y_6\n"
        "PASS residue-table a=43 n=13: y_13 = y_2 + y_4 + y_8\n"
        "PASS residue-table a=53 n=15: y_15 = y_2 + y_4 + y_10\n"
        "PASS residue-table a=58 n=14: y_14 = 2*y_2 + y_3 + y_8\n"
        "PASS residue-table a=61 n=15: y_15 = y_2 + y_6 + y_8\n"
        "PASS residue-table a=64 n=15: y_15 = 2*y_2 + y_3 + y_9\n"
        "PASS residue-table a=66 n=16: y_16 = y_3 + y_4 + y_10\n"
        "PASS residue-table a=70 n=16: y_16 = 2*y_2 + y_3 + y_10\n"
        "PASS residue-table a=78 n=18: y_18 = y_3 + y_4 + y_12\n"
        "PASS residue-table a=82 n=18: y_18 = 2*y_2 + y_3 + y_12\n"
        "PASS residue-table a=83 n=17: y_17 = 2*y_2 + y_4 + y_10\n"
        "PASS residue-table a=90 n=18: y_18 = 2*y_2 + y_4 + y_11\n"
        "PASS residue-table a=97 n=19: y_19 = 2*y_2 + y_4 + y_12\n"
        "PASS residue-table a=104 n=20: y_20 = 2*y_2 + y_4 + y_13\n"
        "PASS residue-table a=106 n=21: y_21 = y_3 + y_5 + y_14\n"
        "PASS residue-table a=107 n=21: y_21 = 2*y_4 + y_14\n"
        "PASS residue-table a=118 n=22: y_22 = 2*y_2 + y_4 + y_15\n"
        "PASS residue-table a=142 n=24: y_24 = y_2 + y_8 + y_15\n"
        "PASS residue-table a=181 n=27: y_27 = 2*y_2 + y_6 + y_18\n"
        "PASS residue-table a=184 n=27: y_27 = y_2 + y_3 + y_5 + y_18\n"
        "PASS residue-table a=190 n=28: y_28 = 2*y_2 + y_6 + y_19\n"
        "PASS residue-table a=193 n=28: y_28 = y_2 + y_3 + y_5 + y_19\n"
        "PASS residue-table a=226 n=30: y_30 = y_2 + y_3 + y_6 + y_20\n"
        "PASS residue-table a=236 n=31: y_31 = y_2 + y_3 + y_6 + y_21\n"
        "PASS extra-minimal a=29 n=11: y_11 unreachable from other generators of S(29,1)\n"
        "PASS extra-table a=29 n=19: y_19 = y_1 + y_2 + y_8 + y_11\n"
        "PASS extra-minimal a=45 n=13: y_13 unreachable from other generators of S(45,1)\n"
        "PASS extra-table a=45 n=33: y_33 = 6*y_1 + 2*y_2 + y_5 + 2*y_13\n"
        "PASS extra-minimal a=47 n=14: y_14 unreachable from other generators of S(47,1)\n"
        "PASS extra-table a=47 n=34: y_34 = 11*y_1 + y_3 + 2*y_14\n"
        "PASS extra-minimal a=50 n=14: y_14 unreachable from other generators of S(50,1)\n"
        "PASS extra-table a=50 n=39: y_39 = y_1 + y_2 + y_3 + y_5 + y_10 + 2*y_14\n"
        "PASS extra-minimal a=55 n=15: y_15 unreachable from other generators of S(55,1)\n"
        "PASS extra-table a=55 n=26: y_26 = 15*y_1 + y_15\n"
        "PASS extra-table a=55 n=30: y_30 = 5*y_1 + y_5 + y_10 + y_15\n"
        "PASS extra-table a=55 n=41: y_41 = y_5 + 3*y_15\n"
        "PASS extra-minimal a=67 n=16: y_16 unreachable from other generators of S(67,1)\n"
        "PASS extra-table a=67 n=52: y_52 = 10*y_1 + y_8 + 3*y_16\n"
        "PASS extra-minimal a=73 n=17: y_17 unreachable from other generators of S(73,1)\n"
        "PASS extra-table a=73 n=57: y_57 = 9*y_1 + 2*y_2 + y_3 + y_6 + 3*y_17\n"
        "PASS extra-minimal a=79 n=18: y_18 unreachable from other generators of S(79,1)\n"
        "PASS extra-table a=79 n=62: y_62 = y_6 + 4*y_18\n"
        "PASS drop search to 485 finds exactly the eight known pairs\n"
        "PASS residue search to 655 finds exactly the thirty known pairs\n"
        "PASS bound-gap peak near 52.15 with value near 4.59\n"
        "PASS bound-gap roots solve to 1e-9 inside (485, 486) and (655, 656)\n"
        "PASS bound-gap values at the recorded crossings are within 0.01\n"
        "certified 62/62 checks\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    expected = GOLDEN[argv]
    if not isinstance(expected, str):
        expected = json.dumps(expected, indent=2) + "\n"
    assert out == expected


# Full --help stdout of the top level and of every command, at the width
# argparse reads from COLUMNS.
HELP = {
    ("--help",): (
        "usage: quadsg [-h] command ...\n"
        "\n"
        "Invariants of numerical semigroups generated by quadratic sequences.\n"
        "\n"
        "positional arguments:\n"
        "  command\n"
        "    mu        minimum index-weight of a triangular partition\n"
        "    bounds    mu with its analytic envelope, tabulated\n"
        "    semigroup\n"
        "              validate (a,b) and describe S(a,b)\n"
        "    apery     least member of S per residue class mod a\n"
        "    frobenius\n"
        "              largest integer outside S\n"
        "    genus     number of gaps of S\n"
        "    invariants\n"
        "              frobenius, genus, and bounds together\n"
        "    embedding\n"
        "              minimal generators and their count\n"
        "    search    exhaustive searches\n"
        "    g-analysis\n"
        "              peak and roots of the bound-gap margin\n"
        "    certify   replay every certificate and search\n"
        "    tgrid     membership grid of the lifted pair monoid\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("mu", "--help"): (
        "usage: quadsg mu [-h] --n N [--format {plain,json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N\n"
        "  --format {plain,json,csv}\n"
    ),
    ("bounds", "--help"): (
        "usage: quadsg bounds [-h] --n-max N_MAX [--format {plain,json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n-max N_MAX\n"
        "  --format {plain,json,csv}\n"
    ),
    ("semigroup", "--help"): (
        "usage: quadsg semigroup [-h] --a A --b B [--format {plain,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --format {plain,json}\n"
    ),
    ("apery", "--help"): (
        "usage: quadsg apery [-h] --a A --b B [--oracle] [--format {plain,json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --oracle              derive from the round-robin Apery set\n"
        "  --format {plain,json,csv}\n"
    ),
    ("frobenius", "--help"): (
        "usage: quadsg frobenius [-h] --a A --b B [--oracle] [--format {plain,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --oracle              derive from the round-robin Apery set\n"
        "  --format {plain,json}\n"
    ),
    ("genus", "--help"): (
        "usage: quadsg genus [-h] --a A --b B [--oracle] [--format {plain,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --oracle              derive from the round-robin Apery set\n"
        "  --format {plain,json}\n"
    ),
    ("invariants", "--help"): (
        "usage: quadsg invariants [-h] [--a A] [--b B] [--sweep] [--a-max A_MAX]\n"
        "                         [--b-max B_MAX] [--format {plain,json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --sweep               tabulate a coprime grid (rows print as they are made)\n"
        "  --a-max A_MAX\n"
        "  --b-max B_MAX\n"
        "  --format {plain,json,csv}\n"
    ),
    ("embedding", "--help"): (
        "usage: quadsg embedding [-h] --a A --b B [--oracle] [--format {plain,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --a A\n"
        "  --b B\n"
        "  --oracle              derive from the round-robin Apery set\n"
        "  --format {plain,json}\n"
    ),
    ("search", "--help"): (
        "usage: quadsg search [-h] mode ...\n"
        "\n"
        "positional arguments:\n"
        "  mode\n"
        "    mu-drop     pairs where one shift lowers mu by 2..4\n"
        "    embedding-eq\n"
        "                pairs where an extra generator could enter\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
    ),
    ("search", "mu-drop", "--help"): (
        "usage: quadsg search mu-drop [-h] --a-max A_MAX [--format {csv,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --a-max A_MAX\n"
        "  --format {csv,json}\n"
    ),
    ("search", "embedding-eq", "--help"): (
        "usage: quadsg search embedding-eq [-h] --a-max A_MAX [--format {csv,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --a-max A_MAX\n"
        "  --format {csv,json}\n"
    ),
    ("g-analysis", "--help"): (
        "usage: quadsg g-analysis [-h] [--format {plain,json,csv}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {plain,json,csv}\n"
    ),
    ("certify", "--help"): (
        "usage: quadsg certify [-h] [--all]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --all       accepted for compatibility; always runs everything\n"
    ),
    ("tgrid", "--help"): (
        "usage: quadsg tgrid [-h] [--m-max M_MAX] [--n-max N_MAX]\n"
        "                    [--format {csv,plain}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --m-max M_MAX\n"
        "  --n-max N_MAX\n"
        "  --format {csv,plain}\n"
    ),
}


@pytest.mark.parametrize("argv", list(HELP), ids=" ".join)
def test_help_stdout(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (0, HELP[argv], "")


@pytest.mark.parametrize(
    "argv", [*HELP, *USAGE_ERRORS, ()], ids=lambda argv: " ".join(argv) or "<empty>"
)
def test_run_reads_as_the_full_parser(capsys, monkeypatch, argv):
    # `run` builds only the named command's parser; help, usage errors and
    # argv that names no command ("nonsense", none) read as from the full one.
    monkeypatch.setenv("COLUMNS", "80")
    expected = run_cli(capsys, *argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run_cli(capsys, *argv) == expected


def test_run_builds_only_the_named_command_parser(capsys, monkeypatch):
    # Every parser a run makes, the subcommands' included, runs this __init__.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser()
    every = len(built)

    def parsers(*argv):
        built.clear()
        cli.run(list(argv))
        capsys.readouterr()
        return len(built)

    assert parsers("certify", "--all") <= 2
    assert parsers("search", "mu-drop", "--a-max", "30") <= 4
    # A first word that names no command builds them all (and one spare top level).
    assert parsers("--help") >= every


_INT_FLAGS = {
    "mu": ["--n"],
    "bounds": ["--n-max"],
    "semigroup": ["--a", "--b"],
    "apery": ["--a", "--b"],
    "frobenius": ["--a", "--b"],
    "genus": ["--a", "--b"],
    "invariants": ["--a", "--b", "--a-max", "--b-max"],
    "embedding": ["--a", "--b"],
    "search mu-drop": ["--a-max"],
    "search embedding-eq": ["--a-max"],
    "g-analysis": [],
    "certify": [],
    "tgrid": ["--m-max", "--n-max"],
}
_SWITCHES = ["--oracle", "--sweep", "--certify", "--all", "--raw"]
_FORMATS = ["plain", "json", "csv", "xml"]


@st.composite
def _argvs(draw):
    argv = draw(st.sampled_from(sorted(_INT_FLAGS))).split()
    for flag in _INT_FLAGS[" ".join(argv)]:
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-3, 40)))]
    argv += draw(st.lists(st.sampled_from(_SWITCHES), max_size=2, unique=True))
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(_FORMATS))]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_any_argv_exits_cleanly(capsys, argv):
    # Sizes stay small (ints up to 40), so no argv here allocates much.
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, cli.FAILURE_EXIT, cli.USAGE_EXIT), argv
    assert "Traceback" not in out + err, argv
    # A refused command prints nothing of a table it never made.
    assert code not in (1, cli.USAGE_EXIT) or out == "", argv
