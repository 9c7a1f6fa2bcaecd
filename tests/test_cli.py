"""End-to-end checks of the command line interface through cli.run."""

import csv
import importlib
import io
import json
import math
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadsg as q
from quadsg import cli

# The package exports a function named mu, which shadows the submodule on
# the package object; go through importlib for the module itself.
mu_module = importlib.import_module("quadsg.mu")


@pytest.fixture(autouse=True)
def fresh_shared_table(monkeypatch):
    # Keep the module-level memo isolated so tests cannot see each other.
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    monkeypatch.delenv("QUADSG_MEMO_PATH", raising=False)


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


def test_usage_errors(capsys):
    assert run_cli(capsys, "nonsense")[0] == cli.USAGE_EXIT
    assert run_cli(capsys, "mu", "--n", "5", "--bogus")[0] == cli.USAGE_EXIT
    assert run_cli(capsys, "search")[0] == cli.USAGE_EXIT
    assert run_cli(capsys, "mu")[0] == cli.USAGE_EXIT
    assert run_cli(capsys, "certify", "--all", "--threads", "2")[0] == cli.USAGE_EXIT
    argv = ("search", "mu-drop", "--a-max", "30", "--threads", "2")
    assert run_cli(capsys, *argv)[0] == cli.USAGE_EXIT


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


def test_sweep_past_limit_is_domain_error(capsys):
    for a_max, b_max in [(10**11, 1), (10**11, 0), (2, 10**11)]:
        start = time.perf_counter()
        argv = ("invariants", "--sweep", "--a-max", str(a_max), "--b-max", str(b_max))
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: "), err


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


def test_invariants_sweep_needs_limits(capsys):
    code, _, err = run_cli(capsys, "invariants", "--sweep", "--a-max", "6")
    assert code == cli.USAGE_EXIT
    assert "usage error" in err


def test_embedding_plain(capsys):
    code, out, _ = run_cli(capsys, "embedding", "--a", "29", "--b", "1")
    assert code == 0
    assert out.splitlines() == ["dimension 9", "indices 1 2 3 4 5 6 7 8 11"]


def test_embedding_oracle_json(capsys):
    code, out, _ = run_cli(
        capsys, "embedding", "--a", "29", "--b", "1", "--oracle", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 9
    assert doc["indices"] == [1, 2, 3, 4, 5, 6, 7, 8, 11]
    assert doc["elements"][-1] == 374


def test_embedding_certify(capsys):
    code, out, _ = run_cli(capsys, "embedding", "--a", "29", "--b", "1", "--certify")
    assert code == 0
    lines = out.splitlines()
    passes = [line for line in lines if line.startswith("PASS")]
    assert len(passes) == 48
    assert not [line for line in lines if line.startswith("FAIL")]


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
    code, _, err = run_cli(capsys, "tgrid", "--m-max", "501", "--n-max", "3")
    assert code == 1
    assert "error:" in err


def test_certify_all(capsys):
    code, out, _ = run_cli(capsys, "certify", "--all")
    assert code == 0
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    assert lines[-1] == "certified 62/62 checks"


def test_memo_cache_roundtrip(tmp_path, monkeypatch, capsys):
    path = tmp_path / "mu.cache"
    monkeypatch.setenv("QUADSG_MEMO_PATH", str(path))

    code, out, _ = run_cli(capsys, "mu", "--n", "50")
    assert code == 0 and out == "17\n"
    assert path.exists()
    first = path.read_bytes()
    assert first[:4] == b"QSMU"

    # A second run that does not grow the table leaves the file alone.
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    code, out, _ = run_cli(capsys, "mu", "--n", "20")
    assert code == 0 and out == "10\n"  # two parts of size C(5,2)
    assert path.read_bytes() == first

    # Growing past the cached range rewrites the file.
    monkeypatch.setattr(mu_module, "_shared", mu_module.MuTable())
    code, out, _ = run_cli(capsys, "mu", "--n", "200")
    assert code == 0
    assert len(path.read_bytes()) > len(first)


def test_memo_cache_corrupt(tmp_path, monkeypatch, capsys):
    path = tmp_path / "mu.cache"
    path.write_bytes(b"not a cache at all")
    monkeypatch.setenv("QUADSG_MEMO_PATH", str(path))

    code = cli.run(["mu", "--n", "26"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "13\n"
    assert "warning: ignoring mu cache" in captured.err
    # The bad file was replaced with a valid one.
    assert path.read_bytes()[:4] == b"QSMU"


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
    # elapsed is a timing; the test writes it as 0 before comparing.
    ("search", "mu-drop", "--a-max", "50", "--format", "json"): {
        "search_id": "mu-drop",
        "a_max": 50,
        "elapsed": 0,
        "hits": [
            {"a": 29, "n": 26, "mu_n": 13, "mu_n_plus_a": 11, "drop": 2},
            {"a": 45, "n": 33, "mu_n": 15, "mu_n_plus_a": 13, "drop": 2},
            {"a": 47, "n": 44, "mu_n": 16, "mu_n_plus_a": 14, "drop": 2},
            {"a": 50, "n": 41, "mu_n": 16, "mu_n_plus_a": 14, "drop": 2},
        ],
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    expected = GOLDEN[argv]
    if not isinstance(expected, str):
        expected = json.dumps(expected, indent=2) + "\n"
    out = re.sub(r'^  "elapsed": [-+.e0-9]+,$', '  "elapsed": 0,', out, flags=re.M)
    assert out == expected


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
