"""Command line interface.

Exit codes: 0 success, 1 domain error (bad arguments to a well-formed
command), 2 verification failure (a certify run found a mismatch), 64
usage error (unknown command or flag).

When QUADSG_MEMO_PATH is set, the shared mu table is loaded from that
file at startup and written back when a command grew it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

from . import embedding as embedding_mod
from . import invariants as invariants_mod
from .mu import (
    adopt_shared_table,
    bound_profiles,
    bounds_csv,
    load_table,
    mu,
    save_table,
    shared_table,
    triangular,
)
from . import search as search_mod
from . import semigroup as semigroup_mod

__all__ = ["USAGE_EXIT", "FAILURE_EXIT", "build_parser", "main", "run"]

USAGE_EXIT = 64
FAILURE_EXIT = 2


class _UsageError(Exception):
    """Command line misuse detected after parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse defaults to exit code 2; usage problems are 64 here.
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(header: list[str], rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_mu(ns) -> int:
    value = mu(ns.n)
    if ns.format == "json":
        _print_json({"n": ns.n, "mu": value})
    elif ns.format == "csv":
        _write_csv(["n", "mu"], [[ns.n, value]])
    else:
        print(value)
    return 0


def _cmd_bounds(ns) -> int:
    if ns.format == "csv":
        sys.stdout.write(bounds_csv(ns.n_max))
    elif ns.format == "json":
        _print_json([asdict(p) for p in bound_profiles(ns.n_max)])
    else:
        for p in bound_profiles(ns.n_max):
            print(p.n, p.mu, _fmt(p.lower), _fmt(p.gauss), _fmt(p.combined))
    return 0


def _cmd_semigroup(ns) -> int:
    s = semigroup_mod.make_semigroup(ns.a, ns.b)
    info = semigroup_mod.describe(s)
    if ns.format == "plain":
        gens = " ".join(str(y) for y in info["generators"])
        print(f"S({s.a},{s.b}) trivial={str(s.trivial).lower()} generators {gens}")
    else:
        _print_json(info)
    return 0


def _cmd_apery(ns) -> int:
    s = semigroup_mod.make_semigroup(ns.a, ns.b)
    ap = invariants_mod.apery_oracle(s) if ns.oracle else invariants_mod.apery_closed(s)
    if ns.format == "json":
        _print_json({"a": s.a, "b": s.b, "modulus": ap.modulus, "elements": list(ap.elements)})
    elif ns.format == "csv":
        _write_csv(["residue", "element"], list(enumerate(ap.elements)))
    else:
        print(" ".join(str(w) for w in ap.elements))
    return 0


def _cmd_frobenius(ns) -> int:
    s = semigroup_mod.make_semigroup(ns.a, ns.b)
    value = invariants_mod.frobenius_oracle(s) if ns.oracle else invariants_mod.frobenius(s)
    if ns.format == "json":
        _print_json({"a": s.a, "b": s.b, "frobenius": value})
    else:
        print(value)
    return 0


def _cmd_genus(ns) -> int:
    s = semigroup_mod.make_semigroup(ns.a, ns.b)
    value = invariants_mod.genus_oracle(s) if ns.oracle else invariants_mod.genus(s)
    if ns.format == "json":
        _print_json({"a": s.a, "b": s.b, "genus": value})
    else:
        print(value)
    return 0


_SWEEP_HEADER = ["a", "b", "frobenius", "genus", "F_lo", "F_hi", "g_lo", "g_hi"]


def _summary_row(summary) -> list:
    return [
        summary.a,
        summary.b,
        summary.frobenius,
        summary.genus,
        _fmt(summary.frobenius_low),
        _fmt(summary.frobenius_high),
        _fmt(summary.genus_low),
        _fmt(summary.genus_high),
    ]


def _cmd_invariants(ns) -> int:
    if ns.sweep:
        if ns.a_max is None or ns.b_max is None:
            raise _UsageError("--sweep needs --a-max and --b-max")
        summaries = []
        for a in range(2, ns.a_max + 1):
            for b in range(1, ns.b_max + 1):
                if math.gcd(a, b) != 1:
                    continue
                s = semigroup_mod.make_semigroup(a, b)
                summaries.append(invariants_mod.invariant_summary(s))
        if ns.format == "json":
            _print_json([asdict(x) for x in summaries])
        else:
            _write_csv(_SWEEP_HEADER, [_summary_row(x) for x in summaries])
        return 0
    if ns.a is None or ns.b is None:
        raise _UsageError("need --a and --b (or --sweep with --a-max/--b-max)")
    s = semigroup_mod.make_semigroup(ns.a, ns.b)
    summary = invariants_mod.invariant_summary(s)
    if ns.format == "json":
        _print_json(asdict(summary))
    elif ns.format == "csv":
        _write_csv(_SWEEP_HEADER, [_summary_row(summary)])
    else:
        print(f"frobenius {summary.frobenius}")
        print(f"genus {summary.genus}")
        print(f"frobenius_bounds {_fmt(summary.frobenius_low)} {_fmt(summary.frobenius_high)}")
        print(f"genus_bounds {_fmt(summary.genus_low)} {_fmt(summary.genus_high)}")
        print(f"bounds_certified {str(summary.bounds_certified).lower()}")
    return 0


def _cmd_embedding(ns) -> int:
    if ns.certify:
        failures = 0
        for cert in search_mod.decomposition_certificates():
            status = "PASS" if cert.ok else "FAIL"
            if not cert.ok:
                failures += 1
            print(f"{status} {cert.kind} a={cert.a} n={cert.n}: {cert.detail}")
        return 0 if failures == 0 else FAILURE_EXIT
    if ns.a is None or ns.b is None:
        raise _UsageError("need --a and --b (or --certify)")
    dimension = embedding_mod.embedding_dimension(ns.a, ns.b)
    s = semigroup_mod.make_semigroup(ns.a, ns.b)
    if ns.oracle:
        gens = embedding_mod.minimal_generators_oracle(s)
    else:
        gens = embedding_mod.minimal_generators_closed(s)
    if len(gens) != dimension:
        print(
            f"error: index list of length {len(gens)} disagrees with dimension {dimension}",
            file=sys.stderr,
        )
        return FAILURE_EXIT
    if ns.format == "json":
        _print_json(
            {
                "a": ns.a,
                "b": ns.b,
                "dimension": dimension,
                "indices": list(gens.indices),
                "elements": list(gens.elements),
            }
        )
    else:
        print(f"dimension {dimension}")
        print("indices " + " ".join(str(n) for n in gens.indices))
    return 0


def _cmd_search_drop(ns) -> int:
    report = search_mod.search_mu_drop(ns.a_max)
    rows = [[h.a, h.n, h.mu_n, h.mu_shifted, h.drop] for h in report.hits]
    if ns.format == "json":
        _print_json(
            {
                "search_id": report.search_id,
                "a_max": report.a_max,
                "elapsed": report.elapsed,
                "hits": [
                    {"a": h.a, "n": h.n, "mu_n": h.mu_n, "mu_n_plus_a": h.mu_shifted, "drop": h.drop}
                    for h in report.hits
                ],
            }
        )
    else:
        _write_csv(["a", "n", "mu_n", "mu_n_plus_a", "drop"], rows)
    return 0


def _cmd_search_eq(ns) -> int:
    report = search_mod.search_embedding_eq(ns.a_max, raw=ns.raw)
    header = ["a", "n", "binom", "residue", "mu_residue"]
    rows = [[h.a, h.n, h.binom, h.residue, h.mu_residue] for h in report.hits]
    if ns.raw:
        header.append("excluded_by")
        rows = [row + [h.excluded_by] for row, h in zip(rows, report.hits)]
    if ns.format == "json":
        _print_json(
            {
                "search_id": report.search_id,
                "a_max": report.a_max,
                "elapsed": report.elapsed,
                "hits": [asdict(h) for h in report.hits],
            }
        )
    else:
        _write_csv(header, rows)
    return 0


def _cmd_g_analysis(ns) -> int:
    ga = search_mod.g_analysis()
    if ns.format == "json":
        _print_json(asdict(ga))
    elif ns.format == "csv":
        _write_csv(
            ["quantity", "value"],
            [[k, _fmt(v)] for k, v in asdict(ga).items()],
        )
    else:
        for k, v in asdict(ga).items():
            print(k, _fmt(v))
    return 0


def _cmd_certify(ns) -> int:
    checks = 0
    failures = 0

    def report(name: str, ok: bool, info: str = "") -> None:
        nonlocal checks, failures
        checks += 1
        if not ok:
            failures += 1
        suffix = f": {info}" if info else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")

    table = shared_table()
    table.ensure(triangular(2000))
    anchors = table[0] == 0 and table[1] == 2 and table[2] == 4
    triangular_ok = all(table[triangular(i)] == i for i in range(2, 2001))
    report("mu anchors and exact triangular values to index 2000", anchors and triangular_ok)

    for cert in search_mod.exception_certificates(table):
        report(f"exceptional drop a={cert.a} n={cert.n}", cert.ok, cert.detail)

    for cert in search_mod.decomposition_certificates():
        report(f"{cert.kind} a={cert.a} n={cert.n}", cert.ok, cert.detail)

    drop = search_mod.search_mu_drop(485, table=table)
    report(
        "drop search to 485 finds exactly the eight known pairs",
        drop.pairs() == search_mod.EXPECTED_DROP_PAIRS
        and all(h.drop == 2 for h in drop.hits),
    )

    eq = search_mod.search_embedding_eq(655, table=table)
    report(
        "residue search to 655 finds exactly the thirty known pairs",
        eq.pairs() == search_mod.EXPECTED_RESIDUE_PAIRS,
    )

    raw = search_mod.search_embedding_eq(655, raw=True, table=table)
    extras = [h for h in raw.hits if h.excluded_by]
    print(f"INFO raw residue scan extras at 655: {len(extras)} (reported, not asserted)")

    ga = search_mod.g_analysis()
    report(
        "bound-gap peak near 52.15 with value near 4.59",
        abs(ga.local_max_location - 52.15) <= 0.05
        and abs(ga.local_max_value - 4.59) <= 0.02,
    )
    report(
        "bound-gap roots solve to 1e-9 inside (485, 486) and (655, 656)",
        abs(search_mod.g_of(ga.root_at_2) - 2.0) <= 1e-9
        and abs(search_mod.g_of(ga.root_at_1) - 1.0) <= 1e-9
        and 485 < ga.root_at_2 < 486
        and 655 < ga.root_at_1 < 656,
    )
    report(
        "bound-gap values at the recorded crossings are within 0.01",
        abs(search_mod.g_of(485.92) - 2.0) <= 0.01
        and abs(search_mod.g_of(655.24) - 1.0) <= 0.01,
    )

    print(f"certified {checks - failures}/{checks} checks")
    return 0 if failures == 0 else FAILURE_EXIT


def _cmd_tgrid(ns) -> int:
    if ns.m_max > 500 or ns.n_max > 500:
        raise ValueError("grid extents are limited to 500")
    if ns.m_max < 0 or ns.n_max < 0:
        raise ValueError("grid extents must be nonnegative")
    table = shared_table()
    table.ensure(ns.n_max)
    if ns.format == "plain":
        for n in range(ns.n_max + 1):
            v = table[n]
            print("".join("#" if v <= m else "." for m in range(ns.m_max + 1)))
    else:
        rows = []
        for n in range(ns.n_max + 1):
            v = table[n]
            rows.extend([m, n, 1 if v <= m else 0] for m in range(ns.m_max + 1))
        _write_csv(["m", "n", "member"], rows)
    return 0


def _add_format(p, default: str, choices=("plain", "json", "csv")) -> None:
    p.add_argument("--format", choices=list(choices), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadsg",
        description="Invariants of numerical semigroups generated by quadratic sequences.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("mu", help="minimum index-weight of a triangular partition")
    p.add_argument("--n", type=int, required=True)
    _add_format(p, "plain")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("bounds", help="mu with its analytic envelope, tabulated")
    p.add_argument("--n-max", type=int, required=True)
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("semigroup", help="validate (a,b) and describe S(a,b)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_format(p, "json", choices=("plain", "json"))
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("apery", help="least member of S per residue class mod a")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="derive from the round-robin Apery set")
    _add_format(p, "plain")
    p.set_defaults(func=_cmd_apery)

    p = sub.add_parser("frobenius", help="largest integer outside S")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    _add_format(p, "plain", choices=("plain", "json"))
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("genus", help="number of gaps of S")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    _add_format(p, "plain", choices=("plain", "json"))
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("invariants", help="frobenius, genus, and bounds together")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--sweep", action="store_true", help="tabulate a coprime grid")
    p.add_argument("--a-max", type=int)
    p.add_argument("--b-max", type=int)
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("embedding", help="minimal generators and their count")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--oracle", action="store_true", help="recompute from the round-robin Apery set")
    p.add_argument("--certify", action="store_true", help="replay the decomposition tables")
    _add_format(p, "plain", choices=("plain", "json"))
    p.set_defaults(func=_cmd_embedding)

    p = sub.add_parser("search", help="exhaustive searches")
    mode = p.add_subparsers(dest="mode", metavar="mode", required=True)

    d = mode.add_parser("mu-drop", help="pairs where one shift lowers mu by 2..4")
    d.add_argument("--a-max", type=int, required=True)
    _add_format(d, "csv", choices=("csv", "json"))
    d.set_defaults(func=_cmd_search_drop)

    e = mode.add_parser("embedding-eq", help="pairs where an extra generator could enter")
    e.add_argument("--a-max", type=int, required=True)
    e.add_argument("--raw", action="store_true", help="keep hits that fail side constraints")
    _add_format(e, "csv", choices=("csv", "json"))
    e.set_defaults(func=_cmd_search_eq)

    p = sub.add_parser("g-analysis", help="peak and roots of the bound-gap margin")
    _add_format(p, "plain")
    p.set_defaults(func=_cmd_g_analysis)

    p = sub.add_parser("certify", help="replay every certificate and search")
    p.add_argument("--all", action="store_true", help="accepted for compatibility; always runs everything")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("tgrid", help="membership grid of the lifted pair monoid")
    p.add_argument("--m-max", type=int, default=49)
    p.add_argument("--n-max", type=int, default=49)
    _add_format(p, "csv", choices=("csv", "plain"))
    p.set_defaults(func=_cmd_tgrid)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT

    memo_path = os.environ.get("QUADSG_MEMO_PATH")
    preloaded = -1
    if memo_path and os.path.exists(memo_path):
        try:
            cached = load_table(memo_path)
        except (OSError, ValueError) as exc:
            print(f"warning: ignoring mu cache at {memo_path}: {exc}", file=sys.stderr)
        else:
            adopt_shared_table(cached)
            preloaded = cached.n_max

    try:
        code = ns.func(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if memo_path:
        table = shared_table()
        if table.n_max > max(preloaded, 0):
            try:
                save_table(table, memo_path)
            except OSError as exc:
                print(f"warning: could not save mu cache at {memo_path}: {exc}", file=sys.stderr)
    return code


def main() -> None:
    try:
        sys.exit(run())
    except BrokenPipeError:
        # Output was piped into a consumer that stopped reading (head, etc).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
