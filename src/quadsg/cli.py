"""Command line interface.

Exit codes: 0 success, 1 domain error (bad arguments to a well-formed
command), 2 verification failure (a certify run found a mismatch, or
`embedding --oracle` disagrees with `embedding_dimension`), 64 usage error
(unknown command or flag).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, astuple
from typing import NamedTuple

import numpy as np

from . import invariants as invariants_mod
from .mu import _bounds_columns, mu, shared_table, triangular
from . import search as search_mod

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


class _Record(NamedTuple):
    """What one command prints, in each format it offers.

    `doc` is the json document: dicts, lists, tuples and scalars, which
    `json.dump` takes as they are (so a named tuple would print as an
    array), or an iterator of str, which prints as an array one item at a
    time, each item json text already rendered at the array's indent.
    `header` and `rows` are the csv table, and `lines` the plain output, by
    default the csv rows joined by spaces.  Large parts are generators, or
    are built only for the format asked for.  A format the record has
    nothing for prints its plain lines, so a table rendered from row
    templates (`_stream`) gives its csv as `lines` and no header.
    """

    doc: object = None
    header: list | None = None
    rows: Iterable = ()
    lines: Iterable | None = None
    code: int = 0


def _render(fmt: str, record: _Record) -> None:
    """Write a command's record to stdout: the one writer of command output."""
    out = sys.stdout
    if fmt == "json" and record.doc is not None:
        if isinstance(record.doc, Iterator):
            _dump_array(record.doc, out)
        else:
            json.dump(record.doc, out, indent=2)
        out.write("\n")
    elif fmt == "csv" and record.header is not None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(record.header)
        writer.writerows(record.rows)
    else:
        lines = record.lines
        if lines is None:
            lines = (" ".join(map(str, row)) for row in record.rows)
        for line in lines:
            out.write(f"{line}\n")


def _dump_array(items: Iterator[str], out) -> None:
    """Frame json texts rendered at indent 2 as `json.dump` frames a list, as they come."""
    sep = "[\n  "
    for item in items:
        out.write(sep + item)
        sep = ",\n  "
    out.write("[]" if sep == "[\n  " else "\n]")


def _cmd_mu(ns) -> _Record:
    value = mu(ns.n)
    return _Record({"n": ns.n, "mu": value}, ["n", "mu"], [[ns.n, value]], [value])


def _stream(fmt: str, header: str, templates: dict, blocks: Iterator[list[list]]) -> _Record:
    """A table printed one string per block of columns, from one row template per format.

    csv leads with the header, and a format with no template prints the csv
    table.  A json template is what `json.dump` writes for the row's object
    at the array's indent: every cell is a Python number, whose repr json
    prints, or a json literal.
    """
    fmt = fmt if fmt in templates else "csv"
    row, sep = templates[fmt], ",\n  " if fmt == "json" else "\n"
    lines = (sep.join(row % cells for cells in zip(*block)) for block in blocks)
    if fmt == "csv":
        lines = itertools.chain([header], lines)
    return _Record(lines, lines=lines)


_BOUNDS_ROW = {
    "csv": "%d,%d,%.9g,%.9g,%.9g",
    "plain": "%d %d %.9g %.9g %.9g",
    "json": '{\n    "n": %d,\n    "mu": %d,\n    "lower": %r,\n    "gauss": %r,\n    "combined": %r\n  }',
}


def _cmd_bounds(ns) -> _Record:
    return _stream(ns.format, "n,mu,lower,gauss,combined", _BOUNDS_ROW, _bounds_columns(ns.n_max))


_SHOWN_GENERATORS = 8


def _cmd_semigroup(ns) -> _Record:
    s = invariants_mod.make_semigroup(ns.a, ns.b)
    gens = [invariants_mod.generator(s, n) for n in range(_SHOWN_GENERATORS)]
    doc = {"a": s.a, "b": s.b, "trivial": s.trivial, "generators": gens}
    line = f"S({s.a},{s.b}) trivial={str(s.trivial).lower()} generators {' '.join(map(str, gens))}"
    return _Record(doc, lines=[line])


def _pair_form(ns) -> tuple:
    """S(a, b) and what the command's closed form, or with --oracle its oracle, gives for it."""
    s = invariants_mod.make_semigroup(ns.a, ns.b)
    closed, oracle = ns.forms
    return s, (oracle if ns.oracle else closed)(s)


def _cmd_apery(ns) -> _Record:
    s, ap = _pair_form(ns)
    if ns.format == "plain":
        return _Record(lines=[" ".join(map(str, ap.elements))])
    doc = {"a": s.a, "b": s.b, "modulus": s.a, "elements": ap.elements}
    return _Record(doc, ["residue", "element"], enumerate(ap.elements))


def _cmd_frobenius_or_genus(ns) -> _Record:
    s, value = _pair_form(ns)
    return _Record({"a": s.a, "b": s.b, ns.command: value}, lines=[value])


_SWEEP_HEADER = "a,b,frobenius,genus,F_lo,F_hi,g_lo,g_hi"
_SWEEP_ROW = {
    "csv": "%d,%d,%d,%d,%.9g,%.9g,%.9g,%.9g",
    "json": '{\n    "a": %d,\n    "b": %d,\n    "frobenius": %d,\n    "genus": %d,\n'
    '    "frobenius_low": %r,\n    "frobenius_high": %r,\n    "genus_low": %r,\n'
    '    "genus_high": %r,\n    "bounds_certified": %s\n  }',
}
# The json names of one pair's row, in the order of the sweep's json template.
_INVARIANTS_KEYS = (
    "a", "b", "frobenius", "genus", "frobenius_low", "frobenius_high",
    "genus_low", "genus_high", "bounds_certified",
)


def _cmd_invariants(ns) -> _Record:
    if ns.sweep:
        if ns.a_max is None or ns.b_max is None:
            raise _UsageError("--sweep needs --a-max and --b-max")
        # The sweep has no plain row template, so plain prints the csv
        # table; only json prints bounds_certified.
        blocks = invariants_mod._sweep_columns(ns.a_max, ns.b_max)
        if ns.format == "json":
            certified = invariants_mod.bounds_certified
            blocks = ([*c, [str(certified(a, b)).lower() for a, b in zip(*c[:2])]] for c in blocks)
        return _stream(ns.format, _SWEEP_HEADER, _SWEEP_ROW, blocks)
    if ns.a is None or ns.b is None:
        raise _UsageError("need --a and --b (or --sweep with --a-max/--b-max)")
    s = invariants_mod.make_semigroup(ns.a, ns.b)
    invariants_mod.require_nontrivial(s)
    a, b = s.a, s.b
    f, g = invariants_mod.frobenius(s), invariants_mod.genus(s)
    f_low, f_high = invariants_mod.frobenius_bounds(a, b)
    g_low, g_high = invariants_mod.genus_bounds(a, b)
    row = (a, b, f, g, f_low, f_high, g_low, g_high)
    certified = invariants_mod.bounds_certified(a, b)
    doc = dict(zip(_INVARIANTS_KEYS, (*row, certified)))
    if ns.format == "csv":
        return _Record(lines=[_SWEEP_HEADER, _SWEEP_ROW["csv"] % row])
    lines = [
        f"frobenius {f}",
        f"genus {g}",
        f"frobenius_bounds {_fmt(f_low)} {_fmt(f_high)}",
        f"genus_bounds {_fmt(g_low)} {_fmt(g_high)}",
        f"bounds_certified {str(certified).lower()}",
    ]
    return _Record(doc, lines=lines)


def _cmd_embedding(ns) -> _Record:
    s, gens = _pair_form(ns)
    indices = gens.indices
    # The closed list is the closed count written out; the oracle's is checked against it.
    if ns.oracle and len(indices) != (dimension := invariants_mod.embedding_dimension(s.a, s.b)):
        print(
            f"error: index list of length {len(indices)} disagrees with dimension {dimension}",
            file=sys.stderr,
        )
        return _Record(code=FAILURE_EXIT)
    if ns.format == "json":
        elements = [invariants_mod.generator(s, n) for n in indices]
        doc = {"a": s.a, "b": s.b, "dimension": len(indices), "indices": indices, "elements": elements}
        return _Record(doc)
    return _Record(lines=[f"dimension {len(indices)}", "indices " + " ".join(map(str, indices))])


def _cmd_search_drop(ns) -> _Record:
    report = search_mod.search_mu_drop(ns.a_max)
    hits = [
        {"a": h.a, "n": h.n, "mu_n": h.mu_n, "mu_n_plus_a": h.mu_shifted, "drop": h.drop}
        for h in report.hits
    ]
    header = ["a", "n", "mu_n", "mu_n_plus_a", "drop"]
    return _Record({**asdict(report), "hits": hits}, header, [list(h.values()) for h in hits])


def _cmd_search_eq(ns) -> _Record:
    report = search_mod.search_embedding_eq(ns.a_max)
    header = ["a", "n", "binom", "residue", "mu_residue"]
    return _Record(asdict(report), header, map(astuple, report.hits))


def _cmd_g_analysis(ns) -> _Record:
    doc = search_mod.g_analysis()._asdict()
    return _Record(doc, ["quantity", "value"], [[k, _fmt(v)] for k, v in doc.items()])


def _cmd_certify(ns) -> _Record:
    table = shared_table().ensure(triangular(2000))
    anchors = table[0] == 0 and table[1] == 2 and table[2] == 4
    i = np.arange(2, 2001)
    exact = np.array_equal(table.values[i * (i - 1) // 2], i)
    checks = [("mu anchors and exact triangular values to index 2000", anchors and exact)]

    for c in search_mod.exception_certificates():
        checks.append((f"exceptional drop a={c.a} n={c.n}: {c.detail}", c.ok))

    for c in search_mod.decomposition_certificates():
        checks.append((f"{c.kind} a={c.a} n={c.n}: {c.detail}", c.ok))

    drop = search_mod.search_mu_drop(485)
    checks.append((
        "drop search to 485 finds exactly the eight known pairs",
        drop.pairs() == search_mod.EXPECTED_DROP_PAIRS
        and all(h.drop == 2 for h in drop.hits),
    ))

    eq = search_mod.search_embedding_eq(655)
    checks.append((
        "residue search to 655 finds exactly the thirty known pairs",
        eq.pairs() == search_mod.EXPECTED_RESIDUE_PAIRS,
    ))

    ga = search_mod.g_analysis()
    checks.append((
        "bound-gap peak near 52.15 with value near 4.59",
        abs(ga.local_max_location - 52.15) <= 0.05
        and abs(ga.local_max_value - 4.59) <= 0.02,
    ))
    checks.append((
        "bound-gap roots solve to 1e-9 inside (485, 486) and (655, 656)",
        abs(search_mod.g_of(ga.root_at_2) - 2.0) <= 1e-9
        and abs(search_mod.g_of(ga.root_at_1) - 1.0) <= 1e-9
        and 485 < ga.root_at_2 < 486
        and 655 < ga.root_at_1 < 656,
    ))
    checks.append((
        "bound-gap values at the recorded crossings are within 0.01",
        abs(search_mod.g_of(485.92) - 2.0) <= 0.01
        and abs(search_mod.g_of(655.24) - 1.0) <= 0.01,
    ))

    lines = [f"{'PASS' if ok else 'FAIL'} {text}" for text, ok in checks]
    passed = sum(ok for _, ok in checks)
    lines.append(f"certified {passed}/{len(checks)} checks")
    return _Record(lines=lines, code=0 if passed == len(checks) else FAILURE_EXIT)


def _cmd_tgrid(ns) -> _Record:
    if ns.m_max > 500 or ns.n_max > 500:
        raise ValueError("grid extents are limited to 500")
    if ns.m_max < 0 or ns.n_max < 0:
        raise ValueError("grid extents must be nonnegative")
    mus = [mu(n) for n in range(ns.n_max + 1)]
    columns = range(ns.m_max + 1)
    lines = ("".join("#" if v <= m else "." for m in columns) for v in mus)
    rows = ([m, n, 1 if v <= m else 0] for n, v in enumerate(mus) for m in columns)
    return _Record(header=["m", "n", "member"], rows=rows, lines=lines)


def _add_format(p, default: str, choices=("plain", "json", "csv")) -> None:
    p.add_argument("--format", choices=list(choices), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadsg",
        description="Invariants of numerical semigroups generated by quadratic sequences.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    # --a and --b, both required, for every command on one pair, and
    # --oracle for the four of them that have an oracle.
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--a", type=int, required=True)
    pair.add_argument("--b", type=int, required=True)
    by_oracle = argparse.ArgumentParser(add_help=False)
    by_oracle.add_argument("--oracle", action="store_true", help="derive from the round-robin Apery set")

    p = sub.add_parser("mu", help="minimum index-weight of a triangular partition")
    p.add_argument("--n", type=int, required=True)
    _add_format(p, "plain")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("bounds", help="mu with its analytic envelope, tabulated")
    p.add_argument("--n-max", type=int, required=True)
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("semigroup", parents=[pair], help="validate (a,b) and describe S(a,b)")
    _add_format(p, "json", choices=("plain", "json"))
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("apery", parents=[pair, by_oracle], help="least member of S per residue class mod a")
    _add_format(p, "plain")
    forms = (invariants_mod.apery_closed, invariants_mod.apery_oracle)
    p.set_defaults(func=_cmd_apery, forms=forms)

    for name, help_text, closed, oracle in (
        ("frobenius", "largest integer outside S", invariants_mod.frobenius, invariants_mod.frobenius_oracle),
        ("genus", "number of gaps of S", invariants_mod.genus, invariants_mod.genus_oracle),
    ):
        p = sub.add_parser(name, parents=[pair, by_oracle], help=help_text)
        _add_format(p, "plain", choices=("plain", "json"))
        p.set_defaults(func=_cmd_frobenius_or_genus, forms=(closed, oracle))

    p = sub.add_parser("invariants", help="frobenius, genus, and bounds together")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument(
        "--sweep",
        action="store_true",
        help="tabulate a coprime grid (rows print as they are made)",
    )
    p.add_argument("--a-max", type=int)
    p.add_argument("--b-max", type=int)
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("embedding", parents=[pair, by_oracle], help="minimal generators and their count")
    _add_format(p, "plain", choices=("plain", "json"))
    forms = (invariants_mod.minimal_generators_closed, invariants_mod.minimal_generators_oracle)
    p.set_defaults(func=_cmd_embedding, forms=forms)

    p = sub.add_parser("search", help="exhaustive searches")
    mode = p.add_subparsers(dest="mode", metavar="mode", required=True)

    for name, help_text, handler in (
        ("mu-drop", "pairs where one shift lowers mu by 2..4", _cmd_search_drop),
        ("embedding-eq", "pairs where an extra generator could enter", _cmd_search_eq),
    ):
        m = mode.add_parser(name, help=help_text)
        m.add_argument("--a-max", type=int, required=True)
        _add_format(m, "csv", choices=("csv", "json"))
        m.set_defaults(func=handler)

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

    try:
        record = ns.func(ns)
        _render(getattr(ns, "format", "plain"), record)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return record.code


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
