"""Command line interface.

Exit codes: 0 success, 1 domain error (bad arguments to a well-formed
command), 2 verification failure (a certify run found a mismatch, or
`embedding --oracle` disagrees with `embedding_dimension`), 64 usage error
(unknown command or flag).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, astuple
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import invariants as invariants_mod
from .mu import _bounds_columns, _mu_gather, _mu_span, mu
from . import search as search_mod

if TYPE_CHECKING:
    import argparse

__all__ = ["USAGE_EXIT", "FAILURE_EXIT", "build_parser", "main", "run"]

USAGE_EXIT = 64
FAILURE_EXIT = 2


class _UsageError(Exception):
    """Command line misuse detected after parsing."""


def _fmt(x: float) -> str:
    return format(x, ".9g")


class _Record(NamedTuple):
    """What one command prints, in each format it offers.

    `doc` is the json document: dicts, lists, tuples and scalars, which
    `json.dump` takes as they are (so a named tuple would print as an
    array), or an iterator of str, which prints as an array one item at a
    time, each item json text already rendered at the array's indent.
    `header` and `rows` are the csv table, printed comma-joined since every
    cell is an int or a string with no comma, quote or newline, and `lines`
    the plain output.  Large parts are generators, or are built only for
    the format asked for.  A format the record has nothing for prints its
    plain lines, so a table rendered from row templates (`_stream`) gives
    its csv as `lines` and no header.
    """

    doc: object = None
    header: list | None = None
    rows: Iterable = ()
    lines: Iterable = ()
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
        for row in itertools.chain([record.header], record.rows):
            out.write(",".join(map(str, row)) + "\n")
    else:
        for line in record.lines:
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
    lines = (sep.join(map(row.__mod__, zip(*block))) for block in blocks)
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
    rows = [[k, _fmt(v)] for k, v in doc.items()]
    return _Record(doc, ["quantity", "value"], rows, [" ".join(row) for row in rows])


def _cmd_certify(ns) -> _Record:
    anchors = _mu_span(0, 2).tolist() == [0, 2, 4]
    # From level 418 on, mu(C(i,2)) = i + mu(0) = i holds by construction.
    i = np.arange(2, 2001, dtype=np.int64)
    exact = np.array_equal(_mu_gather(i, np.zeros_like(i)), i)
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
    mus = _mu_span(0, ns.n_max).tolist()
    columns = range(ns.m_max + 1)
    lines = ("".join("#" if v <= m else "." for m in columns) for v in mus)
    rows = ([m, n, 1 if v <= m else 0] for n, v in enumerate(mus) for m in columns)
    return _Record(header=["m", "n", "member"], rows=rows, lines=lines)


_REQUIRED = object()  # the default of an option that must be given


class _Option(NamedTuple):
    """One flag of a command: `kind` is int, bool (a switch) or the tuple of its choices."""

    flag: str
    kind: object
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    """One command word: its handler and options, or the mode words under it."""

    name: str
    help: str
    func: Callable[..., _Record] | None = None
    options: tuple[_Option, ...] = ()
    forms: tuple[str, str] | None = None  # names in invariants_mod: closed form, oracle
    modes: tuple[_Command, ...] = ()


def _handler(cmd: _Command) -> dict:
    """`func`, and `forms` looked up in invariants_mod when argv is read, not when the table is built."""
    found = {"func": cmd.func}
    if cmd.forms:
        found["forms"] = tuple(getattr(invariants_mod, name) for name in cmd.forms)
    return found


def _format(default: str, choices: tuple = ("plain", "json", "csv")) -> _Option:
    return _Option("--format", choices, default)


_PAIR = (_Option("--a", int, _REQUIRED), _Option("--b", int, _REQUIRED))
_ORACLE = _Option("--oracle", bool, False, "derive from the round-robin Apery set")
_SEARCH = (_Option("--a-max", int, _REQUIRED), _format("csv", ("csv", "json")))

# Every command, in the order of the help text; `build_parser` and `_match`
# both read it.
_COMMANDS = (
    _Command("mu", "minimum index-weight of a triangular partition", _cmd_mu,
             (_Option("--n", int, _REQUIRED), _format("plain"))),
    _Command("bounds", "mu with its analytic envelope, tabulated", _cmd_bounds,
             (_Option("--n-max", int, _REQUIRED), _format("csv"))),
    _Command("semigroup", "validate (a,b) and describe S(a,b)", _cmd_semigroup,
             (*_PAIR, _format("json", ("plain", "json")))),
    _Command("apery", "least member of S per residue class mod a", _cmd_apery,
             (*_PAIR, _ORACLE, _format("plain")), ("apery_closed", "apery_oracle")),
    _Command("frobenius", "largest integer outside S", _cmd_frobenius_or_genus,
             (*_PAIR, _ORACLE, _format("plain", ("plain", "json"))), ("frobenius", "frobenius_oracle")),
    _Command("genus", "number of gaps of S", _cmd_frobenius_or_genus,
             (*_PAIR, _ORACLE, _format("plain", ("plain", "json"))), ("genus", "genus_oracle")),
    _Command("invariants", "frobenius, genus, and bounds together", _cmd_invariants, (
        _Option("--a", int),
        _Option("--b", int),
        _Option("--sweep", bool, False, "tabulate a coprime grid (rows print as they are made)"),
        _Option("--a-max", int),
        _Option("--b-max", int),
        _format("csv"),
    )),
    _Command("embedding", "minimal generators and their count", _cmd_embedding,
             (*_PAIR, _ORACLE, _format("plain", ("plain", "json"))),
             ("minimal_generators_closed", "minimal_generators_oracle")),
    _Command("search", "exhaustive searches", modes=(
        _Command("mu-drop", "pairs where one shift lowers mu by 2..4", _cmd_search_drop, _SEARCH),
        _Command("embedding-eq", "pairs where an extra generator could enter", _cmd_search_eq, _SEARCH),
    )),
    _Command("g-analysis", "peak and roots of the bound-gap margin", _cmd_g_analysis, (_format("plain"),)),
    _Command("certify", "replay every certificate and search", _cmd_certify,
             (_Option("--all", bool, False, "accepted for compatibility; always runs everything"),)),
    _Command("tgrid", "membership grid of the lifted pair monoid", _cmd_tgrid,
             (_Option("--m-max", int, 49), _Option("--n-max", int, 49), _format("csv", ("csv", "plain")))),
)


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for an argv spelled exactly; else None.

    Exactly means: the command word (and the mode word of `search`), then
    each option at most once, flag spelled in full, a switch alone and any
    other flag followed by its value: an int as ASCII `-?[0-9]+`, a choice
    as declared.  Every required flag must be present.  Anything else
    (help, abbreviations, `--flag=value`, repeats, stray words, `--`) is
    left to argparse, which also accepts some of it, such as `+5` or
    `1_0` for an int.
    """
    values = {}
    commands, words = _COMMANDS, iter(argv)
    for dest in ("command", "mode"):
        word = next(words, None)
        cmd = next((c for c in commands if c.name == word), None)
        if cmd is None:
            return None
        values[dest] = word
        if not cmd.modes:
            break
        commands = cmd.modes
    options = {opt.flag: opt for opt in cmd.options}
    values.update((opt.dest, opt.default) for opt in cmd.options)
    for word in words:
        opt = options.pop(word, None)
        if opt is None:
            return None
        if opt.kind is bool:
            values[opt.dest] = True
            continue
        value = next(words, None)
        if value is None:
            return None
        if opt.kind is int:
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
        elif value not in opt.kind:
            return None
        values[opt.dest] = value
    if any(opt.default is _REQUIRED for opt in options.values()):
        return None
    return SimpleNamespace(**values, **_handler(cmd))


def build_parser() -> argparse.ArgumentParser:
    """Every command's argparse parser, built from the command table.

    `run` builds it only for an argv `_match` does not read: help, usage
    errors, and valid but unusual spellings such as abbreviated or
    `=`-joined flags.  It is the only writer of help and usage text, and
    the only importer of argparse (and, through it, gettext and locale).
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):
            # argparse defaults to exit code 2; usage problems are 64 here.
            self.print_usage(sys.stderr)
            self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")

    class _Store(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            # argparse reads `--flag=--` as [], past the type and choice
            # checks; refuse it as it refuses `--flag --`.
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    def add_commands(parser: argparse.ArgumentParser, commands: tuple[_Command, ...], dest: str) -> None:
        sub = parser.add_subparsers(dest=dest, metavar=dest, required=True)
        for cmd in commands:
            p = sub.add_parser(cmd.name, help=cmd.help)
            if cmd.modes:
                add_commands(p, cmd.modes, "mode")
                continue
            for opt in cmd.options:
                if opt.kind is bool:
                    p.add_argument(opt.flag, action="store_true", help=opt.help)
                elif opt.kind is int and opt.default is _REQUIRED:
                    p.add_argument(opt.flag, action=_Store, type=int, required=True)
                elif opt.kind is int:
                    p.add_argument(opt.flag, action=_Store, type=int, default=opt.default)
                else:
                    p.add_argument(opt.flag, action=_Store, choices=list(opt.kind), default=opt.default)
            p.set_defaults(**_handler(cmd))

    parser = _Parser(
        prog="quadsg",
        description="Invariants of numerical semigroups generated by quadratic sequences.",
    )
    add_commands(parser, _COMMANDS, "command")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command line (default sys.argv[1:]); the exit code.

    An argv spelled exactly is read off the command table (`_match`)
    without building a parser; any other goes to `build_parser().parse_args`,
    which prints help and usage errors.
    """
    argv = sys.argv[1:] if argv is None else argv
    ns = _match(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            # Only _Parser.error (64) and parser.exit (0) leave parse_args.
            return exc.code

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
