"""Spans around quadsg's public functions, installed from the benchmark.

A traced child wraps each boundary below before its job runs.  A span
records name, start, end and parent span; spans stay in memory and go back
to the benchmark process in the child's report, which carries the child-run
id.  A
boundary that is missing (renamed or deleted by a refactor) is listed, not
an error.  Counts are computed at the boundary from arguments and results.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time

# C(100, 2): MuTable fills entry by entry up to here and in blocks past it.
SCALAR_REGION_END = 4950


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._local = threading.local()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span)."""
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_drop(tr, args, kwargs, report):
    a_max = _arg(args, kwargs, 0, "a_max")
    tr.add("search.candidates", sum(a - 3 for a in range(4, a_max + 1)))
    tr.add("search.hits", len(report.hits))


def _count_residue(tr, args, kwargs, report):
    a_max = _arg(args, kwargs, 0, "a_max")
    tr.add("search.candidates", sum(range(2, a_max + 1)))
    tr.add("search.hits", len(report.hits))


def _count_membership(tr, args, kwargs, table):
    import numpy as np

    gaps = np.flatnonzero(~table.reachable)
    frobenius = int(gaps[-1]) if gaps.size else -1
    tr.add("semigroup.membership_entries", table.bound + 1)
    tr.add("semigroup.needed_entries", frobenius + table.semigroup.a)


def _count_min_gens(tr, args, kwargs, result):
    s = _arg(args, kwargs, 0, "s")
    last = _arg(args, kwargs, 1, "last_index")
    if last is None:
        last = s.a + s.b + 6 if s.trivial else s.a + 5
    tr.add("embedding.oracle_reach_entries", last * s.a + last * (last - 1) // 2 * s.b + 1)


def _count_save(tr, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    tr.high("mu.cache_bytes", os.path.getsize(path))


def _count_load(tr, args, kwargs, table):
    tr.high("mu.cache_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))
    tr.high("mu.table_bytes", table.values.nbytes)


# (module, attribute, span name, count hook)
BOUNDARIES = (
    ("quadsg.cli", "run", "cli.run", None),
    ("quadsg.mu", "load_table", "mu.load", _count_load),
    ("quadsg.mu", "save_table", "mu.save", _count_save),
    ("quadsg.search", "search_mu_drop", "search.drop", _count_drop),
    ("quadsg.search", "search_embedding_eq", "search.residue", _count_residue),
    ("quadsg.search", "exception_certificates", "search.certs", None),
    ("quadsg.search", "decomposition_certificates", "search.certs", None),
    ("quadsg.search", "g_analysis", "search.g_analysis", None),
    ("quadsg.semigroup", "membership_table", "semigroup.membership", _count_membership),
    ("quadsg.embedding", "minimal_generators_oracle", "embedding.oracle", _count_min_gens),
    ("quadsg.invariants", "invariant_summary", "invariants.closed", None),
    ("quadsg.invariants", "apery_oracle", "invariants.oracle", None),
    ("quadsg.invariants", "frobenius_oracle", "invariants.oracle", None),
    ("quadsg.invariants", "genus_oracle", "invariants.oracle", None),
)


def _wrap(tr: Tracer, name: str, fn, hook):
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        result, _ = tr.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(tr, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_ensure(tr: Tracer, ensure):
    """MuTable.ensure, spanned only when it grows the table.

    A fill that crosses SCALAR_REGION_END is made as two calls, to
    SCALAR_REGION_END and then to the target, when that leaves the final
    table size unchanged; that splits scalar from block time.  ensure grows
    to max(n_max, 2 * current size), hence the condition.
    """

    def wrapper(self, n_max):
        old = self.n_max
        if not tr.active or n_max <= old:
            return ensure(self, n_max)
        if old < SCALAR_REGION_END and n_max >= 2 * max(SCALAR_REGION_END, 2 * old):
            tr.call("mu.fill.scalar", ensure, self, SCALAR_REGION_END)
            tr.add("mu.entries_filled", SCALAR_REGION_END - old)
            old = self.n_max
            result, span = tr.call("mu.fill.block", ensure, self, n_max)
        else:
            result, span = tr.call("mu.fill", ensure, self, n_max)
            if self.n_max <= SCALAR_REGION_END:
                span[0] = "mu.fill.scalar"
            elif old >= SCALAR_REGION_END:
                span[0] = "mu.fill.block"
        tr.add("mu.entries_filled", self.n_max - old)
        tr.high("mu.table_bytes", self.values.nbytes)
        return result

    wrapper.__wrapped__ = ensure
    return wrapper


def _replace_everywhere(old, new) -> None:
    """Rebind every quadsg module attribute that is `old` (including re-exports)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "quadsg" or mod_name.startswith("quadsg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap every boundary that exists in the imported quadsg; list the rest."""
    import importlib

    tr = Tracer()
    for mod_name, attr, name, hook in BOUNDARIES:
        try:
            fn = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError):
            tr.missing.append(f"{mod_name}.{attr}")
            continue
        _replace_everywhere(fn, _wrap(tr, name, fn, hook))
    try:
        table_cls = importlib.import_module("quadsg.mu").MuTable
        table_cls.ensure = _wrap_ensure(tr, table_cls.__dict__["ensure"])
    except (ImportError, AttributeError, KeyError):
        tr.missing.append("quadsg.mu.MuTable.ensure")
    return tr


# Per-layer times: total time of the outermost spans of each group, so a
# span nested in another of the same group is not counted twice.
TIME_GROUPS = {
    "mu.fill_s": ("mu.fill", "mu.fill.scalar", "mu.fill.block"),
    "mu.fill_scalar_s": ("mu.fill.scalar",),
    "mu.fill_block_s": ("mu.fill.block",),
    "mu.save_s": ("mu.save",),
    "mu.load_s": ("mu.load",),
    "search.drop_s": ("search.drop",),
    "search.residue_s": ("search.residue",),
    "search.certs_s": ("search.certs",),
    "search.g_analysis_s": ("search.g_analysis",),
    "semigroup.membership_s": ("semigroup.membership",),
    "embedding.oracle_s": ("embedding.oracle",),
    "invariants.closed_s": ("invariants.closed",),
    "invariants.oracle_s": ("invariants.oracle",),
}

COUNTS = (
    "mu.entries_filled",
    "mu.table_bytes",
    "mu.cache_bytes",
    "search.candidates",
    "search.hits",
    "semigroup.membership_entries",
    "embedding.oracle_reach_entries",
)


def group_time(spans, names) -> float:
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def self_time(spans, name) -> float:
    """Summed span time of `name` minus the time its direct children cover."""
    total = 0.0
    for i, (span_name, start, end, _) in enumerate(spans):
        if span_name == name:
            total += end - start - sum(e - s for _, s, e, p in spans if p == i)
    return total


def top_level_time(spans) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def child_layer_metrics(spans, counts) -> dict:
    """Per-layer numbers of one traced child."""
    m = {key: group_time(spans, names) for key, names in TIME_GROUPS.items()}
    for key in COUNTS:
        m[key] = counts.get(key, 0)
    m["cli.self_s"] = self_time(spans, "cli.run")
    m["mu.entries_per_s"] = m["mu.entries_filled"] / m["mu.fill_s"] if m["mu.fill_s"] else 0.0
    scan = m["search.drop_s"] + m["search.residue_s"]
    m["search.candidates_per_s"] = m["search.candidates"] / scan if scan else 0.0
    entries = m["semigroup.membership_entries"]
    m["semigroup.table_use_ratio"] = counts.get("semigroup.needed_entries", 0) / entries if entries else 0.0
    m["top_level_s"] = top_level_time(spans)
    return m


def layer_metrics(traced: list[dict]) -> dict:
    """Median over traced children of each per-layer number."""
    per_child = []
    for c in traced:
        m = child_layer_metrics(c["spans"], c["counts"])
        m["trace.span_coverage"] = m["top_level_s"] / c["wall_s"]
        per_child.append(m)
    return {key: statistics.median(m[key] for m in per_child) for key in per_child[0]}
