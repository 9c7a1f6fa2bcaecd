"""The package's public names, and the imports of its modules."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import quadsg as q

PUBLIC_NAMES = {
    "AperySet",
    "Certificate",
    "DropHit",
    "EMBED_DECOMPOSITIONS",
    "EXCEPTIONAL_CASES",
    "EXCEPTIONAL_PAIRS",
    "EXPECTED_DROP_PAIRS",
    "EXPECTED_RESIDUE_PAIRS",
    "EXTRA_INDEX_ROWS",
    "ExceptionalCase",
    "GAnalysis",
    "MinimalGeneratorSet",
    "MuTable",
    "NotANumericalSemigroup",
    "ORACLE_LIMIT",
    "QuadraticSemigroup",
    "ResidueHit",
    "SearchReport",
    "TABLE_LIMIT",
    "apery_closed",
    "apery_oracle",
    "bounds_certified",
    "combined_bound",
    "contains",
    "decomposition_certificates",
    "embedding_dimension",
    "exception_certificates",
    "frobenius",
    "frobenius_bounds",
    "frobenius_oracle",
    "g_analysis",
    "g_local_max",
    "g_of",
    "g_solve",
    "gauss_bound",
    "generator",
    "genus",
    "genus_bounds",
    "genus_oracle",
    "inverse_triangular",
    "largest_index",
    "lower_bound",
    "make_semigroup",
    "minimal_generators_closed",
    "minimal_generators_oracle",
    "mu",
    "mu_ab_closed",
    "mu_ab_oracle",
    "mu_oracle",
    "require_nontrivial",
    "search_embedding_eq",
    "search_mu_drop",
    "triangular",
    "verify_decomposition",
}


def test_public_names():
    assert len(q.__all__) == len(set(q.__all__)) == 54
    assert set(q.__all__) == PUBLIC_NAMES


def test_no_function_takes_a_table():
    # Every function reads mu through the head behind quadsg.mu.
    takes_table = {
        name
        for name in q.__all__
        if inspect.isfunction(getattr(q, name))
        and "table" in inspect.signature(getattr(q, name)).parameters
    }
    assert takes_table == set()


def test_mu_is_the_function_not_the_module():
    # The submodule quadsg.mu shares its name with the function mu.
    assert callable(q.mu)
    assert q.mu(26) == 13
    assert importlib.import_module("quadsg.mu").mu is q.mu


def test_every_imported_name_is_used():
    # No linter runs on the package, so this stands in for an unused-import
    # check: each module must use every name it imports, star imports aside.
    unused = {}
    for path in sorted(Path(q.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_private_name_is_used():
    # The dead-code half of the same stand-in: each module-level private
    # name (a function, class or assignment; dunders aside) is loaded
    # somewhere in the package, as a name or as a module's attribute.
    defined, loaded = set(), set()
    for path in sorted(Path(q.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id
                    for target in targets
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            defined |= {
                (path.name, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert defined, "no private names found"
    assert sorted((m, name) for m, name in defined if name not in loaded) == []


def test_cross_module_private_names():
    # The private names each module imports from, or reads off, another
    # package module: the coupling left once S(a,b) and all its invariants
    # live in one module.  A new entry should be a deliberate choice.
    shared = {}
    for path in sorted(Path(q.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is not None
            for alias in node.names
        }
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
        private = {name for name in names if name.startswith("_") and not name.startswith("__")}
        if private:
            shared[path.stem] = private
    assert shared == {
        "cli": {"_bounds_columns", "_mu_gather", "_mu_span", "_sweep_columns"},
        "invariants": {"_BLOCK", "_GREEDY", "_check_limit", "_mu_span", "_mu_sum"},
        "search": {"_BLOCK", "_mu_span"},
    }


def test_no_module_state_is_rebound():
    # The package keeps no state that a call rebinds: no `global` statement
    # anywhere, and the mu head is one read-only array of C(418,2) entries,
    # built at import.  The one cache left is `_apery`'s lru_cache.
    for path in sorted(Path(q.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name
    head = importlib.import_module("quadsg.mu")._head
    assert not head.flags.writeable
    assert len(head) == q.triangular(418)


def test_no_private_twins():
    # A private `_name` beside a public `name` in one module is two paths to
    # one result; the public one should carry the body.
    twins = {}
    for path in sorted(Path(q.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        twinned = {"_" + name for name in names if not name.startswith("_") and "_" + name in names}
        if twinned:
            twins[path.name] = twinned
    assert twins == {}


def test_only_the_search_records_are_dataclasses():
    # Every other result type is a named tuple.  These three stay dataclasses
    # because the benchmark's self-test (perfbench/selftest.py) builds
    # tampered copies of them with dataclasses.replace, which a named tuple
    # refuses.
    found = set()
    for path in sorted(Path(q.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= {
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for decorator in node.decorator_list
            if "dataclass" in ast.unparse(decorator)
        }
    assert found == {("search.py", "DropHit"), ("search.py", "ResidueHit"), ("search.py", "SearchReport")}


def test_benchmark_selftest_passes():
    # perfbench reads public names of the package (`AperySet.elements`,
    # `MinimalGeneratorSet.indices`, the search records, `MuTable(n).values`);
    # its self-test, run from the repository root, checks that they still
    # serve it.
    root = Path(__file__).resolve().parent.parent
    if not (root / "perfbench" / "selftest.py").exists():
        pytest.skip("perfbench/selftest.py is absent")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
