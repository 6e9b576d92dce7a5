"""Tests of the package as a whole."""

from __future__ import annotations

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

from conftest import cold_record, run_cold

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pfverify").glob("*.py"))


def test_library_imports_only_the_standard_library() -> None:
    # Besides the standard library, only the builtin SHA-256 module, named
    # _sha256 before Python 3.12 and _sha2 from it, in the fingerprint's
    # fallback chain.
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        builtin_hash, _ = _sha256_chain(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names or (
                    name in {"_sha256", "_sha2"} and id(node) in builtin_hash
                ), (path.name, name)


def test_the_library_has_no_float() -> None:
    # Every verdict rests on exact arithmetic: no float literal (a complex
    # one is a pair of floats) and no use of the name float, so no float
    # search or tolerance comes back.  A string such as "3.3e24" is text.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            ) or (isinstance(node, ast.Name) and node.id == "float"):
                found.append((path.name, node.lineno))
    assert SOURCES and not found, found


# The functions that choose a fingerprint prime or compute a fingerprint.
FINGERPRINT_RULE = {"mod_map", "mod_eval", "box_fingerprints", "resolve_mod_map"}


def test_only_the_sieve_calls_the_fingerprint_rule() -> None:
    callers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in FINGERPRINT_RULE:
                callers.add((path.name, name))
    assert callers and {caller for caller, _ in callers} == {"sieve.py"}, callers


def test_every_name_in_a_module_all_is_defined_there() -> None:
    # A stale __all__ entry names a deleted function, and `import *` fails.
    exported = 0
    for path in SOURCES:
        name = "pfverify" if path.stem == "__init__" else f"pfverify.{path.stem}"
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (path.name, attr)
            exported += 1
    assert exported


# What the symmetry search must not read: it proposes candidates by GF(5)
# images and decides them by exact arithmetic, never by fingerprints.
FINGERPRINT_STATE = {"fingerprint", "fingerprints", "mod_map", "mod_prime"}


def test_the_symmetry_search_reads_no_fingerprint_state() -> None:
    (path,) = [path for path in SOURCES if path.name == "symmetry.py"]
    read = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
    }
    assert not read & FINGERPRINT_STATE, read & FINGERPRINT_STATE


def _names_in(filename: str) -> set[str]:
    """Every name, attribute and imported module name in one source file."""
    (path,) = [path for path in SOURCES if path.name == filename]
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
    return named


def test_genesis_names_neither_the_fundamental_table_nor_the_sieve() -> None:
    # genesis checks fundamentality by definition, without either route.
    named = _names_in("genesis.py")
    assert not named & {"fundamental_table", "sieve"}, named


def test_route_one_names_nothing_of_route_two() -> None:
    # The closure buckets values by screen residues and tells them apart by
    # value_eq; it imports nothing from the sieve and names no modular map
    # or fingerprint, so the two routes stay independent.
    named = _names_in("closure.py")
    route_two = {"sieve", "mod_map", "ModMap", "mod_eval", "fingerprint"}
    assert not named & route_two, named & route_two


# Modules that only dataclasses brought in; a cold process pays for each.
UNUSED_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
PACKAGE_MODULES = {
    f"pfverify.{name}"
    for name in (
        "cli", "closure", "exact", "genesis", "lift", "pfield", "sieve", "symmetry"
    )
}


def test_importing_the_cli_loads_every_module_and_no_unused_stdlib() -> None:
    # perfbench/spans.py wraps the stage functions of every module found in
    # sys.modules after `import pfverify.cli`, so that import must register
    # all of them; closure, genesis, lift, sieve and symmetry are registered
    # lazily and run on first use (see the tests below).
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import pfverify.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = run_cold("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert not added & UNUSED_STDLIB, added & UNUSED_STDLIB
    assert {m for m in added if m.startswith("pfverify.")} == PACKAGE_MODULES


# The modules every process runs: the package, the CLI, and what parses a spec.
SPEC_MODULES = {"__init__", "cli", "exact", "pfield"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["funs", "all"], {"closure", "sieve"}),
        (["bounds", "H4"], {"sieve"}),
        (["genesis"], {"genesis"}),
        (["auts", "H3"], {"closure", "sieve", "symmetry"}),
        (["report", "H3"], {"closure", "sieve", "lift", "symmetry"}),
        (["verify-all"], {"closure", "sieve", "genesis", "lift", "symmetry"}),
    ],
    ids=["funs-all", "bounds-H4", "genesis", "auts-H3", "report-H3", "verify-all"],
)
def test_a_cold_command_executes_only_the_modules_it_runs(argv, extra) -> None:
    record = cold_record(*argv)
    assert record.status == 0
    assert record.executed == SPEC_MODULES | extra


# The json package and the modules it loads; the CLI writes its own JSON.
JSON_MODULES = {"json", "_json", "json.decoder", "json.scanner", "json.encoder"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [["funs", "all"], ["genesis"], ["report", "H3"], ["bounds", "H4"]],
    ids=["funs-all", "genesis", "report-H3", "bounds-H4"],
)
def test_a_cold_command_loads_no_json(argv, fmt) -> None:
    # The probe itself imports no json.
    record = cold_record(*argv, "--format", fmt)
    assert record.status == 0
    assert not record.modules & JSON_MODULES, record.modules & JSON_MODULES


def test_importing_the_cli_and_reading_the_specs_executes_no_stage_module() -> None:
    record = cold_record()
    assert record.executed == SPEC_MODULES
    assert {m for m in record.modules if m.startswith("pfverify.")} == PACKAGE_MODULES


# Stage functions that perfbench/spans.py wraps, one per module at least.
STAGE_FUNCTIONS = {
    "pfield": "build_fundamental_table",
    "sieve": "resolve_mod_map",
    "symmetry": "find_automorphisms",
    "lift": "theorem1_report",
    "genesis": "solved_values",
}


def test_vars_of_each_registered_module_lists_its_stage_functions() -> None:
    # spans.py finds the functions to wrap through vars() of each pfverify
    # module in sys.modules; reading a lazily registered module runs it.
    code = (
        "import json, sys\n"
        "import pfverify.cli\n"
        "print(json.dumps({name: sorted(k for k, v in vars(sys.modules[name]).items()"
        " if callable(v)) for name in sys.argv[1:]}))\n"
    )
    names = [f"pfverify.{module}" for module in STAGE_FUNCTIONS]
    proc = run_cold("-c", code, *names, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    for module, function in STAGE_FUNCTIONS.items():
        assert function in found[f"pfverify.{module}"], (module, function)
    assert "find_automorphisms" in found["pfverify.lift"]


# Modules that rational arithmetic brings in; the table path needs none.
RATIONAL_STDLIB = {"fractions", "decimal", "_decimal"}
# argparse brings in gettext and locale, and hashlib loads OpenSSL; the CLI
# parses its own argv and hashes spec texts with the builtin SHA-256 module.
PARSING_AND_HASHING_STDLIB = {"argparse", "gettext", "locale", "hashlib", "_hashlib"}


def _imports_run_on_import(tree: ast.Module):
    """Import statements that run when the module is imported: every one
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_packages(node: ast.AST) -> set[str]:
    """Top-level packages an import statement names; empty for any other node."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {(node.module or "").split(".")[0]}
    return set()


def test_no_module_imports_fractions_at_module_level() -> None:
    found = []
    for path in SOURCES:
        for node in _imports_run_on_import(ast.parse(path.read_text(), str(path))):
            if "fractions" in _imported_packages(node):
                found.append((path.name, node.lineno))
    assert SOURCES and not found, found


def _sha256_chain(tree: ast.Module) -> tuple[set[int], set[int]]:
    """The fingerprint's fallback chain `try: _sha256, except: try: _sha2,
    except: ...`: the ids of the statements its two try bodies hold, and of
    those its last handlers hold; empty sets where the tree has no chain."""
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.Try) or not any(
            "_sha256" in _imported_packages(stmt) for stmt in outer.body
        ):
            continue
        for inner in (stmt for handler in outer.handlers for stmt in handler.body):
            if isinstance(inner, ast.Try) and any(
                "_sha2" in _imported_packages(stmt) for stmt in inner.body
            ):
                last = [stmt for handler in inner.handlers for stmt in handler.body]
                return {id(stmt) for stmt in outer.body + inner.body}, set(map(id, last))
    return set(), set()


def test_no_module_imports_argparse_and_only_a_fallback_imports_hashlib() -> None:
    # The CLI parses its own argv, and the fingerprint comes from the builtin
    # SHA-256 module (_sha256, or _sha2 from Python 3.12); hashlib only
    # stands in, in the chain's last handler, where neither is present.
    found, fallbacks = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        _, last_handler = _sha256_chain(tree)
        for node in ast.walk(tree):
            names = _imported_packages(node)
            in_fallback = "hashlib" in names and id(node) in last_handler
            if "argparse" in names or ("hashlib" in names and not in_fallback):
                found.append((path.name, node.lineno))
            fallbacks += in_fallback
    assert SOURCES and not found and fallbacks == 1, (found, fallbacks)


@pytest.mark.parametrize(
    "argv",
    [["funs", "all"], ["genesis"], ["report", "H3", "--prime-start", "523456789011"]],
    ids=["funs-all", "genesis", "report-H3"],
)
def test_a_cold_command_loads_no_rational_arithmetic(argv) -> None:
    record = cold_record(*argv)
    assert record.status == 0
    assert not record.modules & RATIONAL_STDLIB, record.modules & RATIONAL_STDLIB
    assert not record.modules & PARSING_AND_HASHING_STDLIB


@pytest.mark.parametrize(
    "argv, status", [(["genesis"], 0), ([], None)], ids=["genesis", "import-and-read-specs"]
)
def test_genesis_and_reading_the_specs_load_no_hashlib(argv, status) -> None:
    record = cold_record(*argv)
    assert record.status == status
    assert not PARSING_AND_HASHING_STDLIB & record.modules


def test_records_are_slotted_named_tuples() -> None:
    # Each record is a collections.namedtuple subclass without a __dict__;
    # it prints, compares and hashes as its fields do.
    from pfverify.exact import GaussDyadic
    from pfverify.pfield import (
        FactoredElement,
        FundamentalTable,
        PartialFieldSpec,
        TableEntry,
    )
    from pfverify.sieve import CandidateBox, SieveResult
    from pfverify.symmetry import AutGroup, Automorphism

    records = (
        GaussDyadic, FactoredElement, PartialFieldSpec, TableEntry, FundamentalTable,
        CandidateBox, SieveResult, Automorphism, AutGroup,
    )
    for record in records:
        value = record(*range(len(record._fields)))
        assert record.__slots__ == () and not hasattr(value, "__dict__"), record
        assert value == tuple(range(len(record._fields)))
        assert hash(value) == hash(tuple(value))
    element = FactoredElement(-1, (2, 0))
    assert repr(element) == "FactoredElement(sign=-1, exps=(2, 0))"
    assert CandidateBox((), False).points is None


def test_no_library_module_imports_atexit() -> None:
    # The command line ends with os._exit, which runs no atexit handler.
    found = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "atexit" in _imported_packages(node)
    ]
    assert SOURCES and not found, found


def test_the_script_and_the_module_end_through_one_function() -> None:
    # pyproject's console script and `python -m pfverify.cli` both call
    # cli.run, which flushes the output and ends the process.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = SOURCES[0].parent.parent.parent
    with open(root / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"pfverify": "pfverify.cli:run"}
    (path,) = [path for path in SOURCES if path.name == "cli.py"]
    (block,) = [
        node
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == ["run()"]
