"""Tests of the package as a whole."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pfverify").glob("*.py"))


def test_library_imports_only_the_standard_library() -> None:
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


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


# Modules that only dataclasses brought in; a cold process pays for each.
UNUSED_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
PACKAGE_MODULES = {
    f"pfverify.{name}"
    for name in ("cli", "exact", "genesis", "lift", "pfield", "sieve", "symmetry")
}


def test_importing_the_cli_loads_every_module_and_no_unused_stdlib() -> None:
    # perfbench/spans.py wraps the stage functions of every module found in
    # sys.modules after `import pfverify.cli`, so that import must register
    # all of them; genesis, lift, sieve and symmetry are registered lazily
    # and run on first use (see the tests below).
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import pfverify.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PFVERIFY_")}
    env["PYTHONPATH"] = str(SOURCES[0].parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert not added & UNUSED_STDLIB, added & UNUSED_STDLIB
    assert {m for m in added if m.startswith("pfverify.")} == PACKAGE_MODULES


def _run_cold(code: str, *argv: str, timeout: int = 120) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PFVERIFY_")}
    env["PYTHONPATH"] = str(SOURCES[0].parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Records the package modules whose bodies have run: the import system runs
# a module's code object through exec, which raises the "exec" audit event.
EXECUTED_HOOK = (
    "import contextlib, io, json, os, sys\n"
    "executed = set()\n"
    "def hook(event, args):\n"
    "    code = args[0] if event == 'exec' and args else None\n"
    "    path = getattr(code, 'co_filename', '')\n"
    "    if os.path.basename(os.path.dirname(path)) == 'pfverify':\n"
    "        executed.add(os.path.basename(path)[:-3])\n"
    "sys.addaudithook(hook)\n"
)
# The modules every process runs: the package, the CLI, and what parses a spec.
SPEC_MODULES = {"__init__", "cli", "exact", "pfield"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["funs", "all"], {"sieve"}),
        (["bounds", "H4"], {"sieve"}),
        (["genesis"], {"sieve", "genesis"}),
        (["auts", "H3"], {"sieve", "symmetry"}),
        (["report", "H3"], {"sieve", "lift", "symmetry"}),
        (["verify-all"], {"sieve", "genesis", "lift", "symmetry"}),
    ],
    ids=["funs-all", "bounds-H4", "genesis", "auts-H3", "report-H3", "verify-all"],
)
def test_a_cold_command_executes_only_the_modules_it_runs(argv, extra) -> None:
    code = EXECUTED_HOOK + (
        "from pfverify.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(executed)]))\n"
    )
    status, executed = json.loads(_run_cold(code, *argv))
    assert status == 0
    assert set(executed) == SPEC_MODULES | extra


def test_importing_the_cli_and_reading_the_specs_executes_no_stage_module() -> None:
    code = EXECUTED_HOOK + (
        "import pfverify.cli\n"
        "pfverify.cli.builtin_specs()\n"
        "registered = [m for m in sys.modules if m.startswith('pfverify.')]\n"
        "print(json.dumps([sorted(executed), sorted(registered)]))\n"
    )
    executed, registered = json.loads(_run_cold(code))
    assert set(executed) == SPEC_MODULES
    assert set(registered) == PACKAGE_MODULES


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
    found = json.loads(_run_cold(code, *names))
    for module, function in STAGE_FUNCTIONS.items():
        assert function in found[f"pfverify.{module}"], (module, function)
    assert "find_automorphisms" in found["pfverify.lift"]


# Modules that rational arithmetic brings in; the table path needs none.
RATIONAL_STDLIB = {"fractions", "decimal", "_decimal"}


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


def test_no_module_imports_fractions_at_module_level() -> None:
    found = []
    for path in SOURCES:
        for node in _imports_run_on_import(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""]
            if any(name.split(".")[0] == "fractions" for name in names):
                found.append((path.name, node.lineno))
    assert SOURCES and not found, found


@pytest.mark.parametrize(
    "argv",
    [["funs", "all"], ["genesis"], ["report", "H3", "--prime-start", "523456789011"]],
    ids=["funs-all", "genesis", "report-H3"],
)
def test_a_cold_command_loads_no_rational_arithmetic(argv) -> None:
    code = (
        "import contextlib, io, json, sys\n"
        "from pfverify.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PFVERIFY_")}
    env["PYTHONPATH"] = str(SOURCES[0].parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert not set(loaded) & RATIONAL_STDLIB, set(loaded) & RATIONAL_STDLIB
