"""Tests of the package as a whole."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

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


# What the symmetry search must not read: the partner map comes from the
# table, which proved it exactly, never from fingerprints.
FINGERPRINT_STATE = {"fingerprint", "fingerprints", "mod_map", "mod_prime"}


def test_the_symmetry_search_reads_no_fingerprint_state() -> None:
    (path,) = [path for path in SOURCES if path.name == "symmetry.py"]
    read = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
    }
    assert "partner" in read
    assert not read & FINGERPRINT_STATE, read & FINGERPRINT_STATE
