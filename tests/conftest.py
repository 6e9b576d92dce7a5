"""What the test modules share: the one way to start a cold process, the
recorded probe of a cold command, and the spec and symmetry builders that
more than one module uses."""

from __future__ import annotations

import ast
import collections
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfverify import symmetry
from pfverify.exact import gauss_conj, ratfunc_var
from pfverify.pfield import (
    builtin_specs,
    canonical_element,
    factor_over_generators,
    fundamental_table,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# Cold processes


def run_cold(
    *args: str, timeout: float, stdout=subprocess.PIPE, text: bool = True,
    unbuffered: bool = False, prefix: tuple[str, ...] = (),
) -> subprocess.CompletedProcess:
    """`python *args` in a fresh process, started through the prefix command
    if one is given: the session's environment with the source as
    PYTHONPATH, stdout block-buffered unless unbuffered, stdout sent to the
    given sink and stderr captured."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [*prefix, sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        text=text, env=env, timeout=timeout,
    )


# Runs one command line through cli.main with its stdout discarded, or with
# no argv reads the builtin specs instead, and prints with repr, so that the
# probe itself loads no json.  It records the package modules whose bodies
# ran (the import system runs a module's code through exec, which raises the
# "exec" audit event) and counts the spec texts parsed.
_PROBE = """
import contextlib, io, os, sys
executed = set()
def hook(event, args):
    path = getattr(args[0], 'co_filename', '') if event == 'exec' and args else ''
    if os.path.basename(os.path.dirname(path)) == 'pfverify':
        executed.add(os.path.basename(path)[:-3])
sys.addaudithook(hook)
from pfverify import cli, pfield
parsed = []
parse = pfield.parse_field_spec
def counting(text):
    parsed.append(text)
    return parse(text)
pfield.parse_field_spec = cli.parse_field_spec = counting
status = None
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1:]:
        status = cli.main(sys.argv[1:])
    else:
        cli.builtin_specs()
print(repr((status, sorted(executed), sorted(sys.modules), len(parsed))))
"""

ColdRecord = collections.namedtuple("ColdRecord", "status executed modules parses")


@functools.cache
def cold_record(*argv: str) -> ColdRecord:
    """What a cold `pfverify *argv` did, probed once per argv in the session:
    its status, the package modules it executed, every module it loaded,
    and the number of spec texts it parsed."""
    proc = run_cold("-c", _PROBE, *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, executed, modules, parses = ast.literal_eval(proc.stdout)
    return ColdRecord(status, set(executed), set(modules), parses)


# ---------------------------------------------------------------------------
# Spec texts


def h3_with_unused_indeterminates(names: list[str]) -> str:
    text = builtin_specs()["H3"].source_text
    text = text.replace("vars a\n", f"vars a {' '.join(names)}\n")
    text = text.replace(
        "gf5map a 2 3 4\n",
        "gf5map a 2 3 4\n" + "".join(f"gf5map {v} 1 1 1\n" for v in names),
    )
    text = text.replace(
        "modvar a 5\n",
        "modvar a 5\n" + "".join(f"modvar {v} {7 + i}\n" for i, v in enumerate(names)),
    )
    return "\n".join(
        line + ", 1" * len(names) if line.startswith("h2hom ") else line
        for line in text.splitlines()
    ) + "\n"


def h3_with_only_h2hom_i_and_wide_bounds(bound: int = 300) -> str:
    text = builtin_specs()["H3"].source_text
    text = text.replace("h2hom 1 - i\n", "").replace("h2hom (1 - i)/2\n", "")
    return text + "".join(
        f"extrabound {slot} -{bound} {bound}\n" for slot in (1, 2, 3)
    )


# ---------------------------------------------------------------------------
# Reference: every symmetry's exact generator images, by exponent arithmetic


def group(name: str):
    return symmetry.find_automorphisms(builtin_specs()[name])


def identity_images(spec) -> tuple:
    """The identity's generator images: unit vector j for generator j."""
    n = len(spec.generators)
    return tuple(
        symmetry.FactoredElement(1, tuple(int(i == j) for j in range(n)))
        for i in range(n)
    )


def compose(spec, outer: tuple, inner: tuple) -> tuple:
    """Generator images of outer . inner (apply inner first), by exponent
    arithmetic.  The sign generator's image stays the unit vector; the
    Gaussian generators are dependent, so the others are recanonicalized."""
    return (inner[0],) + tuple(
        canonical_element(spec, symmetry._map_element(outer, fe)) for fe in inner[1:]
    )


def element_of(spec, table, images: tuple) -> symmetry.Automorphism:
    """The symmetry with these generator images: where they send the
    indeterminates, and their induced coordinate permutation."""
    var_images = tuple(
        table.by_element[
            symmetry._map_element(
                images, factor_over_generators(spec, ratfunc_var(spec.arity, v))
            )
        ]
        for v in range(spec.arity)
    )
    return symmetry.Automorphism(var_images, symmetry._induced_perm(spec, images))


@functools.cache
def reference(name: str) -> dict:
    """Each symmetry of the field, as the element its exact generator images
    make, mapped to those images.

    Built from generators as the group is: the group's elements are walked
    in order, and each that the reference lacks is confirmed exactly by
    confirm_candidate (the Gaussian conjugation by the same check on the
    conjugated generators).  Every other element's images are composed
    from the confirmed ones by exponent arithmetic, and none is taken from
    the group."""
    spec = builtin_specs()[name]
    table = fundamental_table(spec)
    identity = identity_images(spec)
    images = {element_of(spec, table, identity): identity}
    gens: list[tuple] = []
    for aut in group(name).elements:
        if aut in images:
            continue
        if spec.is_gauss:
            conj = map(gauss_conj, spec.generators[1:])
            gen = symmetry._confirmed_images(spec, table, conj)
        else:
            gen = symmetry.confirm_candidate(spec, table, aut.var_images)
        gens.append(gen)
        queue = list(images.values())
        for inner in queue:
            for outer in gens:
                product = compose(spec, outer, inner)
                element = element_of(spec, table, product)
                if element not in images:
                    images[element] = product
                    queue.append(product)
    return images


def closes(name: str, pairs) -> bool:
    """Whether every composite of the pairs' exact generator images is the
    images of a group element."""
    spec = builtin_specs()[name]
    ref = reference(name)
    images = set(ref.values())
    return all(compose(spec, ref[x], ref[y]) in images for x, y in pairs)
