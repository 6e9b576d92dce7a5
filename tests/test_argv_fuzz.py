"""Fuzz suite for the command line's argument handling.

Each example is an argv list drawn from the commands, the fields, the four
options in both spellings (--opt VALUE and --opt=VALUE), -h, abbreviated
options and junk tokens, plus some of the four PFVERIFY_* variables, run
in-process through cli.main.  Every example must end in exit 0, 1 or 2
without raising; a usage error (2) prints nothing on stdout and one line
starting `usage error:` on stderr.  --prime-start takes its values from a
small fixed set, so that most runs reuse the tables of re-primed builtins.
An example that runs longer than BOUND_S seconds of wall time fails, naming
its argv and environment, so that a hang cannot hang the suite.
"""

from __future__ import annotations

import io
import os
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import cli
from pfverify.pfield import builtin_specs

FIELDS = cli.FIELD_NAMES + ("all",)
PRIME_STARTS = ("59", "2000003", "1", "-5", "3300000000000000000000000", "x")
OPTION_VALUES = {
    "--field": FIELDS + ("H6", ""),
    "--format": ("text", "json", "xml"),
    "--prime-start": PRIME_STARTS,
    "--spec": ("/nonexistent.pfs", ""),
}
# PFVERIFY_SPEC names one of these files, by key, or is the empty string.
SPEC_FILES = {
    "valid": builtin_specs()["H2"].source_text.encode(),
    "not-utf8": b"\x89PNG\r\n\x1a\n\x00\xff\xfe",
    "gen-1": (builtin_specs()["H3"].source_text + "gen 1\n").encode(),
    "missing": None,
}
ENV_VALUES = {
    "PFVERIFY_FORMAT": ("text", "json", "xml", ""),
    "PFVERIFY_FIELD": FIELDS + ("H6", ""),
    "PFVERIFY_PRIME_START": PRIME_STARTS + ("",),
    "PFVERIFY_SPEC": tuple(SPEC_FILES) + ("",),
}
# 100 times the slowest of 450 examples measured (0.10 s on a 2-core Xeon),
# and 40 times the slowest command line found (verify-all re-primed, 0.23 s).
BOUND_S = 10.0
ABBREVIATIONS = ("--prime", "--prime-st", "--form", "--fi", "--sp")
JUNK = ("", "-", "--", "x", "-x", "--bogus", "=", "--=json", "H6", "ALL", "funs=H3")


def _option(names, values):
    """[--opt, value] or [--opt=value]."""
    pair = st.tuples(st.sampled_from(names), st.sampled_from(values))
    return st.one_of(pair.map(list), pair.map(lambda t: [f"{t[0]}={t[1]}"]))


OPTIONS = st.one_of(
    *(_option([name], values) for name, values in OPTION_VALUES.items())
)
NOISE = st.one_of(
    st.sampled_from(cli.COMMANDS + FIELDS + JUNK + ("-h", "--help")).map(lambda t: [t]),
    _option(ABBREVIATIONS, ("59", "json", "H3")),
)


@st.composite
def argvs(draw) -> list[str]:
    """A command, maybe a field, options and maybe one noise token group,
    shuffled."""
    groups = [[draw(st.sampled_from(cli.COMMANDS))]]
    groups += draw(st.lists(st.sampled_from(FIELDS).map(lambda t: [t]), max_size=1))
    groups += draw(st.lists(OPTIONS, max_size=3))
    groups += draw(st.lists(NOISE, max_size=1))
    return sum(draw(st.permutations(groups)), [])


ENVIRONMENTS = st.fixed_dictionaries(
    {}, optional={name: st.sampled_from(values) for name, values in ENV_VALUES.items()}
)


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory) -> dict[str, str]:
    """The path of each SPEC_FILES entry; the missing one is never written."""
    root = tmp_path_factory.mktemp("specs")
    for key, data in SPEC_FILES.items():
        if data is not None:
            (root / f"{key}.pfs").write_bytes(data)
    return {key: str(root / f"{key}.pfs") for key in SPEC_FILES}


@contextmanager
def _bounded(seconds: float, what: str):
    """Fail the running test from a SIGALRM once seconds of wall time pass."""

    def expire(signum, frame):
        pytest.fail(f"{what} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(argv=argvs(), env=ENVIRONMENTS)
def test_every_argv_ends_in_exit_0_1_or_2(spec_paths, argv, env) -> None:
    if env.get("PFVERIFY_SPEC"):
        env = {**env, "PFVERIFY_SPEC": spec_paths[env["PFVERIFY_SPEC"]]}
    out, err = io.StringIO(), io.StringIO()
    bound = _bounded(BOUND_S, f"argv {argv!r} with environment {env!r}")
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err), bound:
        for name in ENV_VALUES:
            os.environ.pop(name, None)
        os.environ.update(env)
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if out.startswith("usage:"):
        assert {"-h", "--help"} & set(argv)
        assert (code, out) == (0, cli.USAGE + "\n")
    elif code == 2:
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    else:
        assert out
