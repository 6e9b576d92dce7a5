"""Fuzz suite for the command line's argument handling.

Each example is an argv list drawn from the commands, the fields, the
three options in both spellings (--opt VALUE and --opt=VALUE), -h, the
removed --field, abbreviated options and junk tokens, run in-process through
cli.main.  Every example must end in exit 0, 1 or 2 without raising; a
usage error (2) prints nothing on stdout and one line starting `usage
error:` on stderr.  --prime-start takes its values from a small fixed set,
so that most runs reuse the tables of re-primed builtins.  An example that
runs longer than BOUND_S seconds of wall time fails, naming its argv, so
that a hang cannot hang the suite.
"""

from __future__ import annotations

import io
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import cli

FIELDS = cli.FIELD_NAMES + ("all",)
OPTION_VALUES = {
    "--format": ("text", "json", "xml"),
    "--prime-start": ("59", "2000003", "1", "-5", "3300000000000000000000000", "x"),
    "--spec": ("/nonexistent.pfs", ""),
}
# 100 times the slowest of 450 examples measured (0.10 s on a 2-core Xeon),
# and 40 times the slowest command line found (verify-all re-primed, 0.23 s).
BOUND_S = 10.0
ABBREVIATIONS = ("--prime", "--prime-st", "--form", "--fi", "--sp", "--field")
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
@given(argv=argvs())
def test_every_argv_ends_in_exit_0_1_or_2(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    bound = _bounded(BOUND_S, f"argv {argv!r}")
    with redirect_stdout(out), redirect_stderr(err), bound:
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
