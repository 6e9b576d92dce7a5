"""Fuzz suite for the command line's argument handling.

Each example is an argv list drawn from the commands, the fields, the four
options in both spellings (--opt VALUE and --opt=VALUE), -h, abbreviated
options and junk tokens, run in-process through cli.main.  Every argv must
end in exit 0, 1 or 2 without raising; a usage error (2) prints nothing on
stdout and one line starting `usage error:` on stderr.  --prime-start takes
its values from a small fixed set, so that most runs reuse parsed specs.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import cli

FIELDS = cli.FIELD_NAMES + ("all",)
PRIME_STARTS = ("59", "2000003", "1", "-5", "3300000000000000000000000", "x")
OPTION_VALUES = {
    "--field": FIELDS + ("H6", ""),
    "--format": ("text", "json", "xml"),
    "--prime-start": PRIME_STARTS,
    "--spec": ("/nonexistent.pfs", ""),
}
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


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_every_argv_ends_in_exit_0_1_or_2(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
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
