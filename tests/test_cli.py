"""Tests for the command-line front end, run in-process."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import cli, exact, pfield, sieve
from pfverify.pfield import builtin_specs, reprime
from conftest import (
    cold_record,
    h3_with_only_h2hom_i_and_wide_bounds,
    h3_with_unused_indeterminates,
    run_cold,
)


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Usage handling


def test_unknown_field_is_a_usage_error(capsys) -> None:
    code, _, _ = run_cli(capsys, "auts", "H6")
    assert code == 2


def test_unknown_command_is_a_usage_error(capsys) -> None:
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize(
    "args, option",
    [
        (["verify-all", "--spec", "/nonexistent.pfs"], "--spec"),
        (["verify-all", "H3"], "field argument"),
        (["genesis", "--spec", "/nonexistent.pfs"], "--spec"),
        (["genesis", "H4"], "field argument"),
        (["genesis", "--prime-start", "59"], "--prime-start"),
    ],
    ids=[
        "verify-all-spec", "verify-all-field",
        "genesis-spec", "genesis-field", "genesis-prime-start",
    ],
)
def test_an_option_the_command_does_not_use_is_a_usage_error(
    capsys, args, option
) -> None:
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == f"usage error: {args[0]} takes no {option}\n"


def test_verify_all_keeps_prime_start_and_both_ignore_the_environment(
    capsys, monkeypatch
) -> None:
    # The environment configures nothing, so neither command reads these.
    for name, value in (("SPEC", "/nonexistent.pfs"), ("FIELD", "H4")):
        monkeypatch.setenv(f"PFVERIFY_{name}", value)
    code, out, _ = run_cli(capsys, "genesis")
    assert code == 0 and "PASS" in out
    monkeypatch.setattr(
        cli, "_verify_all_payload", lambda start: {"start": start, "verdict": "PASS"}
    )
    code, out, _ = run_cli(capsys, "verify-all", "--prime-start", "59", "--format=json")
    assert (code, out) == (0, '{"start":59,"verdict":"PASS"}\n')


PARSED = ("command", "field", "format", "prime_start", "spec")


@pytest.mark.parametrize(
    "argv",
    [
        ["--format=json", "report", "--prime-start=59", "H4"],
        ["report", "--format", "json", "H4", "--prime-start", "59"],
        ["--prime-start", "7", "--format=text", "report", "H4",
         "--prime-start=59", "--format", "json"],
        ["report", "--format=json", "--prime-start=0059", "--", "H4"],
    ],
    ids=["equals-first", "spaced-between", "repeated-last-wins", "double-dash"],
)
def test_options_go_anywhere_in_either_spelling_and_the_last_wins(argv) -> None:
    args = cli._parse_args(argv)
    parsed = tuple(getattr(args, name) for name in PARSED)
    assert parsed == ("report", "H4", "json", 59, None)


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["report", "H9", "--help"], ["--format=xml", "-h"]]
)
def test_help_prints_the_usage_to_stdout_and_exits_0(capsys, argv) -> None:
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, cli.USAGE + "\n", "")
    assert all(command in out for command in cli.COMMANDS)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["funs", "H3", "--prime", "59"], "unrecognized option '--prime'"),
        (["funs", "--form=json"], "unrecognized option '--form=json'"),
        (["funs", "--fi", "H3"], "unrecognized option '--fi'"),
        (["funs", "--prime-start", "x"], "--prime-start is not an integer: 'x'"),
        (["funs", "--prime-start=1"], f"--prime-start {cli._PRIME_START_RANGE}"),
        (["funs", "--format"], "--format expects a value"),
        (["funs", "H3", "H4"], "unexpected argument 'H4'"),
        (["--format", "json"], "missing command; choose from " + ", ".join(cli.COMMANDS)),
        (["funs", "--format=xml"], "invalid format 'xml'; choose from text, json"),
        (["funs", "--field", "H3"], "unrecognized option '--field'"),
    ],
    ids=[
        "abbreviated", "abbreviated-equals", "abbreviated-field", "prime-not-int",
        "prime-below-2", "missing-value", "extra-argument", "missing-command",
        "bad-format", "bad-field-flag",
    ],
)
def test_a_malformed_argv_is_one_usage_error_line(capsys, argv, message) -> None:
    # Abbreviated options are refused: an option is spelt in full.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_the_module_without_arguments_is_a_usage_error() -> None:
    proc = run_cold("-m", "pfverify.cli", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: missing command")
    assert "Traceback" not in proc.stderr


# Values no run could accept, so that any one read would show in the output.
HOSTILE_ENVIRONMENT = {
    "PFVERIFY_SPEC": "/nonexistent",
    "PFVERIFY_FORMAT": "xml",
    "PFVERIFY_FIELD": "H6",
    "PFVERIFY_PRIME_START": "x",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["funs", "H3"],
        ["genesis"],
        ["verify-all", "--format", "json"],
        ["report", "H4", "--prime-start", "523456789011"],
    ],
    ids=["funs-H3", "genesis", "verify-all-json", "report-H4-reprimed"],
)
def test_the_environment_configures_nothing(monkeypatch, argv) -> None:
    for name in HOSTILE_ENVIRONMENT:
        monkeypatch.delenv(name, raising=False)
    clean = run_cold("-m", "pfverify.cli", *argv, timeout=60)
    for name, value in HOSTILE_ENVIRONMENT.items():
        monkeypatch.setenv(name, value)
    hostile = run_cold("-m", "pfverify.cli", *argv, timeout=60)
    assert clean.returncode == 0
    assert (hostile.returncode, hostile.stdout, hostile.stderr) == (
        clean.returncode, clean.stdout, clean.stderr
    )


# ---------------------------------------------------------------------------
# The JSON writer

# Arbitrary text, with the characters JSON escapes drawn often.
JSON_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\n\x7f\xe9\U0001f600'))
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_the_json_writer_writes_what_json_dumps_writes(value) -> None:
    assert cli._dumps(value) == canonical(value)


@pytest.mark.parametrize(
    "value", [1.5, {1, 2}, {1: "one"}, {"a": [0.0]}],
    ids=["float", "set", "int-key", "nested-float"],
)
def test_the_json_writer_rejects_every_other_type(value) -> None:
    with pytest.raises(TypeError):
        cli._dumps(value)


# ---------------------------------------------------------------------------
# Table commands


def test_funs_text_output_lists_26_entries(capsys) -> None:
    code, out, _ = run_cli(capsys, "funs", "H3")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("  ")]
    assert len(lines) == 26
    assert "26" in out


def test_funs_json_output(capsys) -> None:
    code, out, _ = run_cli(capsys, "funs", "H3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 26
    assert len(data["entries"]) == 26
    assert data["prime"] == 1299709
    assert data["spec_fingerprint"] == sha256(builtin_specs()["H3"].source_text)


def test_funs_with_prime_override(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "funs", "H3", "--prime-start", "2000003", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 26
    assert data["prime"] == 2000003


def test_prime_start_beyond_proven_primality_is_a_usage_error(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "funs", "H3", "--prime-start", "3300000000000000000000000"
    )
    assert code == 2
    assert out == ""


def test_unsuitable_prime_override_fails_honestly(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "funs", "H3", "--prime-start", "59", "--format", "json"
    )
    assert code == 1
    # Prime 547 leaves spurious survivors, and the exact 1 - s check names
    # one before the two routes' counts are compared.
    assert out.startswith("FAIL: H3: 1 - s is not exactly the paired survivor ")
    assert out.endswith(" at fingerprint prime 547\n")


def test_bounds_json_match_the_sieve_box(capsys) -> None:
    from pfverify import sieve

    code, out, _ = run_cli(capsys, "bounds", "H4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    box = sieve.candidate_box(builtin_specs()["H4"])
    assert data["ranges"] == [list(r) for r in box.ranges]
    assert data["candidates"] == 13230


def test_auts_json_output(capsys) -> None:
    code, out, _ = run_cli(capsys, "auts", "H3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert len(data["coord_perms"]) == 6


def test_auts_h4_json_output(capsys) -> None:
    code, out, _ = run_cli(capsys, "auts", "H4", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 24


def test_u25_json_output(capsys) -> None:
    code, out, _ = run_cli(capsys, "u25", "H2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["field_side"] == 30
    assert data["tuple_side"] == 30


def test_lift_check_passes(capsys) -> None:
    code, out, _ = run_cli(capsys, "lift-check", "H3")
    assert code == 0
    assert "PASS" in out


def test_genesis_passes(capsys) -> None:
    code, out, _ = run_cli(capsys, "genesis")
    assert code == 0
    assert "PASS" in out


# ---------------------------------------------------------------------------
# Reports


def test_report_json_round_trips(capsys) -> None:
    code, out, _ = run_cli(capsys, "report", "H3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert canonical(data) == out.strip()
    assert data["verdict"] == "PASS"
    assert data["spec_fingerprint"] == sha256(builtin_specs()["H3"].source_text)


def test_report_text_has_stage_lines(capsys) -> None:
    code, out, _ = run_cli(capsys, "report", "H2")
    assert code == 0
    assert "fundamentals" in out
    assert "PASS" in out


def test_progress_goes_to_stderr_not_stdout(capsys) -> None:
    code, out, err = run_cli(capsys, "report", "H2", "--format", "json")
    assert code == 0
    json.loads(out)
    assert err.strip() != ""


# ---------------------------------------------------------------------------
# Spec files


def test_spec_file_flag(capsys, tmp_path) -> None:
    path = tmp_path / "field.pfs"
    path.write_text(builtin_specs()["H3"].source_text)
    code, out, _ = run_cli(capsys, "funs", "--spec", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 26


def test_corrupted_spec_file_fails_with_counterexample(capsys, tmp_path) -> None:
    lines = [
        line
        for line in builtin_specs()["H3"].source_text.splitlines()
        if line.strip() != "gen a^2 - a + 1"
    ]
    path = tmp_path / "broken.pfs"
    path.write_text("\n".join(lines))
    code, out, _ = run_cli(capsys, "report", "--spec", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "fundamentals" in out


def test_prime_start_with_an_always_vanishing_generator_fails(
    capsys, tmp_path
) -> None:
    # a^2 - 5a is 0 at the modvar a = 5 modulo every prime, but it is no
    # unit at the first h2hom point either, so the exponent box fails first.
    text = builtin_specs()["H3"].source_text.replace(
        "gen a^2 - a + 1\n", "gen a^2 - a + 1\ngen a^2 - 5*a\n"
    )
    path = tmp_path / "vanishing.pfs"
    path.write_text(text)
    code, out, _ = run_cli(
        capsys, "funs", "--spec", str(path), "--prime-start", "2000003"
    )
    assert code == 1
    assert out == (
        "FAIL: H3: generator 'a^2 - 5*a' is not a unit at h2hom row 1 (i)\n"
    )


def test_prime_start_names_the_prime_a_generator_vanishes_at(
    capsys, tmp_path
) -> None:
    # At a = 1002, a^2 - a + 1 is the prime 1003003, the first prime after
    # 1003002; the run fails there as at a declared prime, naming the
    # generator, and does not move on to a later prime.
    path = tmp_path / "vanishing.pfs"
    path.write_text(
        builtin_specs()["H3"].source_text.replace("modvar a 5\n", "modvar a 1002\n")
    )
    code, out, _ = run_cli(
        capsys, "funs", "--spec", str(path), "--prime-start", "1003002"
    )
    assert code == 1
    assert out == (
        "FAIL: H3: generator 'a^2 - a + 1' vanishes mod 1003003 "
        "at the fingerprint residues\n"
    )


def test_repeated_gf5_coordinates_fail_before_the_candidate_loop(
    capsys, tmp_path, monkeypatch
) -> None:
    # Width 9 would otherwise loop over all 9! coordinate permutations first.
    from pfverify import symmetry

    def refuse(*args):
        raise AssertionError("candidate loop ran")

    monkeypatch.setattr(symmetry, "_candidate_tuples", refuse)
    path = tmp_path / "repeated.pfs"
    path.write_text(
        builtin_specs()["H3"].source_text.replace(
            "gf5map a 2 3 4\n", "gf5map a 2 3 4 2 3 4 2 3 4\n"
        )
    )
    code, out, _ = run_cli(capsys, "auts", "--spec", str(path))
    assert code == 1
    assert out == "FAIL: H3: generator image columns are not pairwise distinct\n"


@pytest.mark.parametrize(
    "old, new, generator",
    [
        # a^2 - a + 1 is 21 = 3 * 7 at the modvar a = 5.
        ("prime 1299709", "prime 7", "a^2 - a + 1"),
        ("modvar a 5", "modvar a 0", "a"),
    ],
    ids=["prime-7", "modvar-a-0"],
)
def test_vanishing_generator_residue_names_field_and_generator(
    capsys, tmp_path, old, new, generator
) -> None:
    path = tmp_path / "vanishing.pfs"
    path.write_text(builtin_specs()["H3"].source_text.replace(old, new))
    code, out, _ = run_cli(capsys, "funs", "--spec", str(path))
    assert code == 1
    assert out.startswith("FAIL: H3: ")
    assert f"generator {generator!r} vanishes" in out


@pytest.mark.parametrize(
    "old, new",
    [
        ("prime 1299709", "prime 1299711"),  # 3 * 433237 once hung the closure
        ("prime 1299709", "prime 0"),
        ("prime 1299709", "prime -5"),
        ("seed a\n", "seed " + "(" * 250 + "a" + ")" * 250 + "\n"),
        ("seed a\n", "seed " + "-" * 1200 + "a\n"),
        ("seed a\n", "seed ((1 - a)^40)^40\n"),
    ],
    ids=["composite-prime", "prime-0", "negative-prime", "deep-parens",
         "unary-minus-run", "nested-powers"],
)
def test_hostile_spec_is_a_prompt_usage_error(tmp_path, old, new) -> None:
    text = builtin_specs()["H3"].source_text
    assert old in text
    proc = _cli_on_spec_text(tmp_path, text.replace(old, new))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error: cannot parse spec file: ")


@pytest.mark.parametrize("gen", ["1", "-1", "1/a"])
def test_a_generator_with_numerator_one_is_a_prompt_usage_error(tmp_path, gen) -> None:
    # Factoring over such a generator once ran until killed.
    text = builtin_specs()["H3"].source_text + f"gen {gen}\n"
    start = time.perf_counter()
    proc = _cli_on_spec_text(tmp_path, text)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"usage error: cannot parse spec file: generator {gen!r} has numerator "
        "1 or -1\n"
    )


def test_a_power_of_a_sixteen_term_sum_is_a_prompt_usage_error(tmp_path) -> None:
    # Expanding it builds 490,314 terms; parsing it once took about 10 s.
    names = [f"v{i}" for i in range(16)]
    text = "\n".join(
        ["field X", "k 3", "vars " + " ".join(names), "gen -1",
         "gen (" + " + ".join(names) + ")^8", "seed 1", ""]
    )
    start = time.perf_counter()
    proc = _cli_on_spec_text(tmp_path, text, "bounds")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "usage error: cannot parse spec file: expression term bound exceeds "
        f"{exact.MAX_TERMS}\n"
    )


@pytest.mark.parametrize(
    "seed",
    ["(a+b+c+1)^8", "(a+b+c+1)^4/(a-b+c-1)^4"],
    ids=["dense-power", "dense-quotient"],
)
def test_non_unit_seed_fails_promptly_and_names_the_seed(tmp_path, seed) -> None:
    # Closing these seeds under associates once took minutes.
    text = builtin_specs()["H5"].source_text + f"seed {seed}\n"
    proc = _cli_on_spec_text(tmp_path, text)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (
        f"FAIL: H5: seed 17 {seed!r} is not a unit over the generators\n"
    )


def _run_on_spec_text(capsys, tmp_path, text: str, *args: str):
    """`pfverify <args> --spec` on the text, in this process."""
    path = tmp_path / "field.pfs"
    path.write_text(text)
    return run_cli(capsys, *args, "--spec", str(path))


_H2, _H3, _H4 = (builtin_specs()[n].source_text for n in ("H2", "H3", "H4"))


@pytest.mark.parametrize(
    "text, message",
    [
        # Each of the four GF(5) cases once passed `funs`, printing the bad
        # image or failing later in `auts`.
        (
            _H2.replace("gf5gen 4 4\n", "gf5gen 9 4\n"),
            "GF(5) entry 9 is not in 0..4: 'gf5gen 9 4'",
        ),
        (
            _H2.replace("gf5gen 4 4\n", "gf5gen 0 4\n"),
            "gf5gen column 1 is not the generators at i = 2 or i = 3 mod 5: "
            "generator '-1' maps to 0",
        ),
        (
            # Column 2 follows i = 3 up to the generator i, then i = 2.
            _H2.replace("gf5gen 4 3\n", "gf5gen 4 4\n"),
            "gf5gen column 2 is not the generators at i = 2 or i = 3 mod 5: "
            "generator '1 - i' maps to 4",
        ),
        (
            _H3.replace("gf5map a 2 3 4\n", "gf5map a 7 3 4\n"),
            "GF(5) entry 7 is not in 0..4: 'gf5map a 7 3 4'",
        ),
        (_H3 + "extrabound 0 -1 1\n", "bad extrabound line: 0 -1 1"),
        (_H3 + "gen 1/a\n", "generator '1/a' has numerator 1 or -1"),
        (
            # A generator divides out of a value only if it is a polynomial.
            _H3.replace("gen a\n", "gen a/(a - 1)\n"),
            "generator 'a/(a - 1)' is not a polynomial",
        ),
        (
            _H3.replace("gf5map a 2 3 4\n", "gf5map a 0 3 4\n"),
            "generator 'a' has no unit image in GF(5)",
        ),
        (
            _H4.replace("gf5map b 2 3 4 3\n", "gf5map b 2 3 4\n"),
            "gf5map rows must share one width",
        ),
        (_H2 + "prime 7\n", "h2hom/prime/modvar lines need indeterminates"),
        # Once ignored: `bounds` printed slot 1 as [-1, 1].
        (_H2 + "extrabound 1 0 0\n", "extrabound lines need indeterminates"),
        (
            # Once a false FAIL: "seed 3 '2' is not a unit over the generators".
            _H2.replace("gen 2\ngen i\n", "gen i\ngen 2\n").replace(
                "gf5gen 2 2\ngf5gen 2 3\n", "gf5gen 2 3\ngf5gen 2 2\n"
            ),
            "generator 'i' is out of place: the Gaussian generators are -1, "
            "a unit of norm 4, i and one of norm 2",
        ),
        (
            # These two once FAILed naming a survivor of the wrong width.
            _H2 + "gen 3\ngf5gen 3 3\n",
            "the Gaussian generators are -1, a unit of norm 4, i and one of "
            "norm 2, not 5 generators",
        ),
        (
            _H2 + "gen 1 - i\ngf5gen 4 3\n",
            "the Gaussian generators are -1, a unit of norm 4, i and one of "
            "norm 2, not 5 generators",
        ),
        ("field X\nk 3\n", "field description needs generators and seeds"),
        (
            # Once parsed as a field of arity 2 whose `funs` passed.
            _H3.replace("vars a\n", "vars a a\n")
            .replace("h2hom i\n", "h2hom i, i\n")
            .replace("h2hom 1 - i\n", "h2hom 1 - i, 1 - i\n")
            .replace("h2hom (1 - i)/2\n", "h2hom (1 - i)/2, (1 - i)/2\n"),
            "indeterminate 'a' is named twice: 'vars a a'",
        ),
    ],
    ids=[
        "H2-gf5gen-9", "H2-gf5gen-0", "H2-gf5gen-mixed", "H3-gf5map-7",
        "extrabound", "numerator-one", "not-a-polynomial", "no-unit-image",
        "gf5map-width",
        "gaussian-prime", "gaussian-extrabound", "gaussian-generators-swapped",
        "gaussian-fifth-generator", "gaussian-repeated-generator",
        "no-generators", "repeated-indeterminate",
    ],
)
def test_a_spec_the_parser_rejects_is_a_usage_error_naming_why(
    capsys, tmp_path, text, message
) -> None:
    code, out, err = _run_on_spec_text(capsys, tmp_path, text, "funs")
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot parse spec file: {message}\n"


def test_a_gaussian_unit_of_norm_two_other_than_one_minus_i_passes(
    capsys, tmp_path
) -> None:
    text = _H2.replace("gen 1 - i\n", "gen 1 + i\n").replace(
        "gf5gen 4 3\n", "gf5gen 3 4\n"
    )
    code, out, _ = _run_on_spec_text(capsys, tmp_path, text, "report")
    assert code == 0
    assert out.endswith("  verdict: PASS\n")


def test_funs_h2_enumerates_no_candidates(capsys, tmp_path, monkeypatch) -> None:
    def refused(box):
        raise AssertionError("enumerate_candidates ran")

    monkeypatch.setattr(sieve, "enumerate_candidates", refused)
    # A spec text of its own, so no table or box is read from a cache.
    got = _run_on_spec_text(capsys, tmp_path, _H2 + "# uncached\n", "funs")
    want = run_cli(capsys, "funs", "H2")
    assert got == want
    assert got[0] == 0


def test_a_generator_written_as_a_quotient_is_its_polynomial(
    capsys, tmp_path
) -> None:
    # Factoring once stripped only a generator's numerator, so with a^2/a
    # for a it failed: "seed 2 'a' is not a unit over the generators".
    text = _H3.replace("gen a\n", "gen a^2/a\n")
    got = _run_on_spec_text(capsys, tmp_path, text, "funs", "--format", "json")
    want = run_cli(capsys, "funs", "H3", "--format", "json")
    assert got[0] == 0 and got[2] == want[2]
    assert json.loads(got[1])["count"] == 26
    assert json.loads(got[1])["entries"] == json.loads(want[1])["entries"]


@pytest.mark.parametrize(
    "text, fail",
    [
        (
            # Without this seed the closure misses six fundamentals.
            _H3.replace("seed a^2/(a - 1)\n", ""),
            "H3: survivor FactoredElement(sign=1, exps=(0, 2, 0, -1)) is not in "
            "the closure at fingerprint prime 1299709",
        ),
        (
            # The bound cuts fundamentals out of the box, not out of the closure.
            _H4 + "extrabound 1 0 1\n",
            "H4: closure element FactoredElement(sign=1, exps=(0, -1, 1, 2, 0, -1, "
            "0)) is missing from the sieve at fingerprint prime 179424673",
        ),
    ],
    ids=["H3-survivor", "H4-closure-element"],
)
def test_a_route_disagreement_names_the_element(capsys, tmp_path, text, fail) -> None:
    code, out, _ = _run_on_spec_text(capsys, tmp_path, text, "funs")
    assert code == 1
    assert out == f"FAIL: {fail}\n"


def test_report_fails_the_stage_whose_count_is_wrong(capsys, tmp_path) -> None:
    # H3's table under k 4 builds, but holds 26 fundamentals, not H4's 56.
    text = _H3.replace("k 3\n", "k 4\n")
    code, out, _ = _run_on_spec_text(capsys, tmp_path, text, "report")
    assert code == 1
    assert out == (
        "H3 verification report\n"
        "  fundamentals: 26\n"
        "  automorphisms: 0\n"
        "  u25_pairs: 0\n"
        "  domain: 0\n"
        "  homs: inequivalence width-3, lifting width-4\n"
        "  FAIL at fundamentals: expected 56 fundamentals, found 26\n"
        "  verdict: FAIL\n"
    )
    code, out, _ = _run_on_spec_text(
        capsys, tmp_path, text, "report", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "FAIL"
    assert payload["violations"] == [
        {"stage": "fundamentals", "detail": "expected 56 fundamentals, found 26"}
    ]


@pytest.mark.parametrize(
    "command, fail",
    [
        ("report", "H3: report is defined for k in 2..5, not k=6"),
        ("u25", "H3: tuple width must be 2..5, not 6"),
        ("lift-check", "H3: tuple width must be 2..5, not 6"),
    ],
    ids=["report", "u25", "lift-check"],
)
def test_a_k_outside_two_to_five_fails_naming_the_field(
    capsys, tmp_path, command, fail
) -> None:
    text = _H3.replace("k 3\n", "k 6\n")
    code, out, _ = _run_on_spec_text(capsys, tmp_path, text, command)
    assert (code, out) == (1, f"FAIL: {fail}\n")


def _h4_with_only_the_first_h2hom() -> str:
    lines = builtin_specs()["H4"].source_text.splitlines(keepends=True)
    homs = [i for i, line in enumerate(lines) if line.startswith("h2hom ")]
    return "".join(line for i, line in enumerate(lines) if i not in homs[1:])


@pytest.mark.parametrize(
    "text, fail",
    [
        (
            builtin_specs()["H4"].source_text + "extrabound 3 5 6\n",
            "H4: exponent constraints are infeasible",
        ),
        (_h4_with_only_the_first_h2hom(), "H4: exponent slot 3 is unbounded"),
        (
            builtin_specs()["H3"].source_text + "gen a^2 - 5*a\n",
            "H3: generator 'a^2 - 5*a' is not a unit at h2hom row 1 (i)",
        ),
        (
            # 601 x 5 x 601 vectors: the lone norm row bounds slot 2 alone.
            h3_with_only_h2hom_i_and_wide_bounds(),
            "H3: the exponent box holds 1806005 vectors, more than 1048576",
        ),
    ],
    ids=["infeasible", "unbounded", "non-unit-generator", "too-wide"],
)
def test_exponent_box_failure_names_the_field(tmp_path, text, fail) -> None:
    proc = _cli_on_spec_text(tmp_path, text)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == f"FAIL: {fail}\n"


def test_primes_too_small_to_separate_the_box_are_skipped_unwalked(tmp_path) -> None:
    # 2,088,491 candidates: each of the 256 primes tried from the spec
    # prime 1,299,709 is at most 2|B| = 2,088,490, so none can separate the
    # box and none has its 2 M fingerprints walked.  The cut is at 10 s.
    proc = _cli_on_spec_text(tmp_path, h3_with_only_h2hom_i_and_wide_bounds(228))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (
        "FAIL: H3: no fingerprint prime among 256 from 1299709 separates "
        "the 2088491 candidates\n"
    )


def _cli_on_spec_text(
    tmp_path, text: str, command: str = "funs"
) -> subprocess.CompletedProcess:
    """`pfverify <command> --spec` on the text in a fresh process, cut at
    10 s."""
    path = tmp_path / "hostile.pfs"
    path.write_text(text)
    return run_cold("-m", "pfverify.cli", command, "--spec", str(path), timeout=10)


def _spec_with_gf5_width_27() -> str:
    """Three indeterminates whose gf5map lists every point of {2, 3, 4}^3,
    so 27 coordinates and 27! coordinate permutations."""
    points = list(itertools.product((2, 3, 4), repeat=3))
    values = ("i", "2", "1/2", "-1", "(1 - i)/2")
    lines = ["field R", "k 5", "vars a b c"]
    lines += [f"gen {g}" for g in ("-1", "a", "b", "c", "1 - a", "1 - b", "1 - c")]
    lines += [f"seed {s}" for s in ("1", "a", "b", "c")]
    lines += [
        f"gf5map {v} " + " ".join(map(str, column))
        for v, column in zip("abc", zip(*points))
    ]
    lines += ["prime 1299709", "modvar a 123457", "modvar b 7654321", "modvar c 98765"]
    lines += [f"h2hom {x}, {y}, {z}" for x, y, z in itertools.product(values, repeat=3)]
    return "\n".join(lines) + "\n"


def test_a_gf5_map_too_wide_to_permute_fails_the_symmetry_search(tmp_path) -> None:
    # The table builds; the symmetry search refuses to walk 27! permutations.
    text = _spec_with_gf5_width_27()
    assert _cli_on_spec_text(tmp_path, text).returncode == 0
    proc = _cli_on_spec_text(tmp_path, text, "auts")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "FAIL: R: gf5map width 27 is more than 8, too many coordinate "
        "permutations to walk"
    )


def test_many_indeterminates_fail_the_symmetry_search_before_their_points(
    tmp_path,
) -> None:
    # 17 indeterminates would be 3^17 GF(5) points; the table still builds.
    text = h3_with_unused_indeterminates(list("bcdefghjkmnpqrst"))
    assert _cli_on_spec_text(tmp_path, text).returncode == 0
    started = time.perf_counter()
    proc = _cli_on_spec_text(tmp_path, text, "auts")
    assert time.perf_counter() - started < 5.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "FAIL: H3: 17 indeterminates are more than 8, too many GF(5) points "
        "to walk"
    )


def test_dependent_generator_values_at_the_modvar_point_fail_naming_it(
    capsys, tmp_path
) -> None:
    # At a = 5, b = 7, c = 11 the H5 generator values satisfy
    # 5^-2 * (-4)^-2 * (-10)^2 * (-6)^4 * 18^-2 = 1, so every prime collides.
    text = builtin_specs()["H5"].source_text
    for old, new in (("a 17", "a 5"), ("b 47", "b 7"), ("c 53", "c 11")):
        assert f"modvar {old}\n" in text
        text = text.replace(f"modvar {old}\n", f"modvar {new}\n")
    path = tmp_path / "dependent.pfs"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "funs", "--spec", str(path))
    assert code == 1
    assert out == (
        "FAIL: H5: the generator values at the modvar point a = 5, b = 7, "
        "c = 11 satisfy FactoredElement(sign=1, exps=(0, -2, 0, 0, -2, 0, 2, "
        "4, 0, -2)) = 1, so no fingerprint prime separates the candidates\n"
    )


def test_prime_start_does_not_excuse_a_spec_file_that_fails_to_parse(
    capsys, tmp_path
) -> None:
    # The file is parsed as written before its prime line is replaced.
    path = tmp_path / "composite.pfs"
    path.write_text(
        builtin_specs()["H3"].source_text.replace("prime 1299709", "prime 1299711")
    )
    code, out, err = run_cli(
        capsys, "funs", "--spec", str(path), "--prime-start", "1000003"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot parse spec file: ")


def test_prime_start_keeps_the_gaussian_spec_and_its_fingerprint(capsys) -> None:
    # H2 has no prime line, so --prime-start leaves its spec text as shipped.
    code, out, _ = run_cli(
        capsys, "report", "H2", "--prime-start", "100000000003", "--format", "json"
    )
    assert code == 0
    fingerprint = json.loads(out)["spec_fingerprint"]
    assert fingerprint == sha256(builtin_specs()["H2"].source_text)


@pytest.mark.parametrize(
    "args, parses",
    [
        (("report", "H3", "--prime-start", "523456789011"), 1),
        (("funs", "H3"), 1),
        (("funs", "all"), 4),
    ],
    ids=["report-H3-reprimed", "funs-H3", "funs-all"],
)
def test_a_command_parses_only_the_specs_it_uses(args, parses) -> None:
    # In a fresh process, where no spec has been parsed yet.
    record = cold_record(*args, "--format", "json")
    assert (record.status, record.parses) == (0, parses)


def test_missing_spec_file_is_a_usage_error(capsys, tmp_path) -> None:
    code, _, _ = run_cli(capsys, "funs", "--spec", str(tmp_path / "none.pfs"))
    assert code == 2


@pytest.mark.parametrize("env", [False, True], ids=["no-env", "env-spec"])
@pytest.mark.parametrize("flag", [["--spec", ""], ["--spec="]], ids=["spaced", "equals"])
def test_an_empty_spec_flag_is_a_usage_error_even_over_the_environment(
    capsys, tmp_path, monkeypatch, flag, env
) -> None:
    # An empty path names no file, and a spec file that PFVERIFY_SPEC names
    # does not stand in for it: the environment configures nothing.
    if env:
        path = tmp_path / "field.pfs"
        path.write_text(builtin_specs()["H3"].source_text)
        monkeypatch.setenv("PFVERIFY_SPEC", str(path))
    code, out, err = run_cli(capsys, "bounds", *flag)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot read spec file: ")
    assert err.count("\n") == 1


def test_a_spec_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path) -> None:
    path = tmp_path / "image.pfs"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\xff\xfe")
    code, out, err = run_cli(capsys, "funs", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot read spec file: 'utf-8' codec ")
    assert err.count("\n") == 1


# A cold run whose address space is capped at 1 GiB, so that a reader
# without a bound fails at once instead of filling the machine's memory.
_CAPPED_CLI = (
    "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from pfverify import cli; cli.run()"
)


def test_an_endless_spec_file_is_a_prompt_usage_error() -> None:
    started = time.perf_counter()
    proc = run_cold("-c", _CAPPED_CLI, "funs", "--spec", "/dev/zero", timeout=60)
    assert time.perf_counter() - started < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "usage error: cannot read spec file: '/dev/zero' is longer than "
        f"{cli.MAX_SPEC_CHARS} characters\n"
    )


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-cap", "over-the-cap"])
def test_a_spec_file_is_read_up_to_the_cap(tmp_path, over) -> None:
    text = builtin_specs()["H3"].source_text
    text += "#" * (cli.MAX_SPEC_CHARS - len(text) - 1 + over) + "\n"
    path = tmp_path / "long.pfs"
    path.write_text(text)
    proc = run_cold("-c", _CAPPED_CLI, "bounds", "--spec", str(path), timeout=60)
    if over:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"usage error: cannot read spec file: {str(path)!r} is longer than "
            f"{cli.MAX_SPEC_CHARS} characters\n"
        )
    else:
        assert proc.returncode == 0
        assert proc.stdout.startswith("H3: exponent ranges ")


def test_repriming_at_one_prime_builds_its_table_once(capsys, monkeypatch) -> None:
    # 3000000 and 3000017 both name the prime 3000017, used by no other test.
    built = []
    build = pfield.build_fundamental_table
    monkeypatch.setattr(
        pfield, "build_fundamental_table", lambda spec: built.append(spec) or build(spec)
    )
    for start in ("3000000", "3000017"):
        code, out, _ = run_cli(capsys, "funs", "H3", "--prime-start", start)
        assert code == 0 and "(fingerprint prime 3000017)" in out
    assert [spec.mod_prime for spec in built] == [3000017]


# ---------------------------------------------------------------------------
# verify-all


def test_verify_all_passes_everywhere(capsys) -> None:
    code, out, _ = run_cli(capsys, "verify-all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert canonical(data) == out.strip()
    assert data["verdict"] == "PASS"
    assert [r["field"] for r in data["reports"]] == ["H2", "H3", "H4", "H5"]
    assert all(r["verdict"] == "PASS" for r in data["reports"])
    assert data["genesis"]["verdict"] == "PASS"
    assert any("out of scope" in note for note in data["notes"])


def test_all_field_selector_runs_every_table(capsys) -> None:
    code, out, _ = run_cli(capsys, "funs", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["count"] for r in data["results"]] == [11, 26, 56, 92]


# SHA-256 of the stdout of table, report and verify-all commands, in JSON and
# in text, pinned so that a change in the library's internals cannot silently
# change what the tool prints.
STDOUT_DIGESTS = {
    ("funs", "all"): "b6a5b519c709f6581e68a332201e8a80c6ab1056772a2eea61a657fc9292fc23",
    ("auts", "all"): "51c5913dac344cf145b58ff45749024b21b4ac9384ac84e8911da5cdbfb6dc9b",
    ("bounds", "all"): "c94e5387c823d0087aba1a4d91b0e0e0700a2ea1e4a07f6e23df1b73ba3d306c",
    ("u25", "all"): "cf95eddeb2faa16ca62dc8788e642c76417720809060b8b4cb51d3d70cd1b411",
    ("lift-check", "all"): (
        "6babc28f1d0053679dfa4c268edc84a9eaadb58a9936497b09b0ed7e1eaf9d5e"
    ),
    ("genesis",): "fae39a6815f580f74f866788b00b43c70ad2caae34cc50accbb2b403f19d5744",
    ("report", "H4", "--prime-start", "100000000003"): (
        "c9513ac0ccfec2920dea224bd80ab3e712151cc314d16281c7527b8f037c8814"
    ),
    ("report", "H2", "--prime-start", "100000000003"): (
        "4fea6cb6a7e74f1c340ad6ed3e7cbd8854b32c9a36e0044daaf6c11959035151"
    ),
    ("verify-all",): "7bceecca0a37c9f14c603fcab219645d628670cacc4448f60877f208de02e150",
}
TEXT_STDOUT_DIGESTS = {
    ("verify-all",): "0a3ce06285d5f8fb65c4fb8ddd716b22bd70b5c6f707e7442478a6e0e12cc00b",
    ("report", "H3"): "06c18d81bb977615432c9b100984ed498de459d532e9f583ef95d25f405bb157",
    ("funs", "all"): "18c45d7c54a147724ae4586cb660c70326e2123c182bcc1fa9931a37e66a322a",
}


def test_json_stdout_is_byte_identical_to_the_pinned_digests(capsys) -> None:
    for args, digest in STDOUT_DIGESTS.items():
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert sha256(out) == digest, args


def test_text_stdout_is_byte_identical_to_the_pinned_digests(capsys) -> None:
    for args, digest in TEXT_STDOUT_DIGESTS.items():
        code, out, _ = run_cli(capsys, *args, "--format", "text")
        assert code == 0
        assert sha256(out) == digest, args


@pytest.mark.parametrize("name", ["H2", "H3", "H4", "H5", "H4-reprimed"])
def test_spec_fingerprint_is_the_sha256_of_the_source_text(name) -> None:
    if name == "H4-reprimed":
        s = reprime(builtin_specs()["H4"], 523456789011)
        assert s.mod_prime != builtin_specs()["H4"].mod_prime
    else:
        s = builtin_specs()[name]
    assert cli._spec_fingerprint(s) == sha256(s.source_text)


def test_a_reprimed_text_is_the_one_the_benchmark_hashes() -> None:
    # perfbench/run.py checks each re-primed report's spec_fingerprint
    # against its own rewrite of the shipped text.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(run)
    for name in ("H3", "H4", "H5"):
        for start in (59, 2000003, 523456789011):
            spec = builtin_specs()[name]
            assert sha256(reprime(spec, start).source_text) == (
                run._reprimed_fingerprint(spec.source_text, start)
            )


def test_the_hashlib_fallback_gives_the_same_fingerprints() -> None:
    # Where neither builtin module (_sha256, or _sha2 from Python 3.12) is
    # present, hashlib computes the digest.
    code = (
        "import json, sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from pfverify import cli\n"
        "specs = cli.builtin_specs()\n"
        "print(json.dumps([{n: cli._spec_fingerprint(specs[n]) for n in specs},"
        " 'hashlib' in sys.modules]))\n"
    )
    proc = run_cold("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    fingerprints, loaded_hashlib = json.loads(proc.stdout)
    assert loaded_hashlib
    assert fingerprints == {
        name: sha256(spec.source_text) for name, spec in builtin_specs().items()
    }
    assert sorted(fingerprints) == ["H2", "H3", "H4", "H5"]


# ---------------------------------------------------------------------------
# Process exit: the command line flushes its output and ends with os._exit


def _fail_at_prime_59(out: bytes) -> bool:
    (line, *rest) = out.decode().splitlines(keepends=True) or [""]
    return not rest and line.startswith(
        "FAIL: H3: 1 - s is not exactly the paired survivor "
    ) and line.endswith(" at fingerprint prime 547\n")


# argv, exit status, a check of stdout, the stderr lines.
EXIT_CASES = {
    "verify-all-json": (
        ("verify-all", "--format", "json"),
        0,
        lambda out: sha256(out.decode()) == STDOUT_DIGESTS[("verify-all",)],
        [f"{name}: running all verification stages" for name in cli.FIELD_NAMES]
        + ["genesis: checking the defining triples and relations"],
    ),
    "genesis-json": (
        ("genesis", "--format", "json"),
        0,
        lambda out: sha256(out.decode()) == STDOUT_DIGESTS[("genesis",)],
        ["genesis: checking the defining triples and relations"],
    ),
    "funs-all-text": (
        ("funs", "all", "--format", "text"),
        0,
        lambda out: sha256(out.decode()) == TEXT_STDOUT_DIGESTS[("funs", "all")],
        [f"{name}: building the fundamental table by both routes" for name in cli.FIELD_NAMES],
    ),
    "fail": (
        ("funs", "H3", "--prime-start", "59"),
        1,
        _fail_at_prime_59,
        ["H3: building the fundamental table by both routes"],
    ),
    "usage-error": (
        ("funs", "--bogus"),
        2,
        lambda out: out == b"",
        ["usage error: unrecognized option '--bogus'"],
    ),
    "help": (("-h",), 0, lambda out: out.decode() == cli.USAGE + "\n", []),
}


@pytest.mark.parametrize("sink", ["file", "pipe"])
@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_a_cold_process_writes_all_its_output_before_it_exits(
    tmp_path, case, sink
) -> None:
    # Output left in a buffer at os._exit would be lost; a regular file
    # shows it as a wrong digest.
    args, code, stdout_ok, stderr_lines = EXIT_CASES[case]
    if sink == "file":
        path = tmp_path / "stdout"
        with open(path, "wb") as handle:
            proc = run_cold(
                "-m", "pfverify.cli", *args, timeout=120, stdout=handle, text=False
            )
        out = path.read_bytes()
    else:
        proc = run_cold("-m", "pfverify.cli", *args, timeout=120, text=False)
        out = proc.stdout
    assert proc.returncode == code, proc.stderr
    assert stdout_ok(out), out[-200:]
    assert proc.stderr.decode().splitlines() == stderr_lines


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_a_reader_that_closed_the_pipe_ends_the_run_with_exit_1(case, buffering) -> None:
    # Without a reader every write to the pipe fails with EPIPE: in print
    # when stdout is unbuffered, in the final flush otherwise.  A usage
    # error writes nothing to stdout and keeps its 2.
    args, code, _, stderr_lines = EXIT_CASES[case]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cold(
            "-m", "pfverify.cli", *args, timeout=120, stdout=write_end, text=False,
            unbuffered=buffering == "unbuffered",
        )
    finally:
        os.close(write_end)
    assert proc.returncode == (2 if code == 2 else 1), proc.stderr
    assert proc.stderr.decode().splitlines() == stderr_lines


@pytest.mark.parametrize("args, code", [("-h", 0), ("funs H3 --prime-start 59", 1)])
def test_a_run_started_with_stdout_closed_keeps_its_status(args, code) -> None:
    # With file descriptor 1 closed, sys.stdout is None: print writes
    # nothing and there is no stream to flush.
    proc = run_cold(
        "-m", "pfverify.cli", *args.split(), timeout=60,
        prefix=("sh", "-c", 'exec "$@" >&-', "sh"),
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [(["-h"], 0), (["funs", "H3"], 0), (["funs", "H3", "--prime-start", "59"], 1),
     (["funs", "--bogus"], 2)],
    ids=["help", "pass", "fail", "usage-error"],
)
def test_main_returns_its_status_and_never_exits(capsys, monkeypatch, argv, code) -> None:
    # perfbench/spans.py and these tests call main in-process and go on
    # after it returns; only run() ends the process.
    def refused(*args):
        raise AssertionError("main tried to end the process")

    monkeypatch.setattr(os, "_exit", refused)
    monkeypatch.setattr(sys, "exit", refused)
    assert cli.main(argv) == code
    capsys.readouterr()


class _Ended(Exception):
    pass


def test_run_flushes_both_streams_then_ends_with_the_status_of_main(monkeypatch) -> None:
    events = []

    class Stream:
        def __init__(self, name: str) -> None:
            self.name = name

        def flush(self) -> None:
            events.append(f"flush {self.name}")

    def fake_exit(code: int) -> None:
        events.append(f"exit {code}")
        raise _Ended

    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    with pytest.raises(_Ended):
        cli.run()
    assert events == ["flush stdout", "flush stderr", "exit 1"]
