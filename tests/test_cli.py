"""Tests for the command-line front end, run in-process."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfverify import cli
from pfverify.pfield import builtin_specs


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Usage handling


def test_unknown_field_is_a_usage_error(capsys) -> None:
    code, _, _ = run_cli(capsys, "auts", "H6")
    assert code == 2


def test_unknown_command_is_a_usage_error(capsys) -> None:
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


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
    assert data["spec_fingerprint"] == builtin_specs()["H3"].source_hash


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


def test_prime_start_env_beyond_proven_primality_is_a_usage_error(
    capsys, monkeypatch
) -> None:
    monkeypatch.setenv("PFVERIFY_PRIME_START", "3300000000000000000000000")
    code, out, err = run_cli(capsys, "funs", "H3")
    assert code == 2
    assert out == ""
    assert "PFVERIFY_PRIME_START" in err


def test_unsuitable_prime_override_fails_honestly(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "funs", "H3", "--prime-start", "59", "--format", "json"
    )
    assert code == 1
    assert "FAIL" in out


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
    assert data["spec_fingerprint"] == builtin_specs()["H3"].source_hash


def test_report_text_has_stage_lines(capsys) -> None:
    code, out, _ = run_cli(capsys, "report", "H2")
    assert code == 0
    assert "fundamentals" in out
    assert "PASS" in out


def test_field_flag_equals_positional(capsys) -> None:
    _, out_flag, _ = run_cli(capsys, "report", "--field", "H2", "--format", "json")
    _, out_pos, _ = run_cli(capsys, "report", "H2", "--format", "json")
    assert out_flag == out_pos


def test_format_env_override(capsys, monkeypatch) -> None:
    monkeypatch.setenv("PFVERIFY_FORMAT", "json")
    code, out, _ = run_cli(capsys, "report", "H2")
    assert code == 0
    assert json.loads(out)["field"] == "H2"


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
    # a^2 - 5a is 0 at the modvar a = 5 modulo every prime.
    text = builtin_specs()["H3"].source_text.replace(
        "gen a^2 - a + 1\n", "gen a^2 - a + 1\ngen a^2 - 5*a\n"
    )
    path = tmp_path / "vanishing.pfs"
    path.write_text(text)
    code, out, _ = run_cli(
        capsys, "funs", "--spec", str(path), "--prime-start", "2000003"
    )
    assert code == 1
    assert "FAIL" in out
    assert "vanishes" in out


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
    proc = _funs_on_spec_text(tmp_path, text.replace(old, new))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error: cannot parse spec file: ")


@pytest.mark.parametrize(
    "seed",
    ["(a+b+c+1)^8", "(a+b+c+1)^4/(a-b+c-1)^4"],
    ids=["dense-power", "dense-quotient"],
)
def test_non_unit_seed_fails_promptly_and_names_the_seed(tmp_path, seed) -> None:
    # Closing these seeds under associates once took minutes.
    text = builtin_specs()["H5"].source_text + f"seed {seed}\n"
    proc = _funs_on_spec_text(tmp_path, text)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (
        f"FAIL: H5: seed 17 {seed!r} is not a unit over the generators\n"
    )


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
    ],
    ids=["infeasible", "unbounded", "non-unit-generator"],
)
def test_exponent_box_failure_names_the_field(tmp_path, text, fail) -> None:
    proc = _funs_on_spec_text(tmp_path, text)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == f"FAIL: {fail}\n"


def _funs_on_spec_text(tmp_path, text: str) -> subprocess.CompletedProcess:
    """`pfverify funs --spec` on the text in a fresh process, cut at 10 s."""
    path = tmp_path / "hostile.pfs"
    path.write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("PFVERIFY_")}
    env["PYTHONPATH"] = src
    return subprocess.run(
        [sys.executable, "-m", "pfverify.cli", "funs", "--spec", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


def test_missing_spec_file_is_a_usage_error(capsys, tmp_path) -> None:
    code, _, _ = run_cli(capsys, "funs", "--spec", str(tmp_path / "none.pfs"))
    assert code == 2


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


# SHA-256 of the JSON stdout of table and report commands, pinned so that a
# change in the library's internals cannot silently change what the tool
# prints.
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
}


def test_json_stdout_is_byte_identical_to_the_pinned_digests(capsys) -> None:
    for args, digest in STDOUT_DIGESTS.items():
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
