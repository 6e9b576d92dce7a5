"""Command-line front end for the verification library.

Every command prints either human-readable text or canonical JSON (sorted
keys, compact separators) to stdout; progress notes go to stderr.  Exit
status 0 means every requested check passed, 1 means a check failed and
the output carries the first counterexample, 2 means a usage error.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

from .exact import (
    PRIME_LIMIT,
    gauss_to_str,
    ratfunc_is_zero,
    ratfunc_to_str,
)
from .pfield import (
    PartialFieldSpec,
    VerificationError,
    builtin_specs,
    fundamental_table,
    parse_field_spec,
    reprime,
    value_text,
)


def _lazy(name: str):
    """pfverify.<name>, registered in sys.modules and on the package now and
    executed on its first attribute access, so a command runs the body of
    only the modules it uses.  perfbench/spans.py wraps the stage functions
    of every pfverify module in sys.modules after `import pfverify.cli`, and
    reading them executes the module; an import inside each command would
    leave the module out of sys.modules and its spans unrecorded.  Once the
    stages record their own counters (ROADMAP item 3), plain imports inside
    the commands can replace this."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


genesis, lift, sieve, symmetry = map(_lazy, ("genesis", "lift", "sieve", "symmetry"))

FIELD_NAMES = ("H2", "H3", "H4", "H5")
COMMANDS = (
    "funs",
    "auts",
    "u25",
    "lift-check",
    "bounds",
    "report",
    "genesis",
    "verify-all",
)


class _UsageError(Exception):
    pass


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_PRIME_START_RANGE = "must be at least 2 and below 3.3e24, where primality is proven"

USAGE = f"""\
usage: pfverify [-h] COMMAND [FIELD] [--field FIELD] [--format text|json]
                [--prime-start N] [--spec PATH]

  COMMAND          {", ".join(COMMANDS)}
  FIELD, --field   {", ".join(FIELD_NAMES)} or all
  --prime-start N  declare the first prime at or after N the fingerprint prime
  --spec PATH      verify a field description file instead of a builtin

Options go anywhere, as --opt VALUE or --opt=VALUE; the last one given wins."""

_OPTIONS = {
    "--field": "field_flag",
    "--format": "format",
    "--prime-start": "prime_start",
    "--spec": "spec",
}
_CHOICES = {
    "command": COMMANDS,
    "field": FIELD_NAMES + ("all",),
    "field_flag": FIELD_NAMES + ("all",),
    "format": ("text", "json"),
}


class _Args:
    """Parsed argv; an option or argument not given stays None."""

    command = field = field_flag = format = prime_start = spec = None


def _prime_start(raw: str, source: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"{source} is not an integer: {raw!r}")
    if not 2 <= value < PRIME_LIMIT:
        raise _UsageError(f"{source} {_PRIME_START_RANGE}")
    return value


def _parse_args(argv: list[str]) -> _Args | None:
    """The command, the field and the options in argv, or None after
    printing the usage for -h or --help.  Anything else malformed is a
    _UsageError; an option must be spelt in full."""
    args, positional, tokens = _Args(), [], iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print(USAGE)
            return None
        if token == "--":
            positional.extend(tokens)
        elif token.startswith("-"):
            name, eq, value = token.partition("=")
            if name not in _OPTIONS:
                raise _UsageError(f"unrecognized option {token!r}")
            value = value if eq else next(tokens, None)
            if value is None:
                raise _UsageError(f"{name} expects a value")
            setattr(args, _OPTIONS[name], value)
        else:
            positional.append(token)
    if not positional:
        raise _UsageError(f"missing command; choose from {', '.join(COMMANDS)}")
    if len(positional) > 2:
        raise _UsageError(f"unexpected argument {positional[2]!r}")
    args.command, args.field = (positional + [None])[:2]
    for dest, choices in _CHOICES.items():
        value = getattr(args, dest)
        if value is not None and value not in choices:
            raise _UsageError(
                f"invalid {dest.replace('_flag', '')} {value!r}; "
                f"choose from {', '.join(choices)}"
            )
    if args.prime_start is not None:
        args.prime_start = _prime_start(args.prime_start, "--prime-start")
    return args


# ---------------------------------------------------------------------------
# Option resolution (flags win over PFVERIFY_* environment variables)


def _resolve_format(args: _Args) -> str:
    fmt = args.format or os.environ.get("PFVERIFY_FORMAT") or "text"
    if fmt not in ("text", "json"):
        raise _UsageError(f"unknown format {fmt!r}")
    return fmt


def _resolve_prime_start(args: _Args) -> int | None:
    if args.prime_start is not None:
        return args.prime_start
    raw = os.environ.get("PFVERIFY_PRIME_START")
    return None if raw is None else _prime_start(raw, "PFVERIFY_PRIME_START")


def _resolve_field(args: _Args) -> str:
    name = args.field_flag or args.field or os.environ.get("PFVERIFY_FIELD") or "all"
    if name not in FIELD_NAMES + ("all",):
        raise _UsageError(f"unknown field {name!r}")
    return name


def _load_specs(args: _Args) -> list[PartialFieldSpec]:
    """Specs named by --spec, the field selection, or the environment,
    re-primed at the resolved prime start."""
    start = _resolve_prime_start(args)
    spec_path = args.spec or os.environ.get("PFVERIFY_SPEC")
    if spec_path is None:
        name = _resolve_field(args)
        names = FIELD_NAMES if name == "all" else (name,)
        specs = [builtin_specs()[n] for n in names]
    else:
        try:
            with open(spec_path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read spec file: {exc}")
        # The file as written must parse, so a bad prime line is a usage
        # error even when --prime-start replaces it.
        try:
            specs = [parse_field_spec(text)]
        except ValueError as exc:
            raise _UsageError(f"cannot parse spec file: {exc}")
    return [reprime(spec, start) for spec in specs]


# ---------------------------------------------------------------------------
# Command payloads (dicts that double as the JSON output)


def _spec_fingerprint(spec: PartialFieldSpec) -> str:
    """SHA-256 of the spec text.  CPython's builtin _sha256 module computes
    it without loading OpenSSL; hashlib, which loads it, is the fallback
    where that module is absent (Python 3.12 renamed it _sha2)."""
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(spec.source_text.encode()).hexdigest()


def _funs_payload(spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: building the fundamental table by both routes")
    table = fundamental_table(spec)
    entries = []
    for index, entry in enumerate(table.entries):
        entries.append(
            {
                "index": index,
                "element": value_text(spec, entry.value),
                "fingerprint": gauss_to_str(entry.fingerprint)
                if spec.is_gauss
                else entry.fingerprint,
                "gf5": list(entry.gf5_image),
            }
        )
    return {
        "field": spec.name,
        "spec_fingerprint": _spec_fingerprint(spec),
        "prime": None if spec.is_gauss else table.mod_map.prime,
        "count": len(table.entries),
        "entries": entries,
        "verdict": "PASS",
    }


def _funs_text(payload: dict) -> list[str]:
    head = f"{payload['field']}: {payload['count']} fundamental elements"
    if payload["prime"] is not None:
        head += f" (fingerprint prime {payload['prime']})"
    lines = [head]
    for entry in payload["entries"]:
        fp = entry["fingerprint"]
        lines.append(f"  {fp!s:>14}  gf5={tuple(entry['gf5'])}  {entry['element']}")
    return lines


def _auts_payload(spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: searching for symmetries")
    group = symmetry.find_automorphisms(spec)
    perms = sorted(aut.coord_perm for aut in group.elements)
    return {
        "field": spec.name,
        "spec_fingerprint": _spec_fingerprint(spec),
        "order": len(group.elements),
        "coord_perms": [list(p) for p in perms],
        "verdict": "PASS",
    }


def _auts_text(payload: dict) -> list[str]:
    perms = ", ".join(str(tuple(p)) for p in payload["coord_perms"])
    return [
        f"{payload['field']}: symmetry group of order {payload['order']}",
        f"  induced coordinate permutations: {perms}",
    ]


def _u25_payload(spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: enumerating rank-2 representation pairs")
    pairs = lift.enumerate_u25(spec)
    tuples = lift.gf5_u25_tuples(spec.report_index)
    field_keys = {
        (lift.domain_key(spec, p), lift.domain_key(spec, q)) for p, q in pairs
    }
    bijection = len(pairs) == len(tuples) and field_keys == set(tuples)
    return {
        "field": spec.name,
        "spec_fingerprint": _spec_fingerprint(spec),
        "field_side": len(pairs),
        "tuple_side": len(tuples),
        "bijection": bijection,
        "verdict": "PASS" if bijection else "FAIL",
    }


def _u25_text(payload: dict) -> list[str]:
    return [
        f"{payload['field']}: field-side pairs {payload['field_side']}, "
        f"tuple-side pairs {payload['tuple_side']}, "
        f"bijection {payload['verdict']}"
    ]


def _lift_check_payload(spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: lifting every tuple pair")
    tuples = lift.gf5_u25_tuples(spec.report_index)
    violations = lift.local_lift_check(spec, tuples)
    return {
        "field": spec.name,
        "spec_fingerprint": _spec_fingerprint(spec),
        "pairs": len(tuples),
        "violations": [
            {"pair": idx, "p": list(p), "q": list(q)} for idx, p, q in violations
        ],
        "verdict": "PASS" if not violations else "FAIL",
    }


def _lift_check_text(payload: dict) -> list[str]:
    lines = [
        f"{payload['field']}: {payload['pairs']} tuple pairs lift "
        f"{payload['verdict']}"
    ]
    for v in payload["violations"]:
        lines.append(
            f"  FAIL pair {v['pair']}: ratio of lifts of "
            f"{tuple(v['p'])}, {tuple(v['q'])} is not fundamental"
        )
    return lines


def _bounds_payload(spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: bounding the exponent box")
    box = sieve.candidate_box(spec)
    return {
        "field": spec.name,
        "spec_fingerprint": _spec_fingerprint(spec),
        "ranges": [list(r) for r in box.ranges],
        "include_zero": box.include_zero,
        "candidates": sieve.candidate_count(box),
        "verdict": "PASS",
    }


def _bounds_text(payload: dict) -> list[str]:
    ranges = ", ".join(f"[{lo}, {hi}]" for lo, hi in payload["ranges"])
    zero = "with" if payload["include_zero"] else "without"
    return [
        f"{payload['field']}: exponent ranges {ranges} "
        f"({zero} the zero candidate)",
        f"  {payload['candidates']} candidates",
    ]


def _report_payload(spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: running all verification stages")
    payload = lift.theorem1_report(spec)
    payload["spec_fingerprint"] = _spec_fingerprint(spec)
    return payload


def _report_text(payload: dict) -> list[str]:
    lines = [f"{payload['field']} verification report"]
    for stage, count in payload["counts"].items():
        lines.append(f"  {stage}: {count}")
    homs = payload["homs"]
    lines.append(
        f"  homs: inequivalence {homs['inequivalence']}, "
        f"lifting {homs['lifting']}"
    )
    for violation in payload["violations"]:
        lines.append(f"  FAIL at {violation['stage']}: {violation['detail']}")
    lines.append(f"  verdict: {payload['verdict']}")
    return lines


def _genesis_payload() -> dict:
    _status("genesis: checking the defining triples and relations")
    products = genesis.triple_products()
    values = genesis.solved_values()
    residuals = genesis.relation_residuals(values)
    ok = genesis.check_triples() and all(ratfunc_is_zero(r) for r in residuals)
    return {
        "command": "genesis",
        "triple_products": [list(p) for p in products],
        "solution": {
            name: ratfunc_to_str(value, ("a",)) for name, value in values.items()
        },
        "residuals": [
            "0" if ratfunc_is_zero(r) else ratfunc_to_str(r, ("a",))
            for r in residuals
        ],
        "verdict": "PASS" if ok else "FAIL",
    }


def _genesis_text(payload: dict) -> list[str]:
    lines = ["genesis check"]
    for product in payload["triple_products"]:
        lines.append(f"  triple product: {tuple(product)}")
    for name, text in sorted(payload["solution"].items()):
        lines.append(f"  {name} = {text}")
    for index, residual in enumerate(payload["residuals"]):
        lines.append(f"  relation residual {index}: {residual}")
    lines.append(f"  verdict: {payload['verdict']}")
    return lines


_PER_FIELD = {
    "funs": (_funs_payload, _funs_text),
    "auts": (_auts_payload, _auts_text),
    "u25": (_u25_payload, _u25_text),
    "lift-check": (_lift_check_payload, _lift_check_text),
    "bounds": (_bounds_payload, _bounds_text),
    "report": (_report_payload, _report_text),
}


# ---------------------------------------------------------------------------
# Dispatch


def _emit(payloads: list[dict], renderer, fmt: str) -> int:
    if fmt == "json":
        combined = payloads[0] if len(payloads) == 1 else {"results": payloads}
        print(_dumps(combined))
    else:
        for payload in payloads:
            for line in renderer(payload):
                print(line)
    ok = all(p["verdict"] == "PASS" for p in payloads)
    return 0 if ok else 1


def _verify_all_payload(start: int | None) -> dict:
    reports = [
        _report_payload(reprime(builtin_specs()[name], start)) for name in FIELD_NAMES
    ]
    genesis_payload = _genesis_payload()
    ok = all(p["verdict"] == "PASS" for p in (*reports, genesis_payload))
    return {
        "command": "verify-all",
        "reports": reports,
        "genesis": genesis_payload,
        "notes": [
            "fields with fewer than two or more than five elements need no "
            "computation and are out of scope"
        ],
        "verdict": "PASS" if ok else "FAIL",
    }


def _verify_all_text(payload: dict) -> list[str]:
    lines = [line for report in payload["reports"] for line in _report_text(report)]
    lines += _genesis_text(payload["genesis"])
    lines += [f"note: {note}" for note in payload["notes"]]
    lines.append(f"overall verdict: {payload['verdict']}")
    return lines


def _run_verify_all(args: _Args, fmt: str) -> int:
    payload = _verify_all_payload(_resolve_prime_start(args))
    return _emit([payload], _verify_all_text, fmt)


def _reject_unused_options(args: _Args) -> None:
    """An option choosing what genesis or verify-all runs is a usage error."""
    given = {
        "--spec": args.spec,
        "--field": args.field_flag,
        "field argument": args.field,
    }
    if args.command == "genesis":
        given["--prime-start"] = args.prime_start
    for option, value in given.items():
        if value is not None:
            raise _UsageError(f"{args.command} takes no {option}")


def _dispatch(args: _Args) -> int:
    if args.command in ("genesis", "verify-all"):
        _reject_unused_options(args)
    fmt = _resolve_format(args)
    if args.command == "genesis":
        return _emit([_genesis_payload()], _genesis_text, fmt)
    if args.command == "verify-all":
        return _run_verify_all(args, fmt)
    build, render = _PER_FIELD[args.command]
    specs = _load_specs(args)
    payloads = [{"command": args.command, **build(spec)} for spec in specs]
    return _emit(payloads, render, fmt)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ValueError) as exc:
        print(f"FAIL: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
