"""Command-line front end for the verification library.

Every command prints either human-readable text or canonical JSON (sorted
keys, compact separators, written here without the json package) to
stdout; progress notes go to stderr.  Exit status 0 means every requested
check passed, 1 means a check failed and the output carries the first
counterexample, 2 means a usage error; a run whose output cannot be
written, because the reader closed the pipe, ends with 1 and no traceback.
Both `python -m pfverify.cli` and the installed pfverify script go through
run(): it flushes stdout and stderr and ends the process with os._exit,
without interpreter teardown, so no library module may rely on atexit;
main() only returns the status.  Each command's payload and text
builders sit beside the computation they report (funs and verify-all, which
no other module fits, are here); this module parses argv, loads the specs,
adds the command and spec_fingerprint keys and writes the output.  The
modules closure, genesis, lift, sieve and symmetry are registered on import
and run only when a command first reads them.
"""

from __future__ import annotations

import importlib.util
import os
import sys

from .exact import PRIME_LIMIT, gauss_to_str
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
    leave the module out of sys.modules and its spans unrecorded.  closure,
    which only pfield.build_fundamental_table imports, is registered for the
    same reason.  Once the stages record their own counters (ROADMAP item
    3), plain imports inside the commands can replace this."""
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
_lazy("closure")  # read by pfield.build_fundamental_table only

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


_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}


def _quote(text: str) -> str:
    """text as a JSON string, escaped as json.dumps(ensure_ascii=True) does."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    out = []
    for c in text:
        n = ord(c)
        if c in _ESCAPES:
            out.append(_ESCAPES[c])
        elif 0x20 <= n < 0x7F:
            out.append(c)
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:  # a surrogate pair
            n -= 0x10000
            out.append(f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}")
    return f'"{"".join(out)}"'


def _dumps(value) -> str:
    """Canonical JSON, byte for byte what json.dumps(value, sort_keys=True,
    separators=(",", ":")) writes, without loading the json package.  It
    writes dicts with str keys, lists, tuples, str, int, bool and None; any
    other type, float included, raises TypeError."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        return f"[{','.join(map(_dumps, value))}]"
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = (f"{_quote(key)}:{_dumps(value[key])}" for key in sorted(value))
        return f"{{{','.join(items)}}}"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


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
    re-primed at the resolved prime start.  A given --spec, even an empty
    one, wins over PFVERIFY_SPEC; an empty PFVERIFY_SPEC counts as unset."""
    start = _resolve_prime_start(args)
    spec_path = args.spec
    if spec_path is None:
        spec_path = os.environ.get("PFVERIFY_SPEC") or None
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
    """SHA-256 of the spec text.  CPython's builtin module computes it
    without loading OpenSSL: _sha256, renamed _sha2 in Python 3.12.
    hashlib, which loads OpenSSL, is the fallback where neither exists."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(spec.source_text.encode()).hexdigest()


def _funs_payload(spec: PartialFieldSpec) -> dict:
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


# The stderr status of each command, after "<field>: ", as its work starts.
_STATUS = {
    "funs": "building the fundamental table by both routes",
    "auts": "searching for symmetries",
    "u25": "enumerating rank-2 representation pairs",
    "lift-check": "lifting every tuple pair",
    "bounds": "bounding the exponent box",
    "report": "running all verification stages",
    "genesis": "checking the defining triples and relations",
}
# The payload and text builders of each per-field command.  Each sits
# beside the computation it reports and is read only when its command runs,
# so a command runs only the modules it needs.
_PER_FIELD = {
    "funs": lambda: (_funs_payload, _funs_text),
    "auts": lambda: (symmetry.auts_payload, symmetry.auts_text),
    "u25": lambda: (lift.u25_payload, lift.u25_text),
    "lift-check": lambda: (lift.lift_check_payload, lift.lift_check_text),
    "bounds": lambda: (sieve.bounds_payload, sieve.bounds_text),
    "report": lambda: (lift.theorem1_report, lift.report_text),
}


def _field_payload(command: str, spec: PartialFieldSpec) -> dict:
    _status(f"{spec.name}: {_STATUS[command]}")
    build, _ = _PER_FIELD[command]()
    return {**build(spec), "spec_fingerprint": _spec_fingerprint(spec)}


def _genesis_payload() -> dict:
    _status(f"genesis: {_STATUS['genesis']}")
    return {"command": "genesis", **genesis.genesis_payload()}


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
        _field_payload("report", reprime(builtin_specs()[name], start))
        for name in FIELD_NAMES
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
    lines = [line for p in payload["reports"] for line in lift.report_text(p)]
    lines += genesis.genesis_text(payload["genesis"])
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
        return _emit([_genesis_payload()], genesis.genesis_text, fmt)
    if args.command == "verify-all":
        return _run_verify_all(args, fmt)
    specs = _load_specs(args)
    payloads = [
        {"command": args.command, **_field_payload(args.command, spec)}
        for spec in specs
    ]
    _, render = _PER_FIELD[args.command]()
    return _emit(payloads, render, fmt)


def _main(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
        return 0 if args is None else _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, ValueError) as exc:
        print(f"FAIL: {exc}")
        return 1


def main(argv: list[str] | None = None) -> int:
    """The exit status of one command on argv (sys.argv[1:] if None); it
    returns and never exits.  A reader that has closed stdout or stderr
    makes it 1."""
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        return 1


def run() -> None:
    """Run main(), flush stdout and stderr, and end the process with its
    status through os._exit, skipping interpreter teardown (freeing every
    module, table and cache), which a cold process would pay for last.  A
    flush that fails, as it does when the reader has closed the pipe, makes
    the status 1."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
