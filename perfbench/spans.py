"""Span and counter recorder for one traced pfverify invocation.

Run from the repository root, with ``src`` on ``PYTHONPATH``:

    python3 perfbench/spans.py report H4 --format json

The recorder wraps the public stage functions of the pfverify modules from
the outside, at every module binding of each function object (``symmetry``
and ``lift`` import by name), so calls between modules are seen and the
program's source is not edited.  It then calls ``pfverify.cli.main(argv)``
in this process with stdout captured, and prints one JSON line: the exit
code, the SHA-256 of the captured stdout, the wall time, the raw spans and
the counters.  Spans stay in memory until that single write at the end.

Stage functions get spans (name, field, start, end, parent).  Functions
that run thousands of times inside a stage get a call count and summed
time but no span, so they never reduce their caller's self time.  Hot
kernels get a call count only.  A listed name the program no longer
defines is skipped and reported as not wrapped; it is never an error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

# Stage functions recorded as spans, by module.
SPANS = {
    "pfield": ("build_fundamental_table",),
    "sieve": (
        "bound_exponents",
        "enumerate_candidates",
        "resolve_mod_map",
        "fingerprint_sieve",
        "verify_survivors",
    ),
    "symmetry": ("find_automorphisms", "confirm_candidate"),
    "lift": ("theorem1_report", "enumerate_u25", "local_lift_check"),
    "genesis": ("solved_values", "relation_residuals"),
}
# Functions called many times inside a stage: calls and summed time.
TIMED = {"pfield": ("factor_over_generators", "is_fundamental_exact")}
# Hot kernels: calls only.
COUNTED = {"exact": ("mod_eval", "poly_arith", "ratfunc_eq", "poly_subst")}
# Sizes read off a stage's result and kept as the largest value per field.
SIZES = {
    "sieve.enumerate_candidates": ("sieve.candidates", len),
    "sieve.fingerprint_sieve": ("sieve.survivors", lambda r: len(r.fingerprints)),
    "symmetry.find_automorphisms": ("symmetry.group_order", lambda r: len(r.elements)),
}
# Fingerprint primes tried: PartialFieldSpec.mod_map calls made directly
# by resolve_mod_map.
PRIMES_TRIED = ("sieve.primes_tried", "sieve.resolve_mod_map")


class Recorder:
    """In-memory spans plus per-(name, field) counters."""

    def __init__(self, spec_type: type | None) -> None:
        self.spec_type = spec_type
        self.spans: list[list] = []  # [name, field, start, end, parent]
        self.stack: list[int] = []
        self.field: str | None = None
        self.calls: dict[tuple[str, str | None], int] = {}
        self.seconds: dict[tuple[str, str | None], float] = {}
        self.sizes: dict[tuple[str, str | None], int] = {}

    def field_of(self, args, kwargs) -> str | None:
        """Field named by a spec argument, else the enclosing span's."""
        if self.spec_type is not None:
            for value in (*args, *kwargs.values()):
                if isinstance(value, self.spec_type):
                    return value.name
        return self.field

    def span(self, name: str, fn):
        size = SIZES.get(name)

        def wrapper(*args, **kwargs):
            field = self.field_of(args, kwargs)
            record = [name, field, perf_counter(), None,
                      self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            outer, self.field = self.field, field
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self.stack.pop()
                self.field = outer
            if size is not None:
                try:
                    value = size[1](result)
                except (AttributeError, TypeError):
                    pass
                else:
                    key = (size[0], field)
                    self.sizes[key] = max(self.sizes.get(key, 0), value)
            return result

        return wrapper

    def timed(self, name: str, fn):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            key = (name, self.field_of(args, kwargs))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] = seconds.get(key, 0.0) + perf_counter() - start
                calls[key] = calls.get(key, 0) + 1

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            key = (name, self.field)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def primes_tried(self, fn):
        counter, caller = PRIMES_TRIED

        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == caller:
                key = (counter, self.field)
                self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def install(recorder: Recorder) -> list[str]:
    """Wrap every listed function that exists; return the wrapped names."""
    import pfverify.cli  # noqa: F401  (imports every module the CLI runs)

    modules = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("pfverify.") and module is not None
    ]
    plan = []
    for table, make in (
        (SPANS, recorder.span),
        (TIMED, recorder.timed),
        (COUNTED, recorder.counted),
    ):
        for module_name, names in table.items():
            home = sys.modules.get(f"pfverify.{module_name}")
            for name in names:
                fn = getattr(home, name, None)
                if callable(fn):
                    qualified = f"{module_name}.{name}"
                    plan.append((qualified, fn, make(qualified, fn)))
    wrapped = []
    for qualified, fn, wrapper in plan:
        wrapped.append(qualified)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
    spec_type = recorder.spec_type
    method = vars(spec_type).get("mod_map") if spec_type is not None else None
    if callable(method) and "sieve.resolve_mod_map" in wrapped:
        setattr(spec_type, "mod_map", recorder.primes_tried(method))
        wrapped.append(PRIMES_TRIED[0])
    return wrapped


def main(argv: list[str]) -> int:
    try:
        from pfverify.pfield import PartialFieldSpec as spec_type
    except ImportError:
        spec_type = None
    recorder = Recorder(spec_type)
    wrapped = install(recorder)
    from pfverify.cli import main as cli_main

    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli_main(argv)
    wall = perf_counter() - start
    print(json.dumps({
        "exit": code,
        "stdout_sha256": hashlib.sha256(captured.getvalue().encode()).hexdigest(),
        "wall_s": wall,
        "wrapped": wrapped,
        "spans": recorder.spans,
        "calls": [[n, f, v] for (n, f), v in recorder.calls.items()],
        "seconds": [[n, f, v] for (n, f), v in recorder.seconds.items()],
        "sizes": [[n, f, v] for (n, f), v in recorder.sizes.items()],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
