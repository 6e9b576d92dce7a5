"""Cold-process benchmark for the pfverify command line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

pfverify is a batch program: every real run starts a fresh interpreter whose
module caches are empty.  So each timed invocation here is a cold
``python -m pfverify.cli ...`` process, run one at a time from this script
(a closed loop with one client), never with ``--workers``.

Workloads, and why each is here:

- ``tables``: ``funs all`` and ``genesis``.  The exponent box, the sieve
  and the associate closure are most of it and symmetry does no work, so
  table changes show here, and symmetry changes should not.
- ``reprime``: ``report H3`` and ``report H4`` at ``--prime-start`` values
  drawn from the seed in [10^11, 10^12), one process each.  Every layer,
  symmetry included, runs on the user's own-prime path with residue
  products above 2^63, and fixed per-process costs weigh more, so a gain
  tuned to the shipped primes, or bought by moving work into set-up, shows
  here as a cost.
- ``verify-all``: ``verify-all``, the product, one 60-90 s process.  It is
  not in ``BENCHMARK.json``: one sample per run cannot be steady on a
  shared host, and 22 runs of it take over half an hour.

All invocations print JSON (``--format json``).

With ``--trace 0`` a run measures, with tracing off, whole iterations of
the workload for ``--seconds`` (an iteration starts only if one as long as
the last still ends in time; the first always runs).  Before each
iteration it runs a few pairs of a reference process (``reference.py``, a
fixed workload that never imports pfverify) and a set-up process.  The host
of a shared virtual machine slows its CPUs by up to 40% for minutes at a
time, and the slowed process is charged the extra CPU time; every process
of the run is slowed alike, so the CPU times below are divided by the
median reference time of the same run and multiplied by ``REFERENCE_S``:

- ``cpu_s``: median over iterations of the summed user plus system time
  of the iteration's processes, rescaled;
- ``peak_rss_mb``: the largest max-RSS of any child process;
- ``setup_s``: median user plus system time of the set-up processes, cold
  interpreters that import ``pfverify.cli`` and call ``builtin_specs()``,
  rescaled.

Printed but left out of the result: ``cpu_raw_s`` and ``setup_raw_s``, the
same medians before rescaling, ``reference_s``, and ``wall_s``, the median
over iterations of the summed process wall times.  Wall time is not
bounded: the host also takes the CPU away for seconds at a time (steal
time, also printed), which CPU time does not count.

With ``--trace 1`` a run makes one iteration in which every invocation runs
twice: untraced as above, and under ``spans.py``, which records spans and
counters around the public functions of each layer.  The per-layer metrics
come from the traced process and the kernel microbenchmarks from
``kernels.py``.  ``trace.overhead_ratio`` is the traced over the untraced
CPU time, each rescaled by the reference processes around it; for
``verify-all`` the two processes run side by side, to stay within a run's
time, and the ratio is one of wall times.  The traced stdout digest must
equal the untraced one.

Every invocation is checked: exit code 0, verdict PASS, the frozen counts,
primes and spec fingerprints, the same stdout digest in every iteration of
the run, and the per-invocation timeout.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print each metric with its unit and sample count, and the
machine, Python version, commit, seed and samples.  Exit status: 0 when
every check passed, 1 when one failed, 2 when no pfverify source is found
under ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = ("H2", "H3", "H4", "H5")
WORKLOADS = ("verify-all", "tables", "reprime")

# Frozen results of the shipped field descriptions.
EXPECTED_COUNTS = {
    "H2": {"fundamentals": 11, "automorphisms": 2, "u25_pairs": 30, "domain": 11},
    "H3": {"fundamentals": 26, "automorphisms": 6, "u25_pairs": 120, "domain": 26},
    "H4": {"fundamentals": 56, "automorphisms": 24, "u25_pairs": 360, "domain": 56},
    "H5": {"fundamentals": 92, "automorphisms": 720, "u25_pairs": 720, "domain": 92},
}
SPEC_FINGERPRINTS = {
    "H2": "b224823bfac83e38020a82443c4f2a7a975c6f1cd2432c9faa609e0593aece62",
    "H3": "d48f4574d7e1bb13536a081302797f29c1c187791f32d91f545fa7ea1519067b",
    "H4": "4a7cb526d23620c7a1865b9eafd5f49816537ef859b7e75b718f931742079f02",
    "H5": "87a6c0dc8a79fc5bd6e116ff61bbd7a50368c06e460dbcd80a59453d73e37492",
}
PRIMES = {"H2": None, "H3": 1299709, "H4": 179424673, "H5": 22801763489}

REPRIME_FIELDS = ("H3", "H4")
REPRIME_BATCH = 2
REPRIME_RANGE = (10**11, 10**12)
# Set-up processes before every iteration, so that their median spans the run.
SETUPS_PER_ITERATION = {"verify-all": 8, "tables": 3, "reprime": 2}
# The CPU time of every measured process is rescaled to a machine on which the
# reference processes that ran just before and just after it take this many
# CPU seconds (about what they take on the machine in README.md when the host
# is quiet).
REFERENCE_S = 0.2
SAMPLES = ("cpu_s", "setup_s", "cpu_raw_s", "setup_raw_s", "reference_s", "wall_s")
# A run is meant to end within 180 s; no invocation may outlast this deadline.
RUN_DEADLINE_S = 170.0
# A malformed spec can hang the sieve's prime search, so every process is bounded.
TIMEOUT_S = {"verify-all": 160.0, "tables": 60.0, "reprime": 30.0}
SETUP_CODE = (
    "import pfverify.cli, pfverify.pfield; pfverify.pfield.builtin_specs()"
)
PROBE_CODE = "import pfverify.cli; print(pfverify.cli.__file__)"


class Invocation(NamedTuple):
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]


class Outcome(NamedTuple):
    wall_s: float
    code: int | None  # None when the timeout ended the process
    stdout: bytes
    stderr: bytes


# ---------------------------------------------------------------------------
# Output checks: each returns None or a one-line problem


def _check_report(report: dict, field: str, fingerprint: str) -> str | None:
    if report.get("field") != field:
        return f"report for {report.get('field')!r}, expected {field}"
    if report.get("spec_fingerprint") != fingerprint:
        return f"{field}: spec_fingerprint {report.get('spec_fingerprint')}"
    if report.get("counts") != EXPECTED_COUNTS[field]:
        return f"{field}: counts {report.get('counts')}"
    if report.get("violations") != [] or report.get("verdict") != "PASS":
        return f"{field}: verdict {report.get('verdict')} {report.get('violations')}"
    return None


def _check_verify_all(payload: dict) -> str | None:
    if payload.get("command") != "verify-all" or payload.get("verdict") != "PASS":
        return f"verify-all verdict {payload.get('verdict')}"
    reports = payload.get("reports") or []
    if [r.get("field") for r in reports] != list(FIELDS):
        return "verify-all does not report H2..H5 in order"
    for report in reports:
        problem = _check_report(report, report["field"], SPEC_FINGERPRINTS[report["field"]])
        if problem:
            return problem
    return _check_genesis(payload.get("genesis") or {})


def _check_genesis(payload: dict) -> str | None:
    if (
        payload.get("command") != "genesis"
        or payload.get("verdict") != "PASS"
        or payload.get("residuals") != ["0", "0", "0"]
        or payload.get("triple_products") != [[1, 1, 1]] * 3
    ):
        return "genesis check differs from the frozen result"
    return None


def _check_tables(payload: dict) -> str | None:
    results = payload.get("results") or []
    if [r.get("field") for r in results] != list(FIELDS):
        return "funs all does not list H2..H5 in order"
    for r in results:
        field = r["field"]
        count = EXPECTED_COUNTS[field]["fundamentals"]
        if r.get("command") != "funs" or r.get("verdict") != "PASS":
            return f"{field}: verdict {r.get('verdict')}"
        listed = len(r.get("entries") or [])
        if r.get("count") != count or listed != count:
            return f"{field}: count {r.get('count')}, {listed} entries, expected {count}"
        if r.get("prime") != PRIMES[field]:
            return f"{field}: prime {r.get('prime')}, expected {PRIMES[field]}"
        if r.get("spec_fingerprint") != SPEC_FINGERPRINTS[field]:
            return f"{field}: spec_fingerprint {r.get('spec_fingerprint')}"
    return None


def _check_reprime(field: str, fingerprint: str):
    def check(payload: dict) -> str | None:
        if payload.get("command") != "report":
            return f"command {payload.get('command')!r}, expected report"
        return _check_report(payload, field, fingerprint)

    return check


# ---------------------------------------------------------------------------
# Workload inputs


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 3.3e24."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reprimed_fingerprint(text: str, start: int) -> str:
    """Fingerprint of a spec whose prime line names the first prime >= start.

    The CLI also skips a prime at which a generator residue vanishes; for
    primes above 10^11 that has probability below 10^-9, and it would show
    here as a failed check, never as a wrong pass."""
    p = start
    while not _is_prime(p):
        p += 1
    lines = [
        f"prime {p}" if line.split()[:1] == ["prime"] else line
        for line in text.splitlines()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _spec_texts(fields) -> dict[str, str]:
    """Shipped spec texts, which must still hash to the frozen fingerprints."""
    from pfverify.pfield import builtin_specs

    specs = builtin_specs()
    texts = {}
    for field in fields:
        text = specs[field].source_text
        if hashlib.sha256(text.encode()).hexdigest() != SPEC_FINGERPRINTS[field]:
            raise SystemExit(f"shipped {field} spec differs from the frozen one")
        texts[field] = text
    return texts


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The cold processes of one iteration; the same seed gives the same list."""
    if workload == "verify-all":
        return [Invocation(("verify-all", "--format", "json"), _check_verify_all)]
    if workload == "tables":
        return [
            Invocation(("funs", "all", "--format", "json"), _check_tables),
            Invocation(("genesis", "--format", "json"), _check_genesis),
        ]
    rng = random.Random(seed)
    starts = [rng.randrange(*REPRIME_RANGE) for _ in range(REPRIME_BATCH)]
    texts = _spec_texts(REPRIME_FIELDS)
    return [
        Invocation(
            ("report", field, "--format", "json", "--prime-start", str(start)),
            _check_reprime(field, _reprimed_fingerprint(texts[field], start)),
        )
        for start in starts
        for field in REPRIME_FIELDS
    ]


# ---------------------------------------------------------------------------
# Processes


def _child_env(src: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PFVERIFY_")}
    env["PYTHONPATH"] = src
    return env


def _run(argv: list[str], env: dict, timeout: float) -> Outcome:
    start = perf_counter()
    try:
        proc = subprocess.run(
            argv, env=env, capture_output=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return Outcome(perf_counter() - start, None, b"", b"")
    return Outcome(perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)


def _judge(inv: Invocation, out: Outcome, digests: dict) -> str | None:
    """Problem with one untraced invocation, or None."""
    if out.code is None:
        return f"timed out after {out.wall_s:.1f} s"
    if out.code != 0:
        tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {out.code} {tail}"
    try:
        payload = json.loads(out.stdout)
    except ValueError:
        return "stdout is not JSON"
    problem = inv.check(payload)
    if problem:
        return problem
    digest = hashlib.sha256(out.stdout).hexdigest()
    if digests.setdefault(inv.argv, digest) != digest:
        return "stdout differs from an earlier iteration"
    return None


# ---------------------------------------------------------------------------
# Per-layer metrics from traced processes

# (metric, unit, wrapped name it needs, kind of value, key)
PER_FIELD = (
    ("sieve.bound_exponents_s", "s", "sieve.bound_exponents", "total", None),
    ("sieve.enumerate_candidates_s", "s", "sieve.enumerate_candidates", "total", None),
    ("sieve.resolve_mod_map_s", "s", "sieve.resolve_mod_map", "total", None),
    ("sieve.fingerprint_sieve_self_s", "s", "sieve.fingerprint_sieve", "self", None),
    ("sieve.verify_survivors_s", "s", "sieve.verify_survivors", "total", None),
    ("sieve.candidates", "count", "sieve.enumerate_candidates", "sizes", "sieve.candidates"),
    ("sieve.primes_tried", "count", "sieve.primes_tried", "calls", None),
    ("sieve.survivors", "count", "sieve.fingerprint_sieve", "sizes", "sieve.survivors"),
    ("pfield.build_fundamental_table_self_s", "s", "pfield.build_fundamental_table", "self", None),
    ("pfield.factor_over_generators_s", "s", "pfield.factor_over_generators", "seconds", None),
    ("pfield.is_fundamental_exact_s", "s", "pfield.is_fundamental_exact", "seconds", None),
    ("pfield.is_fundamental_exact.calls", "count", "pfield.is_fundamental_exact", "calls", None),
    ("symmetry.find_automorphisms_s", "s", "symmetry.find_automorphisms", "total", None),
    ("symmetry.find_automorphisms_self_s", "s", "symmetry.find_automorphisms", "self", None),
    ("symmetry.confirm_candidate_s", "s", "symmetry.confirm_candidate", "total", None),
    ("symmetry.confirm_candidate.calls", "count", "symmetry.confirm_candidate", "spans", None),
    ("symmetry.group_order", "count", "symmetry.find_automorphisms", "sizes", "symmetry.group_order"),
    ("lift.theorem1_report_s", "s", "lift.theorem1_report", "total", None),
    ("lift.enumerate_u25_s", "s", "lift.enumerate_u25", "total", None),
    ("lift.local_lift_check_s", "s", "lift.local_lift_check", "total", None),
    ("exact.mod_eval.calls", "count", "exact.mod_eval", "calls", None),
    ("exact.poly_arith.calls", "count", "exact.poly_arith", "calls", None),
    ("exact.ratfunc_eq.calls", "count", "exact.ratfunc_eq", "calls", None),
    ("exact.poly_subst.calls", "count", "exact.poly_subst", "calls", None),
)
# Summed over every field; genesis takes no field.
UNFIELDED = (
    ("genesis.solved_values_s", "s", "genesis.solved_values", "total", None),
    ("genesis.relation_residuals_s", "s", "genesis.relation_residuals", "total", None),
)


def _aggregate(records: list[dict]) -> tuple[set[str], dict]:
    """Combine spans and counters of traced processes by (kind, name, field).

    Times and counts are summed over processes.  Sizes, such as a group
    order, are properties of the field, so they keep the largest value;
    ``sizes_sum`` holds their sum over processes for ratios against counts."""
    wrapped = set.intersection(*(set(r["wrapped"]) for r in records))
    values: dict[tuple[str, str, str | None], float] = {}

    def add(kind, name, field, value):
        key = (kind, name, field)
        values[key] = values.get(key, 0) + value

    for record in records:
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, field, start, end, _), inner in zip(spans, covered):
            add("total", name, field, end - start)
            add("self", name, field, end - start - inner)
            add("spans", name, field, 1)
        for kind in ("calls", "seconds"):
            for name, field, value in record[kind]:
                add(kind, name, field, value)
        for name, field, value in record["sizes"]:
            add("sizes_sum", name, field, value)
            key = ("sizes", name, field)
            values[key] = max(values.get(key, 0), value)
    return wrapped, values


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    wrapped, values = _aggregate(records)
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, needs, kind, key in PER_FIELD:
        if needs in wrapped:
            for field in FIELDS:
                out[f"{metric}.{field}"] = (values.get((kind, key or needs, field), 0), unit)
    if {"symmetry.find_automorphisms", "symmetry.confirm_candidate"} <= wrapped:
        for field in FIELDS:
            order = values.get(("sizes_sum", "symmetry.group_order", field), 0)
            calls = values.get(("spans", "symmetry.confirm_candidate", field), 0)
            out[f"symmetry.confirm_yield.{field}"] = (order / calls if calls else 0.0, "ratio")
    for metric, unit, needs, kind, _ in UNFIELDED:
        if needs in wrapped:
            total = sum(v for (k, n, _), v in values.items() if k == kind and n == needs)
            out[metric] = (total, unit)
    return out


# ---------------------------------------------------------------------------
# Runs


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int, src: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = _child_env(src)
        self.reference = [sys.executable, os.path.join(HERE, "reference.py")]
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.invocations = invocations(workload, seed)
        self.attempted = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list[float]] = {}
        self.steal_s: float | None = None

    def timeout(self) -> float:
        return min(TIMEOUT_S[self.workload], self.deadline - perf_counter())

    def cli(self, inv: Invocation) -> list[str]:
        return [sys.executable, "-m", "pfverify.cli", *inv.argv]

    def record(self, inv: Invocation, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{' '.join(inv.argv)}: {problem}")

    def _reference(self, samples: dict[str, list[float]]) -> float | None:
        """CPU time of one reference process, or None when it failed."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        if _run(self.reference, self.env, self.timeout()).code != 0:
            self.problems.append("reference process failed")
            return None
        ref = _cpu_since(before)
        samples["reference_s"].append(ref)
        return ref

    def _bracketed(self, argv: list[str], samples: dict) -> tuple[Outcome, float, float] | None:
        """Run ``argv``, then a reference process.

        Returns the outcome of ``argv``, its CPU time and the mean CPU time
        of the reference processes just before and just after it, or None
        when the reference failed."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = _run(argv, self.env, self.timeout())
        cpu = _cpu_since(before)
        previous = samples["reference_s"][-1]
        ref = self._reference(samples)
        if ref is None:
            return None
        return out, cpu, (previous + ref) / 2

    def untraced(self) -> None:
        samples: dict[str, list[float]] = {name: [] for name in SAMPLES}
        digests: dict = {}
        start = perf_counter()
        last = 0.0
        if self._reference(samples) is None:
            return
        # Start an iteration only if one more, as long as the last, still
        # ends within --seconds; the first always runs.
        while not samples["cpu_s"] or perf_counter() - start + last <= self.seconds:
            began = perf_counter()
            for _ in range(SETUPS_PER_ITERATION[self.workload]):
                bracketed = self._bracketed([sys.executable, "-c", SETUP_CODE], samples)
                if bracketed is None:
                    return
                out, cpu, ref = bracketed
                if out.code != 0:
                    self.problems.append("set-up process failed")
                    return
                samples["setup_raw_s"].append(cpu)
                samples["setup_s"].append(cpu * REFERENCE_S / ref)
            wall = raw = scaled = 0.0
            for inv in self.invocations:
                bracketed = self._bracketed(self.cli(inv), samples)
                if bracketed is None:
                    return
                out, cpu, ref = bracketed
                raw += cpu
                scaled += cpu * REFERENCE_S / ref
                wall += out.wall_s
                self.record(inv, _judge(inv, out, digests))
            if self.problems:
                return
            samples["cpu_raw_s"].append(raw)
            samples["cpu_s"].append(scaled)
            samples["wall_s"].append(wall)
            last = perf_counter() - began
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        self.samples = samples
        self.metrics = {
            "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
            "peak_rss_mb": (rss, "MiB"),
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
        }

    def traced(self) -> None:
        from kernels import run_kernels

        kernel_metrics = run_kernels(self.seed)
        records: list[dict] = []
        tracer = [sys.executable, os.path.join(HERE, "spans.py")]
        run_pairs = self._pairs_side_by_side if self.workload == "verify-all" else self._pairs
        pairs = run_pairs(tracer)
        if pairs is None:
            return
        outcomes, plain_cost, traced_cost = pairs
        for inv, (out, traced) in zip(self.invocations, outcomes):
            self.record(inv, _judge(inv, out, {}) or self._trace_problem(out, traced, records))
        if self.problems:
            return
        self.metrics = layer_metrics(records)
        for name, value in kernel_metrics.items():
            self.metrics[name] = (value, "count" if name.endswith(".ops") else "us")
        self.metrics["trace.overhead_ratio"] = (traced_cost / plain_cost, "ratio")

    def _pairs(self, tracer: list[str]):
        """Each invocation untraced, then traced, each between reference
        processes; the costs are CPU times over the bracketing references."""
        samples: dict[str, list[float]] = {"reference_s": []}
        if self._reference(samples) is None:
            return None
        outcomes, plain_cost, traced_cost = [], 0.0, 0.0
        for inv in self.invocations:
            plain = self._bracketed(self.cli(inv), samples)
            if plain is None:
                return None
            traced = self._bracketed(tracer + list(inv.argv), samples)
            if traced is None:
                return None
            outcomes.append((plain[0], traced[0]))
            plain_cost += plain[1] / plain[2]
            traced_cost += traced[1] / traced[2]
        return outcomes, plain_cost, traced_cost

    def _pairs_side_by_side(self, tracer: list[str]):
        """Each invocation untraced and traced at the same time, which keeps a
        traced verify-all within a run's time; the costs are wall times, so
        the ratio also holds the contention between the two."""
        outcomes = []
        with ThreadPoolExecutor(max_workers=2) as pool:
            for inv in self.invocations:
                plain = pool.submit(_run, self.cli(inv), self.env, self.timeout())
                traced = pool.submit(_run, tracer + list(inv.argv), self.env, self.timeout())
                outcomes.append((plain.result(), traced.result()))
        return (outcomes, sum(p.wall_s for p, _ in outcomes),
                sum(t.wall_s for _, t in outcomes))

    @staticmethod
    def _trace_problem(out: Outcome, traced: Outcome, records: list) -> str | None:
        if traced.code != 0:
            return f"traced process exit {traced.code}"
        try:
            record = json.loads(traced.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return "traced process printed no record"
        if record["exit"] != 0:
            return f"traced cli.main returned {record['exit']}"
        if record["stdout_sha256"] != hashlib.sha256(out.stdout).hexdigest():
            return "traced stdout differs from untraced stdout"
        records.append(record)
        return None


def _cpu_since(before) -> float:
    """User plus system seconds of the children reaped since ``before``."""
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _steal_s() -> float | None:
    """Seconds all CPUs of this virtual machine have waited for the host."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _machine(root: str) -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "pfverify")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def iqr_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# Printed beside the end-to-end metrics, medians of the run's samples.
UNBOUNDED = ("cpu_raw_s", "setup_raw_s", "reference_s", "wall_s")


def report(run: Run, trace: int, machine: dict) -> dict:
    """Print the metric lines and the result object; return the result."""
    for name, (value, unit) in run.metrics.items():
        samples = run.samples.get(name)
        detail = f"n={len(samples)} spread={iqr_spread(samples):.4f}" if samples else "n=1"
        print(f"{run.workload:<11} {name:<44} {value:>16.6f} {unit:<6} {detail}")
    for name in UNBOUNDED:
        samples = run.samples.get(name)
        if samples:
            print(f"{run.workload:<11} {name + ' (not bounded)':<44} "
                  f"{statistics.median(samples):>16.6f} {'s':<6} "
                  f"n={len(samples)} spread={iqr_spread(samples):.4f}")
    failed = len(run.problems)
    if not trace:
        ratio = failed / run.attempted if run.attempted else 1.0
        print(f"{run.workload:<11} {'failed_ratio':<44} {ratio:>16.6f} {'ratio':<6} n={run.attempted}")
    for problem in run.problems:
        print(f"{run.workload:<11} FAIL {problem}")
    meta = dict(machine, workload=run.workload, seed=run.seed,
                seconds=run.seconds, trace=trace, steal_s=run.steal_s)
    if run.samples:
        meta["samples"] = run.samples
        meta["spread"] = {name: iqr_spread(s) for name, s in run.samples.items()}
    print("# " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0 and bool(run.metrics),
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run.metrics.items()
        },
    }
    print(json.dumps(result))
    return result


def _find_program(root: str) -> str | None:
    """The src directory, if it holds the pfverify package this run imports."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pfverify", "cli.py")):
        return None
    probe = _run([sys.executable, "-c", PROBE_CODE], _child_env(src), 60.0)
    found = os.path.realpath(probe.stdout.decode(errors="replace").strip() or ".")
    if probe.code != 0 or not found.startswith(os.path.realpath(src) + os.sep):
        return None
    return src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        # One process of this script per workload, so that child resource usage,
        # which the kernel sums per parent, stays per workload.
        codes = [
            subprocess.run([
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    root = os.getcwd()
    src = _find_program(root)
    if src is None:
        print(f"no importable pfverify package under {root}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    run = Run(args.workload, args.seed, args.seconds, src)
    steal = _steal_s()
    run.traced() if args.trace else run.untraced()
    if steal is not None:
        run.steal_s = _steal_s() - steal
    return 0 if report(run, args.trace, _machine(root))["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
