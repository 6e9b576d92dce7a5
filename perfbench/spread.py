"""Run-to-run spread of the end-to-end metrics, one benchmark run per seed.

Run from the root of a checkout of the repository:

    python3 perfbench/spread.py --workload tables --seeds 10
    python3 perfbench/spread.py --workload verify-all tables reprime \\
        --seeds 10 --out spread.json
    python3 perfbench/spread.py --workload tables --seeds 10 --first 11 \\
        --against spread.json

Runs ``perfbench/run.py --trace 0`` once per seed (seeds ``--first`` ..
``--first + --seeds - 1``), one run at a time.  For every workload and
end-to-end metric it prints the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound in ``BENCHMARK.json``.  A spread is
``steady`` below a third of the bound and ``OVER`` above the bound.  With
``--against`` it also
checks that no median is worse than the earlier file's by more than the
bound.  Exit status 1 when a run fails or a check is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import iqr_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(l[2:]) for l in lines if l.startswith("# ")), {})
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {"meta": meta, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)["workloads"]
    summary: dict = {"workloads": {}}
    ok = True
    for workload in args.workload:
        runs = [
            _one_run(workload, seed, bench["run_seconds"])
            for seed in range(args.first, args.first + args.seeds)
        ]
        summary["machine"] = {
            k: runs[0]["meta"].get(k)
            for k in ("nproc", "cpu_model", "python", "commit", "source_sha256")
        }
        rows = summary["workloads"][workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = iqr_spread(values)
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "OVER"
            ok = ok and verdict != "OVER"
            line = (f"{workload:<11} {name:<12} median {median:12.6f} "
                    f"q1 {q1:12.6f} q3 {q3:12.6f} spread {spread:.4f} "
                    f"bound {bound} {verdict}")
            before = earlier.get(workload, {}).get(name)
            if before:
                change = median / before["median"] - 1
                worse = change > bound
                ok = ok and not worse
                line += f" vs-earlier {change:+.4f}{' WORSE' if worse else ''}"
            print(line, flush=True)
            rows[name] = {"values": values, "q1": q1, "median": median,
                          "q3": q3, "spread": spread}
        rows["runs"] = [
            {k: r["meta"].get(k) for k in ("seed", "samples", "steal_s")}
            for r in runs
        ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
