"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py                      # seeds 0-9, end-to-end
    python3 perfbench/report.py --trace 1 --seeds 0-2  # per-layer

For each workload and metric it prints the median, the p90 and the number of
runs, and the spread: the distance between the quartiles as a share of the
median.  Failed invocations are reported as fail_ratio = failed / attempted.
Whether a change is a regression is left to the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "p90": max(values), "n": len(values), "spread": 0.0}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["p90"] = statistics.quantiles(values, n=10)[-1]
        out["spread"] = (q3 - q1) / med if med else 0.0
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"), help="range such as 0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs]) for m in declared}
        print(f"{workload}: {len(runs)} runs, fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
        for m in declared:
            s = metrics[m["name"]]
            print(f"  {m['name']:<34} median {s['median']:<12.6g} p90 {s['p90']:<12.6g} {m['unit']:<6}"
                  f" n={s['n']} spread {s['spread']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
