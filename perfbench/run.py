"""lietilt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-p2 --seed 0 --seconds 40 --trace 0

Run from a checkout of the repository.  Every invocation is a fresh
`python -m lietilt` process on the checkout's `src/`, with a fresh empty
HOME and LIETILT_CACHE_DIR so that no cache state leaks between runs.  The
workload's invocation list is repeated until --seconds is used up; each
result is checked (see checks.py).

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json
(medians over the repetitions; setup_s is the median of several set-up
probes).  With --trace 1 it runs every invocation untraced and then traced,
through tracer.py, and reports the per-layer metrics plus the tracing
overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The host's CPU speed drifts in phases of seconds to minutes.  The run and
its children are therefore pinned to one CPU, a fixed calibration loop is
timed on it before, during and after each invocation, and every reported
time is scaled to the speed at which that loop takes CALIBRATION_REF_S.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check
from tracer import COUNTED, COUNTERS, TARGETS
from workloads import DEFAULT_SEED, SETUP_ARGV, WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
PROGRAM = ROOT / "src" / "lietilt" / "__main__.py"
SCRATCH = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_PROBES = 5  # at the start
SETUP_PROBES_PER_PASS = 3  # before each pass over the list

SPANS = {name for name, _, _ in TARGETS} - COUNTED
# CPU time of calibration_loop() that the reported times are scaled to:
# about its time on a 2-vCPU Xeon host in a fast phase.
CALIBRATION_REF_S = 0.005
# While a child runs, calibration_loop() is timed this often on its CPU,
# taking about 2.5 % of that CPU from the child.
SAMPLE_INTERVAL_S = 0.25


def calibration_loop() -> None:
    """A sparse product of big-integer Laurent polynomials, like charring's."""
    a = {i: (i * 7919) % 1000003 + (1 << 70) for i in range(160)}
    b = {i: (i * 104729) % 1000033 for i in range(160)}
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i - j] = out.get(i - j, 0) + x * y


def time_calibration_loop() -> float:
    cpu0 = time.thread_time()
    calibration_loop()
    return time.thread_time() - cpu0


def calibrate(repeats: int = 5) -> float:
    """Median CPU time of calibration_loop() on this thread."""
    return statistics.median(time_calibration_loop() for _ in range(repeats))


class SpeedSampler(threading.Thread):
    """Times calibration_loop() every SAMPLE_INTERVAL_S until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(SAMPLE_INTERVAL_S):
            self.samples.append(time_calibration_loop())

    def stop(self) -> list[float]:
        self._stop_event.set()
        self.join()
        return self.samples


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU that calibrate() times."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Result:
    argv: list[str]
    code: int
    stdout: bytes
    stderr: bytes
    raw_wall_s: float
    raw_cpu_s: float
    rss_mb: float
    trace: dict | None
    scale: float = 1.0  # CALIBRATION_REF_S over the mean calibration time around the child

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.scale

    @property
    def cpu_s(self) -> float:
        return self.raw_cpu_s * self.scale


class Runner:
    """Starts one isolated child at a time and reaps it with its rusage.

    The speed of the CPU is sampled before, during and after each child;
    the sample after one child serves as the sample before the next.  The
    mean tracks the average speed over the child's lifetime.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.calibration: float | None = None
        (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def invoke(self, argv: list[str], traced: bool = False) -> Result:
        before = self.calibration or calibrate()
        tmp = Path(tempfile.mkdtemp(dir=SCRATCH / "tmp"))
        sampler = SpeedSampler()
        sampler.start()
        try:
            result = self._invoke(argv, traced, tmp)
        finally:
            during = sampler.stop()
            shutil.rmtree(tmp, ignore_errors=True)
        self.calibration = calibrate()
        result.scale = CALIBRATION_REF_S / statistics.mean([before, *during, self.calibration])
        return result

    def _invoke(self, argv: list[str], traced: bool, tmp: Path) -> Result:
        for name in ("home", "cache"):
            (tmp / name).mkdir()
        env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "HOME": str(tmp / "home"),
            "LIETILT_CACHE_DIR": str(tmp / "cache"),
            "PYTHONPATH": str(ROOT / "src"),
            "TMPDIR": str(tmp),
        }
        trace_file = tmp / "trace.json"
        entry = [str(HERE / "tracer.py"), str(trace_file)] if traced else ["-m", "lietilt"]
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-s", *entry, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=env, cwd=tmp)
            timer = threading.Timer(max(self.remaining(), 0.1), os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if traced and trace_file.exists():
            try:
                trace = json.loads(trace_file.read_text())
            except ValueError:
                pass  # a child killed while writing; Tally counts it as failed
        return Result(argv, proc.returncode, (tmp / "stdout").read_bytes(), (tmp / "stderr").read_bytes(),
                      wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, trace)


class Tally:
    """Attempted and failed invocations, with the first few problems."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def add(self, result: Result, traced: bool = False) -> None:
        self.attempted += 1
        problems = check(result.argv, result.code, result.stdout, result.stderr, self.reference)
        if traced and result.trace is None:
            problems.append("no trace written")
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {' '.join(result.argv)}: {'; '.join(problems)}", file=sys.stderr)


def run_list(runner: Runner, tally: Tally, argvs: list[list[str]], traced: bool = False) -> list[Result]:
    results = []
    for argv in argvs:
        result = runner.invoke(argv, traced)
        tally.add(result, traced)
        results.append(result)
    return results


def repeat(runner: Runner, seconds: float, once) -> list:
    """Call once() until the next call would overrun seconds; at least once."""
    start = time.monotonic()
    samples, took = [], []
    while True:
        t0 = time.monotonic()
        samples.append(once())
        took.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(took) > seconds or runner.remaining() < 2 * max(took):
            return samples


def list_total(reps: list[list[Result]], field: str) -> float:
    """Time of one pass over the list: the sum of each invocation's median.

    Per-invocation medians use every sample of a run, so they resist the
    host's bursts of slowness better than a median of a few list totals.
    """
    return sum(statistics.median(getattr(rep[i], field) for rep in reps) for i in range(len(reps[0])))


def end_to_end(runner: Runner, tally: Tally, argvs: list[list[str]], seconds: float) -> tuple[dict, int]:
    probes = []

    def probe() -> None:
        result = runner.invoke(SETUP_ARGV)
        tally.add(result)
        probes.append(result.wall_s)

    def once() -> list[Result]:
        for _ in range(SETUP_PROBES_PER_PASS):  # spread the set-up probes over the run
            probe()
        return run_list(runner, tally, argvs)

    for _ in range(SETUP_PROBES):
        probe()
    reps = repeat(runner, seconds, once)
    return {
        "wall_s": list_total(reps, "wall_s"),
        "cpu_s": list_total(reps, "cpu_s"),
        "peak_rss_mb": max(r.rss_mb for rep in reps for r in rep),
        "setup_s": statistics.median(probes),
        "unscaled wall_s": list_total(reps, "raw_wall_s"),
        "median scale": statistics.median(r.scale for rep in reps for r in rep),
    }, len(reps)


def layer_values(traced: list[Result], names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced list: span self CPU, calls and counters.

    Times are scaled like the end-to-end ones, by each invocation's scale.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    out = {"trace.cpu_s": 0.0, "trace.wrapper_cpu_s": 0.0}
    for result in traced:
        trace = result.trace
        for name, row in trace["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_cpu_s": 0.0})
            total["calls"] += row["calls"]
            total["self_cpu_s"] += row["self_cpu_s"] * result.scale
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        out["trace.cpu_s"] += trace["cpu_s"] * result.scale
        out["trace.wrapper_cpu_s"] += trace["wrapper_cpu_s"] * result.scale
    out["trace.self_cpu_sum_s"] = sum(row["self_cpu_s"] for row in spans.values())
    out["trace.unattributed_cpu_s"] = out["trace.cpu_s"] - out["trace.self_cpu_sum_s"] - out["trace.wrapper_cpu_s"]
    tilting_calls = spans.get("tiltchar.char_tilting", {}).get("calls", 0)
    for name in names:
        if name.startswith("trace."):
            continue
        if name in COUNTERS:
            out[name] = counters.get(name, 0)
        elif name == "tiltchar.char_tilting_hit_ratio":
            hits = counters.get("tiltchar.char_tilting_hits", 0)
            out[name] = hits / tilting_calls if tilting_calls else 0.0
        else:
            span, _, field = name.rpartition("_")
            if span not in SPANS or field not in ("calls", "s"):
                raise ValueError(f"per-layer metric {name} names no span of tracer.py")
            row = spans.get(span, {"calls": 0, "self_cpu_s": 0.0})
            out[name] = row["calls"] if field == "calls" else row["self_cpu_s"]
    return out


def per_layer(runner: Runner, tally: Tally, argvs: list[list[str]], seconds: float,
              names: list[str]) -> tuple[dict, int, list[str]]:
    def pair():
        # Each traced invocation runs right after its untraced twin, so that
        # the host's slow phases hit both sides of the overhead alike.
        untraced, traced = [], []
        for argv in argvs:
            untraced += run_list(runner, tally, [argv])
            traced += run_list(runner, tally, [argv], traced=True)
        return untraced, traced

    pairs = repeat(runner, seconds, pair)
    absent = sorted({name for _, traced in pairs for r in traced if r.trace for name in r.trace["absent"]})
    layers = [layer_values([r for r in traced if r.trace], names) for _, traced in pairs]
    out = {name: statistics.median(sample[name] for sample in layers) for name in layers[0]}
    out["trace.wall_s"] = list_total([traced for _, traced in pairs], "wall_s")
    out["trace.untraced_wall_s"] = list_total([plain for plain, _ in pairs], "wall_s")
    out["trace.overhead_s"] = sum(statistics.median(traced[i].wall_s - plain[i].wall_s for plain, traced in pairs)
                                  for i in range(len(argvs)))
    return out, len(pairs), absent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind through Runner.invoke, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in (SPEC, PROGRAM):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    seconds = args.seconds or spec["run_seconds"]
    pin_to_one_cpu()
    runner = Runner(time.monotonic() + DEADLINE_S)
    tally = Tally(reference)
    argvs = invocations(args.workload, args.seed)

    tally.add(runner.invoke(SETUP_ARGV))  # warm-up: byte-code and page cache
    if args.trace:
        declared = spec["per_layer"]
        values, reps, absent = per_layer(runner, tally, argvs, seconds, [m["name"] for m in declared])
        if absent:
            print(f"absent from the program (reported as 0): {', '.join(absent)}")
    else:
        declared = spec["end_to_end"]
        values, reps = end_to_end(runner, tally, argvs, seconds)
    print(f"workload {args.workload} seed {args.seed}: {len(argvs)} invocations per list, "
          f"{reps} lists, {tally.attempted} invocations, {tally.failed} failed")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
    for name in sorted(values.keys() - metrics.keys()):
        print(f"  ({name:<32} {values[name]:>14.6g})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
