"""Run one lietilt invocation through lietilt.cli.main with layer spans.

    python tracer.py TRACE_JSON ARGV...

Wraps the public functions in TARGETS from outside (the program's source is
not changed), runs the invocation, leaves the program's stdout untouched and
writes per-span totals to TRACE_JSON.  Self time is per-thread CPU time
(time.thread_time) minus the CPU time of the child spans on the same thread:
wall spans on threads that share the interpreter lock overlap and do not add
up, CPU spans do.  A target missing from the program is listed as absent.

A span costs CPU time outside its own timed window, which lands in the
caller's self time, and inside it, which lands in its own.  Both are
measured once at start-up on a no-op target and taken off per span; the
total taken off is written as wrapper_cpu_s.  Targets called about a
million times (binom_mod) get a counting wrapper with no span and no clock
reads, whose cost is taken off its caller in the same way.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

# (span name, module, attribute path); the span name is also the metric prefix.
TARGETS = [
    ("cli.main", "lietilt.cli", "main"),
    ("charring.mul", "lietilt.charring", "SymCharacter.__mul__"),
    ("charring.add", "lietilt.charring", "SymCharacter.__add__"),
    ("tiltchar.natural_power_char", "lietilt.tiltchar", "natural_power_char"),
    ("tiltchar.char_tilting", "lietilt.tiltchar", "char_tilting"),
    ("tiltchar.decompose", "lietilt.tiltchar", "decompose"),
    ("liechar.char_lie_power", "lietilt.liechar", "char_lie_power"),
    ("liechar.stohr_summand", "lietilt.liechar", "stohr_summand"),
    ("liechar.lie_tilting_decomp", "lietilt.liechar", "lie_tilting_decomp"),
    ("gzeta.c_sequence", "lietilt.gzeta", "c_sequence"),
    ("gzeta.gzeta_profile", "lietilt.gzeta", "gzeta_profile"),
    ("modarith.binom_mod", "lietilt.modarith", "binom_mod"),
    ("modarith.witt_weight_count", "lietilt.modarith", "witt_weight_count"),
    ("report.theorem_a_report", "lietilt.report", "theorem_a_report"),
    ("report.theorem_c_report", "lietilt.report", "theorem_c_report"),
    ("report.theorem_37_report", "lietilt.report", "theorem_37_report"),
    ("report.sweep", "lietilt.report", "sweep"),
    ("cache.warm_tilting", "lietilt.cache", "warm_tilting"),
    ("cache.flush_tilting", "lietilt.cache", "flush_tilting"),
]
# Targets whose calls are counted (as "<name>_calls") but not timed.
COUNTED = {"modarith.binom_mod"}
# Counter metrics, besides the "<span>_s" and "<span>_calls" of each span.
COUNTERS = {"charring.mul_terms", "tiltchar.elim_steps", "tiltchar.char_tilting_hits"}
COUNTERS |= {name + "_calls" for name in COUNTED}


class Recorder:
    """Span and counter totals, kept per thread and merged at the end.

    Each thread writes only its own table, so the hot path takes no lock;
    a lock guards the list of tables and the shared set of seen arguments.
    A stack frame holds [child span CPU, child spans, counted child calls].
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables: list[dict] = []
        self._seen: set = set()

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {"stack": [], "spans": {}, "counters": {}}
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, name: str, amount: int) -> None:
        counters = self._table()["counters"]
        counters[name] = counters.get(name, 0) + amount

    def count_call(self, name: str) -> None:
        table = self._table()
        counters = table["counters"]
        counters[name] = counters.get(name, 0) + 1
        if table["stack"]:
            table["stack"][-1][2] += 1

    def first_time(self, key) -> bool:
        with self._lock:
            if key in self._seen:
                return False
            self._seen.add(key)
            return True

    def span(self, name: str, fn, args, kwargs, calls: int = 1):
        table = self._table()
        stack = table["stack"]
        frame = [0.0, 0, 0]
        stack.append(frame)
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = time.thread_time() - cpu0
            wall = time.perf_counter() - wall0
            stack.pop()
            if stack:
                stack[-1][0] += cpu
                stack[-1][1] += 1
            # calls, spans, self CPU, wall, child spans, counted child calls
            row = table["spans"].setdefault(name, [0, 0, 0.0, 0.0, 0, 0])
            row[0] += calls
            row[1] += 1
            row[2] += cpu - frame[0]
            row[3] += wall
            row[4] += frame[1]
            row[5] += frame[2]

    def totals(self, costs: tuple[float, float, float]) -> tuple[dict, dict, float]:
        """Merged spans and counters, and the wrapper cost taken off self times."""
        caller_cost, own_cost, count_cost = costs
        spans: dict = {}
        counters: dict = {}
        removed = 0.0
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, n_spans, self_cpu, wall, child_spans, child_counts) in table["spans"].items():
                cost = n_spans * own_cost + child_spans * caller_cost + child_counts * count_cost
                removed += cost
                row = spans.setdefault(name, {"calls": 0, "self_cpu_s": 0.0, "wall_s": 0.0})
                row["calls"] += calls
                row["self_cpu_s"] += self_cpu - cost
                row["wall_s"] += wall
            for name, value in table["counters"].items():
                counters[name] = counters.get(name, 0) + value
        return spans, counters, removed


def _wrapper(rec: Recorder, name: str, fn):
    if name in COUNTED:
        calls = name + "_calls"

        def call(*args, **kwargs):
            rec.count_call(calls)
            return fn(*args, **kwargs)
    elif name == "report.sweep":
        # Pool tasks run on other threads; a task span there charges their
        # glue code (payload building, executor) to the pool.
        def call(task, values, *args, **kwargs):
            def traced_task(value):
                return rec.span(name, task, (value,), {}, calls=0)

            return rec.span(name, fn, (traced_task, values) + args, kwargs)
    elif name == "charring.mul":
        def call(a, b):
            out = rec.span(name, fn, (a, b), {})
            if isinstance(b, type(a)):
                rec.count("charring.mul_terms", len(a.support) * len(b.support))
            return out
    elif name == "tiltchar.decompose":
        def call(*args, **kwargs):
            out = rec.span(name, fn, args, kwargs)
            rec.count("tiltchar.elim_steps", len(out.entries))
            return out
    elif name == "tiltchar.char_tilting":
        def call(*args, **kwargs):
            if not rec.first_time(args + tuple(sorted(kwargs.items()))):
                rec.count("tiltchar.char_tilting_hits", 1)
            return rec.span(name, fn, args, kwargs)
    else:
        def call(*args, **kwargs):
            return rec.span(name, fn, args, kwargs)
    return functools.wraps(fn)(call)


def wrapper_costs(calls: int = 2000, repeats: int = 5) -> tuple[float, float, float]:
    """Per-call CPU cost of the wrappers: (span to its caller, span to itself, count to its caller).

    Times a caller span making `calls` calls to a no-op through each wrapper
    and bare, on a throw-away recorder; medians over `repeats`.
    """
    def noop():
        return None

    def caller(target):
        for _ in range(calls):
            target()

    def cost(name: str) -> tuple[float, float]:
        rec = Recorder()
        target = _wrapper(rec, name, noop) if name else noop
        to_caller, to_self = [], []
        for _ in range(repeats):
            rec.span("caller", caller, (target,), {})
            spans = rec._table()["spans"]
            to_caller.append(spans.pop("caller")[2] / calls)
            to_self.append(spans.pop(name, [0, 0, 0.0])[2] / calls)
        return statistics.median(to_caller), statistics.median(to_self)

    bare, _ = cost("")
    span_to_caller, span_to_self = cost("trace.noop")
    count_to_caller, _ = cost(next(iter(COUNTED)))
    return span_to_caller - bare, span_to_self, count_to_caller - bare


def install(rec: Recorder) -> list[str]:
    """Wrap every target wherever a lietilt module holds it; return the absent ones."""
    absent = []
    resolved = []
    for name, module, path in TARGETS:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            absent.append(name)
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            absent.append(name)
        else:
            resolved.append((name, owner, fn))
    modules = [m for key, m in sys.modules.items() if key == "lietilt" or key.startswith("lietilt.")]
    for name, owner, fn in resolved:
        wrapped = _wrapper(rec, name, fn)
        # `from .x import f` binds f in other modules; `__rmul__ = __mul__` in the class.
        for holder in modules + [owner]:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapped)
    return absent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    costs = wrapper_costs()
    rec = Recorder()
    absent = install(rec)
    cli = importlib.import_module("lietilt.cli")
    cpu0 = time.process_time()
    try:
        code = cli.main(argv)
    finally:
        cpu = time.process_time() - cpu0
        spans, counters, removed = rec.totals(costs)
        with open(out_path, "w") as fh:
            json.dump({"cpu_s": cpu, "wrapper_cpu_s": removed, "spans": spans, "counters": counters,
                       "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
