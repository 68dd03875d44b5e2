"""Record the stdout sha256 of every invocation of the default and held-out seeds.

    python3 perfbench/reference.py

Writes reference.json, keyed by the invocation's argv.  run.py compares each
invocation's stdout with it when the argv is listed there.  Record it only
from a commit whose output is known to be right; an invocation that fails the
other checks is not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from checks import check
from run import REFERENCE, Runner
from workloads import DEFAULT_SEED, HELD_OUT_SEED, SETUP_ARGV, WORKLOADS, invocations


def main() -> int:
    argvs = [SETUP_ARGV]
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            argvs += invocations(workload, seed)
    reference = {}
    runner = Runner(time.monotonic() + 600)
    for argv in argvs:
        result = runner.invoke(argv)
        problems = check(argv, result.code, result.stdout, result.stderr, {})
        if problems:
            print(f"not recorded, {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        reference[" ".join(argv)] = hashlib.sha256(result.stdout).hexdigest()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} invocations in {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
