"""Check every query of every benchmark pool against its golden and its oracle.

usage: python3 tools/check_pools.py [WORKLOAD ...]   (default: every workload)

For each workload, runs every query any seed can select (perfbench/queries.py
`pool`) once through perfbench/worker.py `run_query`, compares its exit code
and stdout with perfbench/golden/<workload>.jsonl and runs perfbench/oracles.py
`check` on each query that carries a check.  Prints one summary line per
workload and the first differences, and exits 1 if any query differs.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.chdir(ROOT)  # worker.py puts ./src on sys.path; query argv name scripts under src/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402  (first: it puts src/ on sys.path)

import oracles  # noqa: E402
import queries  # noqa: E402
from run import load_golden  # noqa: E402

SHOWN = 20  # differences printed per workload


def check_pool(workload):
    """(number of queries, [(query id, reason)]) for one workload's pool."""
    golden = load_golden(workload)
    pool = queries.pool(workload)
    bad = []
    for q in pool:
        try:
            rc, text, result = worker.run_query(q)
        except Exception as exc:  # a traceback is a difference to report, not a reason to stop
            bad.append((q["id"], f"raised {type(exc).__name__}: {exc}"))
            continue
        want = golden.get(q["id"])
        if want is None:
            bad.append((q["id"], "no golden"))
        elif rc != want[0]:
            bad.append((q["id"], f"exit {rc}, golden {want[0]}"))
        elif hashlib.sha256(text.encode()).hexdigest() != want[1]:
            bad.append((q["id"], "stdout differs from golden"))
        elif "check" in q:
            why = oracles.check(q, rc, text, result)
            if why:
                bad.append((q["id"], f"oracle: {why}"))
    return len(pool), bad


def main(argv):
    ok = True
    for workload in argv or list(queries.WORKLOADS):
        t0 = time.perf_counter()
        total, bad = check_pool(workload)
        print(f"{workload}: {total - len(bad)}/{total} match ({time.perf_counter() - t0:.1f} s)")
        for qid, why in bad[:SHOWN]:
            print(f"  {qid}: {why}")
        ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
