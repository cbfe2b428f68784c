"""Regenerate perfbench/golden/<workload>.jsonl: the exit code and stdout of
every query any seed can select.

usage: python3 perfbench/capture_golden.py [WORKLOAD ...]   (from the checkout root)

Only a change that says its output changed on purpose regenerates goldens.
Nothing is written when an oracle rejects an answer, so a golden cannot record
a known-wrong result.  The r1-refusals goldens are what the r1 subcommand would
print for the library answer unitclasses.r1_max(p, n, alpha, d, int(u)).
"""

from __future__ import annotations

import json
import os
import sys

import worker  # puts src/ and this directory on sys.path

import oracles  # noqa: E402
import queries  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _r1_library_answer(q):
    argv = q["argv"]
    args = {flag[2:]: int(argv[argv.index(flag) + 1]) for flag in ("--p", "--n", "--alpha", "--d", "--u")}
    _, text = worker._r1_max(args)
    return 0, text, None


def capture(workload):
    rows, rejected = [], []
    for q in queries.pool(workload):
        rc, text, result = _r1_library_answer(q) if workload == "r1-refusals" else worker.run_query(q)
        if "check" in q:
            why = oracles.check(q, rc, text, result)
            if why:
                rejected.append(f"{q['id']}: {why}")
        rows.append({"id": q["id"], "rc": rc, "stdout": text})
    if rejected:
        raise SystemExit(f"{workload}: oracle rejected {len(rejected)} answers, goldens not written:\n" + "\n".join(rejected[:20]))
    path = os.path.join(HERE, "golden", f"{workload}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    print(f"{workload}: {len(rows)} goldens -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(queries.WORKLOADS):
        capture(name)
