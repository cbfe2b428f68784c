"""stabforge benchmark: fixed, seeded workloads through the public entry points.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout (the directory holding src/).  Each pass
of a workload runs in a fresh interpreter on one thread, and sends every query
through stabforge.cli.main(argv) with stdout captured, or through the named
library function.  Passes repeat until the next one would end more than
--seconds after the run started; each metric is the median over passes.  Times are seconds at a reference
machine speed: a calibration loop timed during the pass cancels the speed
changes of a shared machine (calibration.py); raw times are printed in the
first line of the report.  Every answer is compared byte for byte
with perfbench/golden/<workload>.jsonl and, where the paper or the algebra
gives one, with an independent oracle (oracles.py).  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (the seed picks the --u units, the OrderElem operands, the
xi_generator targets and the query order; the program sees only the queries):

  membership-deep  membership at large ramification: p = 2, alpha 6 and 7,
                   k = 4 (e = 32, 64; depth up to 194); p = 2, alpha 6, k = 2
                   with a true and a false verdict; p = 3, alpha 3 and 4,
                   k = 3; p = 5 and 7, alpha 2; f = 2 towers; epsilon and
                   expand at (2, 7) and (3, 4).  About 80% of the time is
                   FieldElem.__mul__ and 10% div_pi: the tower multiply and
                   the echelon are measured here.
  order-witt       the twisted order over unramified towers (e = 1, f <= 12):
                   xi_generator at (2,8) (2,10) (2,12) (3,6) (3,8) (5,4),
                   OrderElem invert and * at n in {2,4,6,12}, p in {2,3},
                   verify of q8.rel and example049.rel.  Most of the time is
                   the brute-force F_q search under solve_norm_equation; the
                   multiply has large f and e = 1, the opposite of
                   membership-deep, so a large-e tuning that slows large f
                   shows here.
  classify-grid    about 3.1k cheap queries: classify on every (p <= 7,
                   n <= 12, unit residue), --inner and --abelian, r1 on every
                   (p, n, alpha >= 1, d, u), r2 and epsilon-test where their
                   preconditions hold, cohomology --golden.  Half of each
                   query is building the argparse parser: per-call and set-up
                   costs, and small towers (e, f <= 6), show here.
  r1-refusals      not in BENCHMARK.json: the 1,024 odd-p r1 CLI queries that
                   the CLI refuses (it parses --u at precision 2, epsilon_test
                   needs 3).  Goldens are unitclasses.r1_max with an integer
                   u; every refusal counts in ops_failed until the CLI is
                   fixed.  classify-grid sends these through r1_max itself.

End-to-end metrics (--trace 0), one value per run, median over passes:

  wall_s           s      wall time of one pass over the queries, after set-up
                          (the sum of the queries' times)
  cpu_s            s      process CPU time of the same queries
  slowest_query_s  s      wall time of the pass's slowest query
  setup_s          s      fresh interpreter: import stabforge.cli + build_parser
                          (median of 15 interpreters)
  peak_rss_mb      MB     peak resident memory of the pass's process (VmHWM)
  ops_total        count  queries in one pass
  ops_failed       count  queries that raised, exited 2, hit the 30 s limit, or
                          disagreed with their golden or oracle.  Printed in
                          the report and given as "failed"; BENCHMARK.json
                          lists only metrics that are never 0.

Per-layer metrics (--trace 1): <layer>.calls and <layer>.self_s for every
layer in tracing.LAYERS, plus localfield.teichmuller.reuse_ratio,
unitclasses.echelon_entries and trace.overhead_s (traced minus untraced
wall_s).  The traced run makes four passes: untraced, traced, traced,
untraced.  The two traced passes must give identical calls, every layer the
workload is meant to exercise must be called, and every wrapped function must
be restored.  self_s is the mean of the two traced passes.  Spans go to
perfbench/out/.

Which layer metric should move which end-to-end metric:

  layer metric                         should move          on               flat on
  localfield.mul.self_s / .calls       wall_s, cpu_s,       membership-deep  classify-grid; order-witt
                                       slowest_query_s                       is the large-f guard
  localfield.div_pi.*, unitclasses.    wall_s               membership-deep  order-witt
    reduce.* / insert.self_s,
    unitclasses.echelon_entries
  order.solve_norm_equation.self_s     slowest_query_s,     order-witt       membership-deep (0 calls)
                                       wall_s
  order.invert.* / order.mul.*,        wall_s               order-witt       membership-deep
    localfield.galois_act.* /
    frobenius_beta.*
  cli.main.self_s                      wall_s, cpu_s,       classify-grid    membership-deep (< 1%)
                                       setup_s
  localfield.tower_init.*,             wall_s, setup_s      classify-grid    order-witt
    teichmuller.reuse_ratio,
    cohomology.*, classifier.*
  any new memo or cache                peak_rss_mb          all              -

Goldens are regenerated (python3 perfbench/capture_golden.py) only in a change
that says its output changed on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import queries  # noqa: E402
import tracing  # noqa: E402

GOLDEN_DIR = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
QUERY_LIMIT_S = 30.0  # a query past this counts as failed
RUN_LIMIT_S = 170.0  # the whole run ends well within 180 s
SETUP_PROBES = 15
# prints (seconds at the reference speed, raw seconds); see calibration.py
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {here!r}); import calibration as k; a = k.calibrate()[0]; "
    "t0 = time.perf_counter(); import stabforge.cli as c; c.build_parser(); t = time.perf_counter() - t0; "
    "b = k.calibrate()[0]; print(t * 2 * k.REFERENCE_S / (a + b), t)"
).format(here=HERE)
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("slowest_query_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_total", "count"),
]


class HarnessError(Exception):
    """The benchmark could not run: no result is printed."""


def clean_env():
    env = dict(os.environ)
    env.pop("STABFORGE_PREC_OVERRIDE", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def load_golden(workload, golden_dir=GOLDEN_DIR):
    """{query id: (exit code, sha256 of stdout)}."""
    out = {}
    with open(os.path.join(golden_dir, f"{workload}.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            g = json.loads(line)
            out[g["id"]] = (g["rc"], hashlib.sha256(g["stdout"].encode()).hexdigest())
    return out


def setup_seconds(deadline):
    """Median (reference-speed, raw) import + parser time over fresh
    interpreters; the first one, which may compile bytecode, is not counted."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            capture_output=True,
            text=True,
            env=clean_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise HarnessError(f"cannot import stabforge.cli: {proc.stderr.strip()[-400:]}")
        samples.append([float(x) for x in proc.stdout.split()])
    return tuple(statistics.median(s[i] for s in samples[1:]) for i in (0, 1))


def run_worker(qs, oracles, spans, deadline):
    """One pass in a fresh interpreter; None when it overran the run's deadline."""
    req = {"queries": qs, "time_limit": QUERY_LIMIT_S, "oracles": oracles, "trace": spans and {"spans": spans}}
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(req),
            capture_output=True,
            text=True,
            env=clean_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def failures(report, qs, golden):
    """{query id: reason} for one pass (every query when the pass overran)."""
    if report is None:
        return {q["id"]: "pass overran the run limit" for q in qs}
    bad = {}
    for r in report["records"]:
        want = golden.get(r["id"])
        if want is None:
            bad[r["id"]] = "no golden"
        elif r["rc"] != want[0]:
            bad[r["id"]] = f"exit {r['rc']}, golden {want[0]}"
        elif r["sha256"] != want[1]:
            bad[r["id"]] = "stdout differs from golden"
    for qid, why in report.get("oracle_failures", {}).items():
        bad.setdefault(qid, f"oracle: {why}")
    return bad


def timed_run(qs, start, seconds, deadline):
    """Passes until the next would end more than `seconds` after `start`:
    (metrics, passes, problems)."""
    longest, passes = 0.0, []
    while True:
        t0 = time.monotonic()
        report = run_worker(qs, not passes, None, deadline)
        longest = max(longest, time.monotonic() - t0)
        passes.append(report)
        if report is None or time.monotonic() - start + longest > seconds:
            break
    done = [p for p in passes if p]
    if not done:
        return {}, passes, ["every pass overran the run limit"]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in done),
        "cpu_s": statistics.median(p["cpu_s"] for p in done),
        "slowest_query_s": statistics.median(p["slowest_query_s"] for p in done),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
        "ops_total": len(qs),
    }
    return metrics, passes, []


def traced_run(workload, seed, qs, deadline):
    """Untraced, traced, traced, untraced passes (the order cancels a linear
    drift in machine speed): (per-layer metrics, passes, problems)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = [run_worker(qs, True, None, deadline)]
    traced = [
        run_worker(qs, False, os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{i}.txt"), deadline) for i in (1, 2)
    ]
    plain.append(run_worker(qs, False, None, deadline))
    passes = plain + traced
    if None in passes:
        return {}, passes, ["a pass overran the run limit"]
    problems = []
    a, b = (t["layers"] for t in traced)
    if any(a[layer]["calls"] != b[layer]["calls"] for layer in tracing.LAYERS) or (
        a["unitclasses.echelon_entries"] != b["unitclasses.echelon_entries"]
    ):
        problems.append("per-layer calls differ between the two traced passes")
    if not all(t["restored"] for t in traced):
        problems.append("a wrapped function was not restored")
    for layer in tracing.EXPECTED[workload]:
        if a[layer]["calls"] == 0:
            problems.append(f"{layer} has no calls: a binding was missed")
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = a[layer]["calls"]
        metrics[f"{layer}.self_s"] = statistics.mean([a[layer]["self_s"], b[layer]["self_s"]])
    metrics["localfield.teichmuller.reuse_ratio"] = a["localfield.teichmuller.reuse_ratio"]
    metrics["unitclasses.echelon_entries"] = a["unitclasses.echelon_entries"]
    metrics["trace.overhead_s"] = statistics.mean(t["wall_s"] for t in traced) - statistics.mean(p["wall_s"] for p in plain)
    return metrics, passes, problems


def units():
    out = dict(END_TO_END)
    for name in tracing.metric_names():
        out[name] = "count" if name.endswith((".calls", ".echelon_entries")) else "s"
    out["localfield.teichmuller.reuse_ratio"] = "ratio"
    return out


def measure(workload, seed, seconds, trace, smoke=False, golden_dir=GOLDEN_DIR):
    """Run one workload; returns (info, result) where result is the final JSON object."""
    if not os.path.isfile(os.path.join("src", "stabforge", "cli.py")):
        raise HarnessError("run from the root of a checkout: src/stabforge/cli.py not found")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    qs = queries.smoke(workload) if smoke else queries.select(workload, seed)
    golden = load_golden(workload, golden_dir)
    setup = None
    if trace:
        metrics, passes, problems = traced_run(workload, seed, qs, deadline)
    else:
        setup = setup_seconds(deadline)
        metrics, passes, problems = timed_run(qs, start, 0 if smoke else seconds, deadline)
        metrics["setup_s"] = setup[0]
    done = [p for p in passes if p]
    raw = {key: statistics.median(p[f"raw_{key}"] for p in done) for key in ("wall_s", "cpu_s")} if done else {}
    if setup:
        raw["setup_s"] = setup[1]
    per_pass = [failures(p, qs, golden) for p in passes]
    bad = {}
    for found in per_pass:
        for qid, why in found.items():
            bad.setdefault(qid, why)
    names = tracing.metric_names() if trace else [name for name, _ in END_TO_END]
    unit = units()
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in done],
        "raw_s": raw,
        "ops_total": len(qs),
        "ops_failed": len(bad),
        "failures": dict(sorted(bad.items())[:20]),
        "problems": problems,
    }
    result = {
        "correct": not bad and not problems,
        "attempted": len(qs) * len(passes),
        "failed": sum(len(found) for found in per_pass),
        "metrics": {name: {"value": metrics[name], "unit": unit[name]} for name in names if name in metrics},
    }
    return info, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(queries.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one short query instead of the workload")
    args = ap.parse_args(argv)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (HarnessError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(info))
    for name, m in result["metrics"].items():
        value = f"{m['value']:.6f}" if isinstance(m["value"], float) else str(m["value"])
        print(f"{name:<40} {value:>14} {m['unit']}")
    print(f"{'ops_failed':<40} {info['ops_failed']:>14} count")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
