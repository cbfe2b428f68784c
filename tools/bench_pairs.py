"""Paired benchmark runs of a base revision against this checkout.

usage: python3 tools/bench_pairs.py --base REV [--pairs N] [--seconds S]
                                    [--workload W ...] --out BENCH_<label>.json

Checks REV out with `git worktree add --detach` into a temporary directory
(removed on exit) and runs `perfbench/run.py` from the root of each side:
the base checkout and this one, with its uncommitted files.  Pair i runs
`--workload W --seed i --seconds S --trace 0` on both sides; the side that
runs first alternates from pair to pair.  After the pairs each side makes one
`--trace 1 --seed 1` run per workload.

The output file holds, per workload:
  end_to_end  for each BENCHMARK.json end-to-end metric, each side's values,
              median and quartiles (inclusive method), the relative change of
              the medians (change / base - 1), `worse_by` (that change signed
              so that positive is worse), the metric's bound, whether
              `worse_by` is within it, the pairs the change won (strictly
              better; ties count for neither side), and `pair_ratio`: each
              pair's change / base value (pairs whose base is 0 left out)
              with their median and quartiles, which show a change that
              the seed-to-seed spread of either side would hide;
  per_layer   each side's traced metrics (<layer>.calls, <layer>.self_s, ...),
              and the layers whose calls differ;
and the machine (`platform.machine()`, CPU count) and `sys.version`.

Exits 1 if any run is not "correct": true or has failed > 0 (the file is
still written, with the reasons under "problems"), 2 if it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run_bench(root, workload, seed, seconds, trace):
    """(metric values, problem or None) for one perfbench/run.py run from `root`."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run([sys.executable, *argv, "--trace", str(trace)], cwd=root, capture_output=True, text=True)
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        return {}, f"{where}: run.py exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if result["correct"] is not True or result["failed"] > 0:
        info = json.loads(proc.stdout.splitlines()[0])
        why = f"correct {result['correct']}, failed {result['failed']}: {info['failures']} {info['problems']}"
        return values, f"{where}: {why}"
    return values, None


def spread(values):
    """Median and quartiles of one side's values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base, change, better, bound):
    """One end-to-end metric: each side's spread, the relative change of the
    medians, the pairs the change won and the spread of the per-pair ratios."""
    b, c = spread(base), spread(change)
    ratios = [y / x for x, y in zip(base, change) if x]
    rel = c["median"] / b["median"] - 1 if b["median"] else 0.0
    worse_by = rel if better == "lower" else -rel
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (x - y) > 0 for x, y in zip(base, change))
    return {
        "base": b,
        "change": c,
        "rel_change": rel,
        "worse_by": worse_by,
        "bound": bound,
        "within_bound": worse_by <= bound,
        "wins": wins,
        "pairs": len(base),
        "pair_ratio": spread(ratios) if ratios else None,
    }


def bench(sides, workloads, pairs, seconds, end_to_end):
    """{workload: summary} and the problems of every run."""
    runs = {w: {side: [] for side in sides} for w in workloads}
    problems = []
    for i in range(1, pairs + 1):
        order = list(sides) if i % 2 else list(reversed(sides))
        for w in workloads:
            for side in order:
                values, problem = run_bench(sides[side], w, i, seconds, 0)
                print(f"pair {i} {w} {side}: wall_s {values.get('wall_s')}", file=sys.stderr, flush=True)
                runs[w][side].append(values)
                if problem:
                    problems.append(f"{side}: {problem}")
    out = {}
    for w in workloads:
        traced = {}
        for side in sides:
            traced[side], problem = run_bench(sides[side], w, 1, 0, 1)
            if problem:
                problems.append(f"{side}: {problem}")
        calls = sorted({k for t in traced.values() for k in t if k.endswith(".calls")})
        summary = {}
        for m in end_to_end:
            base, change = ([r.get(m["name"]) for r in runs[w][side]] for side in ("base", "change"))
            kept = [(x, y) for x, y in zip(base, change) if x is not None and y is not None]
            if kept:
                summary[m["name"]] = compare(*map(list, zip(*kept)), m["better"], m["bound"])
        out[w] = {
            "first": ["base" if i % 2 else "change" for i in range(1, pairs + 1)],
            "end_to_end": summary,
            "per_layer": {
                **traced,
                "calls_differ": {
                    k: [traced["base"].get(k), traced["change"].get(k)]
                    for k in calls
                    if traced["base"].get(k) != traced["change"].get(k)
                },
            },
        }
    return out, problems


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workload_names = [w["name"] for w in benchmark["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--workload", action="append", choices=workload_names, help="repeatable; default: every workload")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    tmp = tempfile.mkdtemp(prefix="bench-base-")
    base_root = os.path.join(tmp, "base")
    try:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        change_commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        git("worktree", "add", "--detach", base_root, base_commit)
        workloads, problems = bench(
            {"base": base_root, "change": ROOT},
            args.workload or workload_names,
            args.pairs,
            args.seconds,
            benchmark["end_to_end"],
        )
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"error: {exc.stderr.strip()}\n")
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_root], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": change_commit, "uncommitted_changes": dirty},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "python": sys.version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
        "problems": problems,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, summary in workloads.items():
        for name, m in summary["end_to_end"].items():
            print(
                f"{w:<16} {name:<16} base {m['base']['median']:>12.6g}  change {m['change']['median']:>12.6g}"
                f"  {m['rel_change']:+8.1%}  bound {m['bound']:.0%}  wins {m['wins']}/{m['pairs']}"
                + (f"  pair ratio {m['pair_ratio']['median']:.4f}" if m["pair_ratio"] else "")
            )
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
