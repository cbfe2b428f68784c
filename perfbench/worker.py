"""One pass of a workload in a fresh interpreter, on one thread.

Reads a request from stdin: ``{"queries": [...], "time_limit": s,
"oracles": bool, "trace": null | {"spans": path}}``.  Runs every query once
through its public entry point, timing each, then (untimed) the oracles, and
writes one JSON object to stdout.  Run from the root of a checkout, so that
``src/`` holds the package; ``run.py`` starts it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.abspath("src"), HERE]

from stabforge import cli, order, unitclasses  # noqa: E402

import calibration  # noqa: E402
import oracles  # noqa: E402
from queries import order_operand  # noqa: E402


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _order_elem(params, grids):
    w = params.witt
    return order.OrderElem(params, 0, tuple(w.from_grid([row]) for row in grids))


def _order_text(x):
    return json.dumps([x.shift, [c.grid for c in x.coeffs]], separators=(",", ":")) + "\n"


def _r1_max(a):
    v = unitclasses.r1_max(a["p"], a["n"], a["alpha"], a["d"], a["u"])
    # the r1 subcommand's JSON, so the golden matches what the CLI prints
    out = {"admissible": list(v.admissible), "maximal": v.maximal, "branch": v.branch}
    return v, json.dumps(out, sort_keys=True, indent=2) + "\n"


def _xi_generator(a):
    params = order.OrderParams(a["p"], a["n"], p_prec=a["p_prec"])
    xi = order.xi_generator(params, a["target"])
    return (params, xi), _order_text(xi)


def _order_invert(a):
    params = order.OrderParams(a["p"], a["n"], p_prec=a["p_prec"])
    x = _order_elem(params, order_operand(a["p"], a["n"], a["x"]))
    y = x.invert()
    return (x, y), _order_text(y)


def _order_mul(a):
    params = order.OrderParams(a["p"], a["n"], p_prec=a["p_prec"])
    x = _order_elem(params, order_operand(a["p"], a["n"], a["x"]))
    y = _order_elem(params, order_operand(a["p"], a["n"], a["y"]))
    z = x * y
    return z, _order_text(z)


LIB = {
    "r1_max": _r1_max,
    "xi_generator": _xi_generator,
    "order.invert": _order_invert,
    "order.mul": _order_mul,
}


def run_query(q):
    """(exit code, stdout text, result): result is the stderr text of a CLI
    query, or what an oracle needs from a library call (whose code is 0)."""
    if q["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(q["argv"]))
        return rc, out.getvalue(), err.getvalue()
    result, text = LIB[q["fn"]](q["args"])
    return 0, text, result


def run_pass(queries, time_limit, keep):
    """Run every query once; returns (records, kept results, totals).

    Each record holds the query's raw wall and CPU seconds and the same times
    at the reference speed (calibration.py); totals sums the latter.
    """
    records, kept, spans = [], {}, []
    signal.signal(signal.SIGALRM, _on_alarm)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with calibration.Sampler() as sampler:
        for q in queries:
            t0, c0 = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_REAL, time_limit)
            try:
                rc, text, result = run_query(q)
            except QueryTimeout:
                rc, text, result = "timeout", "", None
            except Exception as exc:  # a traceback: the CLI would exit 1 without output
                rc, text, result = "raised", f"{type(exc).__name__}: {exc}", None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            spans.append((t0, time.perf_counter(), time.process_time() - c0))
            records.append({"id": q["id"], "rc": rc, "sha256": hashlib.sha256(text.encode()).hexdigest()})
            if q["id"] in keep:
                kept[q["id"]] = (rc, text, result)
    raw_wall, raw_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for record, (t0, t1, cpu) in zip(records, spans):
        record["raw_seconds"] = t1 - t0
        record["seconds"], record["cpu"] = sampler.scaled(t0, t1, t1 - t0, cpu)
    totals = {
        "wall_s": sum(r["seconds"] for r in records),
        "cpu_s": sum(r["cpu"] for r in records),
        "slowest_query_s": max((r["seconds"] for r in records), default=0.0),
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "calibration_samples": len(sampler.starts),
    }
    return records, kept, totals


def peak_rss_mb():
    """Peak resident memory of this process image.  VmHWM, where there is one:
    on Linux ru_maxrss also counts the parent's memory at the time of fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    req = json.load(sys.stdin)
    queries = req["queries"]
    checked = {q["id"]: q for q in queries if "check" in q} if req["oracles"] else {}
    trace = req.get("trace")
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, kept, totals = run_pass(queries, req["time_limit"], checked)
    finally:
        if tracer:
            tracer.uninstall()
    report = {"records": records, "peak_rss_mb": peak_rss_mb(), **totals}
    report["oracle_failures"] = {
        qid: why for qid, why in ((qid, oracles.check(checked[qid], *kept[qid])) for qid in kept) if why
    }
    if tracer:
        report["restored"] = tracer.restored()
        report["layers"] = tracer.layer_totals()
        tracer.write_spans(trace["spans"])
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
