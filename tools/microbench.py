"""Microbenchmarks of the tower and order layers on fixed seeded operands.

usage: python3 tools/microbench.py [--repeat N]

Run from the root of a checkout: `stabforge` is imported from its `src/`, as
`perfbench/worker.py` does, so the same script times any revision checked out
elsewhere (`cd <checkout> && python3 <this checkout>/tools/microbench.py`).

Times, in microseconds per operation:
  FieldElem  `*`, `+`, invert, div_pi, galois_act(1) and pi_level on
             FieldTower(2, 2, alpha, 8) at e = 4, 16 and 64 (alpha = 3, 5, 7);
  OrderElem  `*` and invert at p = 3, p_prec 6 and n = 2, 4, 6 and 12, on
             operands w_0 + w_a S^a + w_b S^b with a unit w_0, and invert at
             n = 6 and 12 on a dense operand (every coefficient drawn).
Each operation is called once untimed (building any per-tower table), then
each of the N repeats times a batch of calls lasting at least 0.05 s.  Prints
one JSON object: the median over the repeats of each operation's time per call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

from stabforge.localfield import FieldTower  # noqa: E402
from stabforge.order import OrderElem, OrderParams  # noqa: E402

BATCH_S = 0.05


def per_call_us(fn, repeat):
    fn()
    out = []
    for _ in range(repeat):
        calls, start = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= BATCH_S:
                break
        out.append(elapsed / calls * 1e6)
    return round(statistics.median(out), 2)


def field_ops(e):
    t = FieldTower(2, 2, e.bit_length(), 8)  # e = 2^(alpha-1)
    rng = random.Random(f"field:{e}")

    def draw():
        return t.from_grid([[rng.randrange(t.mod) for _ in range(t.f)] for _ in range(t.e)])

    x, y = draw(), draw()
    unit = x + (1 - x.grid[0][0] % 2)  # an odd constant term makes a unit
    divisible = x * t.pi()
    return {
        "mul": lambda: x * y,
        "add": lambda: x + y,
        "invert": unit.invert,
        "div_pi": divisible.div_pi,
        "galois_act": lambda: x.galois_act(1),
        "pi_level": divisible.pi_level,
    }


def order_ops(n):
    params = OrderParams(3, n, p_prec=6)
    rng = random.Random(f"order:{n}")
    mod = 3**6

    def draw():
        coeffs = [[0] * n for _ in range(n)]
        for i in [0] + rng.sample(range(1, n), min(2, n - 1)):
            coeffs[i] = [rng.randrange(mod) for _ in range(n)]
        coeffs[0][0] = rng.randrange(1, 3) + 3 * rng.randrange(mod // 3)
        return OrderElem(params, 0, tuple(params.witt.from_grid([row]) for row in coeffs))

    x, y = draw(), draw()
    ops = {"mul": lambda: x * y, "invert": x.invert}
    if n >= 6:
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
        rows[0][0] = rng.randrange(1, 3) + 3 * rng.randrange(mod // 3)
        ops["invert dense"] = OrderElem(params, 0, tuple(params.witt.from_grid([row]) for row in rows)).invert
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed batches per operation (default 5)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    median = {}
    for e in (4, 16, 64):
        for name, fn in field_ops(e).items():
            median[f"FieldElem.{name} e={e}"] = per_call_us(fn, args.repeat)
    for n in (2, 4, 6, 12):
        for name, fn in order_ops(n).items():
            median[f"OrderElem.{name} n={n}"] = per_call_us(fn, args.repeat)
    out = {
        "unit": "us per call",
        "repeat": args.repeat,
        "median": median,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
