"""Microbenchmarks of the tower, order, echelon and Smith layers on fixed seeded operands.

usage: python3 tools/microbench.py [--repeat N]

Run from the root of a checkout: `stabforge` is imported from its `src/`, as
`perfbench/worker.py` does, so the same script times any revision checked out
elsewhere (`cd <checkout> && python3 <this checkout>/tools/microbench.py`).

Times, in microseconds per operation:
  FieldElem  `*`, `+`, invert, div_pi, galois_act(1) and pi_level on
             FieldTower(2, 2, alpha, 8) at e = 4, 16 and 64 (alpha = 3, 5, 7);
             galois_act(1) is warm: the untimed call builds sigma's matrices;
  Frobenius build  cold: a fresh FieldTower(2, f, 0, 10) and galois_act(t) of
             beta for every t < f, so each call solves the root sigma(beta)
             and builds the powers of sigma, at f = 4, 8 and 12;
  OrderElem  `*` and invert at p = 3, p_prec 6 and n = 2, 4, 6 and 12, on
             operands w_0 + w_a S^a + w_b S^b with a unit w_0, and invert at
             n = 6 and 12 on a dense operand (every coefficient drawn);
  SubgroupEchelon  reduce of a square y^2 (a member, so every level is
             cleared), insert of a unit 1 + pi y (with its p-th power
             chain, into a copy of the echelon), membership of beta y (a
             residue other than 1, so its (q-1)-th power is taken) and one
             full subgroup_span build, against the span of <zeta, U_1^2> in
             FiltrationQuotient.standard(2, 2, alpha, 2) at e = 4, 16 and 64;
  smith_invariants  on seeded n x n integer matrices, entries in [-50, 50),
             at n = 4, 8 and 16.
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

from stabforge.cohomology import smith_invariants  # noqa: E402
from stabforge.localfield import FieldTower  # noqa: E402
from stabforge.order import OrderElem, OrderParams  # noqa: E402
from stabforge.unitclasses import FiltrationQuotient, SubgroupEchelon, membership, subgroup_span  # noqa: E402

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


def frobenius_build(f):
    def build():
        x = FieldTower(2, f, 0, 10).beta()
        for t in range(f):
            x.galois_act(t)

    return build


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


def echelon_ops(e):
    quotient = FiltrationQuotient.standard(2, 2, e.bit_length(), 2)
    span = subgroup_span(quotient, 2, include_mu_torsion=True)
    t = quotient.tower
    rng = random.Random(f"echelon:{e}")
    y = t.one() + t.pi() * t.from_grid([[rng.randrange(t.mod) for _ in range(t.f)] for _ in range(t.e)])

    def insert():
        copy = SubgroupEchelon(quotient)
        copy.entries = dict(span.entries)
        copy.insert(y)

    square = y * y
    unit = t.beta() * y  # residue X, not 1: membership takes its (q-1)-th power, q - 1 = 3
    return {
        "reduce": lambda: span.reduce(square),
        "insert": insert,
        "membership": lambda: membership(unit, span),
        "subgroup_span": lambda: subgroup_span(quotient, 2, include_mu_torsion=True),
    }


def smith_op(n):
    rng = random.Random(f"smith:{n}")
    a = [[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]
    return lambda: smith_invariants(a)


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
    for f in (4, 8, 12):
        median[f"Frobenius build f={f}"] = per_call_us(frobenius_build(f), args.repeat)
    for n in (2, 4, 6, 12):
        for name, fn in order_ops(n).items():
            median[f"OrderElem.{name} n={n}"] = per_call_us(fn, args.repeat)
    for e in (4, 16, 64):
        for name, fn in echelon_ops(e).items():
            median[f"SubgroupEchelon.{name} e={e}"] = per_call_us(fn, args.repeat)
    for n in (4, 8, 16):
        median[f"smith_invariants {n}x{n}"] = per_call_us(smith_op(n), args.repeat)
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
