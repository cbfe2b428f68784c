"""Per-layer spans, recorded by wrapping the package's public functions from
outside: nothing under ``src/`` is edited.

Each layer is a list of functions.  ``Tracer.install`` replaces every binding
of those functions in the package, on classes (aliases such as ``__rmul__``
included) and on every module that imported one by name (``cli.run_script``,
``classifier.r1_max``, ``relscript.check_verdict`` ...), so calls between
modules are seen.  Spans are kept in memory as (layer, start, end, parent);
a layer's self time is its spans' durations minus the time their child spans
cover.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import weakref
from array import array

PACKAGE = "stabforge"
MODULES = ("padic", "localfield", "unitclasses", "order", "cohomology", "classifier", "relscript", "cli")

# layer name -> (module, attribute path) of each function it covers
LAYERS = {
    "padic.arith": [
        ("padic", f"PadicInt.{m}")
        for m in ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__pow__", "invert", "exact_div_by_p")
    ]
    + [("padic", "hensel_sqrt"), ("padic", "teichmuller_lift")],
    "localfield.mul": [("localfield", "FieldElem.__mul__")],
    "localfield.add": [("localfield", f"FieldElem.{m}") for m in ("__add__", "__sub__", "__rsub__", "__neg__", "scale")],
    "localfield.invert": [("localfield", "FieldElem.invert")],
    "localfield.div_pi": [("localfield", "FieldElem.div_pi")],
    "localfield.galois_act": [("localfield", "FieldElem.galois_act")],
    "localfield.frobenius_beta": [("localfield", "FieldTower.frobenius_beta")],
    "localfield.teichmuller": [("localfield", "FieldTower.teichmuller")],
    "localfield.pi_digit_expansion": [("localfield", "FieldElem.pi_digit_expansion")],
    "localfield.tower_init": [("localfield", "FieldTower.__init__"), ("localfield", "unramified_poly")],
    "unitclasses.insert": [("unitclasses", "SubgroupEchelon.insert")],
    "unitclasses.reduce": [("unitclasses", "SubgroupEchelon.reduce")],
    "unitclasses.subgroup_span": [("unitclasses", "subgroup_span")],
    "unitclasses.membership": [("unitclasses", "membership")],
    "unitclasses.epsilon_test": [("unitclasses", "epsilon_test")],
    "unitclasses.r1_max": [("unitclasses", "r1_max")],
    "order.mul": [("order", "OrderElem.__mul__"), ("order", "OrderElem.__rmul__")],
    "order.invert": [("order", "OrderElem.invert")],
    "order.solve_norm_equation": [("order", "solve_norm_equation")],
    "order.xi_generator": [("order", "xi_generator")],
    "order.check_verdict": [("order", "check_verdict")],
    "cohomology.smith_invariants": [("cohomology", "smith_invariants")],
    "cohomology.kernel_columns": [("cohomology", "kernel_columns")],
    "classifier.classify": [
        ("classifier", f) for f in ("maximal_in_Gn", "maximal_in_Sn", "abelian_classes", "scan")
    ],
    "relscript.run_script": [("relscript", "run_script")],
    "cli.main": [("cli", "main")],
}

# what a workload is meant to exercise: zero calls here means a wrapper missed
EXPECTED = {
    "membership-deep": [
        "localfield.mul",
        "localfield.div_pi",
        "localfield.invert",
        "localfield.teichmuller",
        "localfield.pi_digit_expansion",
        "unitclasses.insert",
        "unitclasses.reduce",
        "unitclasses.subgroup_span",
        "unitclasses.membership",
        "cli.main",
    ],
    "order-witt": [
        "order.solve_norm_equation",
        "order.xi_generator",
        "order.mul",
        "order.invert",
        "order.check_verdict",
        "localfield.galois_act",
        "localfield.frobenius_beta",
        "relscript.run_script",
        "padic.arith",
        "cli.main",
    ],
    "classify-grid": [
        "cli.main",
        "classifier.classify",
        "unitclasses.r1_max",
        "unitclasses.epsilon_test",
        "cohomology.smith_invariants",
        "cohomology.kernel_columns",
        "localfield.tower_init",
    ],
    "r1-refusals": ["cli.main", "unitclasses.r1_max"],
}


def metric_names():
    """Every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    return names + ["localfield.teichmuller.reuse_ratio", "unitclasses.echelon_entries", "trace.overhead_s"]


def _resolve(module, path):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return inspect.getattr_static(owner, attr)


def _holders():
    """Every namespace of the package that can bind a function: modules and their classes."""
    for name in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{name}")
        yield mod
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield obj


def snapshot():
    """{(holder, name): value} for every binding in the package."""
    return {(h, k): v for h in _holders() for k, v in list(vars(h).items())}


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self._replaced = []  # (holder, name, original)
        self._tower_ids = weakref.WeakKeyDictionary()
        self._teich_seen = set()
        self.teich_reuse = 0
        self.echelon_entries = 0

    # -- recording ----------------------------------------------------------------

    def _wrap(self, fn, layer_index, hook=None):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(names)
            names.append(layer_index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _teichmuller_hook(self, args, result):
        tower, residue = args[0], args[1]
        serial = self._tower_ids.setdefault(tower, len(self._tower_ids))
        key = (serial, tuple(d % tower.p for d in residue))
        if key in self._teich_seen:
            self.teich_reuse += 1
        self._teich_seen.add(key)

    def _span_hook(self, args, result):
        self.echelon_entries += len(result)

    # -- install / restore ------------------------------------------------------------

    def install(self):
        hooks = {"localfield.teichmuller": self._teichmuller_hook, "unitclasses.subgroup_span": self._span_hook}
        wrappers = {}
        for index, layer in enumerate(self.layers):
            for module, path in LAYERS[layer]:
                fn = _resolve(module, path)
                wrappers[id(fn)] = (fn, self._wrap(fn, index, hooks.get(layer)))
        for holder in list(_holders()):
            for name, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    self._replaced.append((holder, name, value))
                    setattr(holder, name, hit[1])

    def uninstall(self):
        for holder, name, original in reversed(self._replaced):
            setattr(holder, name, original)

    def restored(self):
        """True when every replaced binding holds its original again."""
        return all(vars(holder)[name] is original for holder, name, original in self._replaced)

    # -- results ------------------------------------------------------------------------

    def layer_totals(self):
        """{layer: {"calls": n, "self_s": s}} plus the two derived counts."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i in range(n):
            layer = self.names[i]
            calls[layer] += 1
            self_s[layer] += self.ends[i] - self.starts[i] - child[i]
        out = {layer: {"calls": calls[i], "self_s": self_s[i]} for i, layer in enumerate(self.layers)}
        teich_calls = calls[self.layers.index("localfield.teichmuller")]
        out["localfield.teichmuller.reuse_ratio"] = self.teich_reuse / teich_calls if teich_calls else 0.0
        out["unitclasses.echelon_entries"] = self.echelon_entries
        return out

    def write_spans(self, path):
        """One JSON header line (layer names, field order), then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": self.layers, "fields": ["layer", "start", "end", "parent"]}) + "\n")
            for i in range(len(self.names)):
                fh.write(f"{self.names[i]} {self.starts[i]:.9f} {self.ends[i]:.9f} {self.parents[i]}\n")
