"""Span recorder for traced benchmark runs.

The benchmark never edits the program: `Tracer.install` replaces the public
functions of each asdnull layer with wrappers that open a span around the
call.  A name imported with `from .x import f` is a separate binding in the
importing module, so every module attribute bound to the original function is
rebound (for example `spinor.christoffels` as well as `tensor.christoffels`).

A span is (name, start, end, parent, item): start and end are
`time.perf_counter` readings, which share one clock across processes on
Linux, and parent is the id of the enclosing span in the same process (pid).
Its self time is its duration minus the durations of its direct children.
Spans stay in memory and are written out once, when the process ends.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import time

# span name -> (module, attribute or (class, attribute)) for each layer boundary
LAYERS = {
    "cli.load_model": [("cli", "load_model")],
    "cli.report": [("cli", "cmd_report_all")],
    "construct.build": [("construct", name) for name in (
        "build_flat", "build_nontwisting", "build_twisting", "build_fefferman_like",
        "build_ppwave", "build_sparling_tod", "build_heavenly")],
    "tensor.inverse": [("tensor", ("Metric", "inverse"))],
    "tensor.christoffels": [("tensor", "christoffels")],
    "tensor.riemann": [("tensor", "riemann")],
    "tensor.riemann_lower": [("tensor", "riemann_lower")],
    "tensor.ricci": [("tensor", "ricci")],
    "spinor.tetrad": [("spinor", ("NullTetrad", "__init__"))],
    "spinor.curvature_spinors": [("spinor", "curvature_spinors")],
    "spinor.spin_coefficients": [("spinor", "spin_coefficients")],
    "spinor.lemma": [("spinor", "check_lemma_identities")],
    "spinor.petrov_classify": [("spinor", "petrov_classify")],
    "twistor.lax_pair": [("twistor", "lax_pair")],
    "twistor.integrability": [("twistor", "integrability_check")],
    "twistor.lift": [("twistor", "lift_killing"), ("twistor", "lift_commutation_check")],
    "projective.flatness_invariant": [("projective", "flatness_invariant")],
    "projective.geodesic": [("projective", "geodesic_integrate")],
    "quartic.root_structure": [("quartic", "quartic_root_structure")],
    "expr.is_zero": [("expr", "is_zero")],
    "expr.evaluate": [("expr", "evaluate")],
    "expr.parse": [("expr", "parse")],
    "expr.compile": [("expr", "_compiled")],
}

# layers whose return value is the intermediate representation whose size we
# count; the memo key tells a fresh computation from a cache hit
SIZED = {
    "tensor.christoffels": (0, "_cache", "christoffels"),
    "tensor.riemann": (0, "_cache", "riemann"),
    "spinor.curvature_spinors": (1, "_coeff_cache", "curvature_spinors"),
    "spinor.spin_coefficients": (1, "_coeff_cache", "spin_coefficients"),
    "twistor.lax_pair": None,  # not memoized: every call computes
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.stack: list[int] = []
        self.item = "setup"
        self.counters: collections.Counter = collections.Counter()
        self.outputs: list[tuple[str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = _hooks(self, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after:
                after(args, state, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function named in LAYERS; asdnull must be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "asdnull" or n.startswith("asdnull."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[f"asdnull.{module_name}"]
                if isinstance(attr, tuple):
                    cls = getattr(module, attr[0])
                    original = cls.__dict__[attr[1]]
                    if isinstance(original, property):
                        setattr(cls, attr[1], property(self._wrap(name, original.fget)))
                    else:
                        setattr(cls, attr[1], self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                        elif isinstance(value, dict):  # e.g. the CLI's COMMANDS table
                            for k, v in value.items():
                                if v is original:
                                    value[k] = wrapper

    # -- output ------------------------------------------------------------------

    def count_outputs(self) -> None:
        """Count terms of the values captured since the last call; done between
        items so the counting stays outside every span."""
        for name, value in self.outputs:
            self.counters[f"{name}.out_terms"] += count_terms(value)
        self.outputs.clear()

    def records(self) -> list[dict]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        pid = os.getpid()
        out = []
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            if end is None:
                continue
            out.append({"name": name, "start": start, "end": end, "id": i,
                        "parent": parent, "item": item, "pid": pid,
                        "self": end - start - child[i]})
        return out

    def write(self, path: str) -> None:
        self.count_outputs()
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _hooks(tracer: Tracer, name: str):
    """(before, after) callables collecting counts at a layer boundary."""
    counters = tracer.counters
    if name in SIZED:
        memo = SIZED[name]

        def before(args):
            if memo is None:
                return False
            pos, cache, key = memo
            hit = key in getattr(args[pos], cache)
            counters[f"{name}.hits"] += hit
            return hit

        def after(args, hit, result):
            if not hit:
                tracer.outputs.append((name, result))
        return before, after
    if name == "expr.is_zero":
        def after(args, state, result):
            counters[f"{name}.proven"] += result.kind == "proven_zero"
        return None, after
    if name == "expr.compile":
        cache = sys.modules["asdnull.expr"]._lambdify_cache

        def before(args):
            counters[f"{name}.hits"] += (args[0], args[1]) in cache
        return before, None
    if name == "projective.geodesic":
        def after(args, state, result):
            counters[f"{name}.steps"] += len(result.points) - 1
        return None, after
    return None, None


def count_terms(value) -> int:
    """Terms in the numerators plus terms in the non-unit denominators of every
    nonzero component held by `value`."""
    import sympy as sp
    from asdnull.expr import Expr
    from asdnull.spinor import WeylSpinor
    from asdnull.tensor import TensorField
    from asdnull.twistor import LaxPair

    if isinstance(value, Expr):
        value = value.sym
    if isinstance(value, sp.Basic):
        if value == 0:
            return 0
        num, den = sp.fraction(value)
        n = len(sp.Add.make_args(num))
        return n if den == 1 else n + len(sp.Add.make_args(den))
    if isinstance(value, TensorField):
        return count_terms(value.comps)
    if isinstance(value, WeylSpinor):
        return count_terms(value.psi)
    if isinstance(value, LaxPair):
        return count_terms(value.L0) + count_terms(value.L1)
    if isinstance(value, (list, tuple)):
        return sum(count_terms(v) for v in value)
    return 0
