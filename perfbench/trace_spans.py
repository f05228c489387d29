"""Span tracing installed from outside the program, for the traced run only.

`Tracer.install` wraps the public functions of the layer modules (and the
public methods of the classes they define) in spans, patching every name
through which a layer is reached: module attributes, and the copies that
other modules bound with ``from .x import name``.  Nothing under ``src/``
changes.  Left unwrapped on purpose:

* ``ring`` and ``scalars``: they work per element and run millions of times;
  their cost lands in set-up and in the spans of their callers;
* per-vector helpers (PER_VECTOR), for the same reason;
* generator functions, whose body runs while the caller iterates, so a
  span around the call would measure nothing;
* properties and dunder methods.

A span is ``[name, start, end, parent, failed, count]``, kept in memory and
written out when the run ends.  ``count`` is derived from the arguments or
the result (COUNTERS), never from timing, so it repeats exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("code", "wenum", "gray", "project", "construct", "cli")

PER_VECTOR = frozenset({
    "code.inner", "code.lee_weight_vector",
    "gray.gray_map", "gray.gray_map_inverse", "gray.z4_lee_weight_vector",
    "project.f2u_inner",
})


def _matmul_products(args, _result):
    x, g = args[0], args[1]
    return x.shape[0] * x.shape[1] * g.shape[1]


#: span name -> count(args, result): the work a call did, from shapes or results
COUNTERS = {
    "code.ring_matmul": _matmul_products,
    "code.LinearCode.min_lee_distance": lambda a, r: 16 ** a[0].k if r.exact else 0,
    "code.LinearCode.lee_census": lambda a, r: 16 ** a[0].k,
    "code.LinearCode.dual_bruteforce": lambda a, r: 16 ** a[0].n,
    "wenum.cwe": lambda a, r: sum(r.terms.values()),
    "construct.verify_tables": lambda a, r: len(r),
    "construct.search": lambda a, r: r.candidates,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"z4u.{m}") for m in LAYERS}
        replaced: dict[int, object] = {}   # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name in PER_VECTOR or inspect.isgeneratorfunction(obj):
                        continue
                    replaced[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(f"{short}.{attr}", obj)
        # rebind every module-level name that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if modname != "z4u" and not modname.startswith("z4u."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if not inspect.isgeneratorfunction(fn):
                    self._patch(cls, attr, type(raw)(self._wrap(name, fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------

#: per-layer metric -> (span name, what to sum): "s" inclusive seconds,
#: "calls", "count" (the COUNTERS value) or "failed" (calls that raised)
SPAN_METRICS = {
    "code.ring_matmul.s": ("code.ring_matmul", "s"),
    "code.ring_matmul.calls": ("code.ring_matmul", "calls"),
    "code.ring_matmul.products": ("code.ring_matmul", "count"),
    "code.min_lee_distance.s": ("code.LinearCode.min_lee_distance", "s"),
    "code.min_lee_distance.msgs": ("code.LinearCode.min_lee_distance", "count"),
    "code.lee_census.s": ("code.LinearCode.lee_census", "s"),
    "code.lee_census.msgs": ("code.LinearCode.lee_census", "count"),
    "code.codeword_set.s": ("code.LinearCode.codeword_set", "s"),
    "code.dual_bruteforce.s": ("code.LinearCode.dual_bruteforce", "s"),
    "code.dual_bruteforce.vectors": ("code.LinearCode.dual_bruteforce", "count"),
    "wenum.cwe.s": ("wenum.cwe", "s"),
    "wenum.cwe.words": ("wenum.cwe", "count"),
    "wenum.cwe_to_swe.s": ("wenum.cwe_to_swe", "s"),
    "wenum.macwilliams_swe.s": ("wenum.macwilliams_swe", "s"),
    "wenum.macwilliams_lee.s": ("wenum.macwilliams_lee", "s"),
    "wenum.macwilliams_lee.calls": ("wenum.macwilliams_lee", "calls"),
    "wenum.macwilliams_cwe_eval.s": ("wenum.macwilliams_cwe_eval", "s"),
    "wenum.is_formally_self_dual.s": ("wenum.is_formally_self_dual", "s"),
    "gray.gray_image.s": ("gray.gray_image", "s"),
    "gray.Z4Code.codeword_set.s": ("gray.Z4Code.codeword_set", "s"),
    "gray.Z4Code.min_lee_distance.s": ("gray.Z4Code.min_lee_distance", "s"),
    "gray.Z4Code.is_self_orthogonal.s": ("gray.Z4Code.is_self_orthogonal", "s"),
    "gray.Z4Code.is_self_orthogonal.failed": ("gray.Z4Code.is_self_orthogonal", "failed"),
    "project.project_constant.s": ("project.project_constant", "s"),
    "project.project_u_coeff.s": ("project.project_u_coeff", "s"),
    "project.project_mod2.s": ("project.project_mod2", "s"),
    "project.F2uCode.min_lee_distance.s": ("project.F2uCode.min_lee_distance", "s"),
    "project.lift_bound_check.s": ("project.lift_bound_check", "s"),
    "construct.verify_tables.s": ("construct.verify_tables", "s"),
    "construct.verify_tables.rows": ("construct.verify_tables", "count"),
    "construct.search.s": ("construct.search", "s"),
    "construct.search.candidates": ("construct.search", "count"),
}


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics: inclusive time per name, counts, module self time.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.  Self time is a span's
    duration minus that of its direct children, summed per module.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _failed, _count in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, dict[str, float]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, failed, count) in enumerate(spans):
        agg = by_name.setdefault(name, {"s": 0.0, "calls": 0, "count": 0, "failed": 0})
        agg["calls"] += 1
        agg["count"] += count
        agg["failed"] += int(failed)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
        self_s[name.split(".", 1)[0]] += (end - start) - child[i]
    out: dict[str, float] = {}
    for metric, (name, what) in SPAN_METRICS.items():
        out[metric] = by_name.get(name, {}).get(what, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
