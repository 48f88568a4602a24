"""Spans around calls into each semiforge module, recorded from outside it.

`Tracer.install` wraps every public function defined in a layer module,
plus the three methods the hot paths go through (`Mat.__mul__`,
`MorphismTable.evaluate`, `Shortener.shorten`). Modules import each other
with `from .linalg import rank`, so each wrapper is rebound in every
module namespace that holds the original, not only in its home module.
`uninstall` puts the originals back. Spans are kept in flat arrays while
tracing is on; `per_layer_metrics` reduces them at the end and `write`
saves them as CSV. Installing again after `uninstall` reuses the wrappers,
so traced and untraced calls can alternate cheaply.

A span's self time is its duration minus the durations of its direct
child spans. Calls are single-threaded, so spans nest properly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("linalg", "polys", "semigroup", "exterior", "imagegraph", "grouplat",
          "shortener", "wautomata", "vass", "serialize", "cli")

# span name -> (layer, class, method); a module function of the same name
# (shortener.shorten only builds a Shortener) is left to the method's span
METHODS = {"linalg.mul": ("linalg", "Mat", "__mul__"),
           "semigroup.evaluate": ("semigroup", "MorphismTable", "evaluate"),
           "shortener.shorten": ("shortener", "Shortener", "shorten")}

# calls whose result is a closure; the largest is re-run under tracemalloc
CLOSURES = {"semigroup.decide_finiteness": lambda r: len(r.closure) if r.closure else 0,
            "grouplat.group_closure": lambda r: r.order}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.configs = 0              # configurations built inside reach_bounded
        self.largest = (0, None)      # (elements, (function, args, kwargs))
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (self.span_name, self.parent, self.start,
                                                self.end, self.stack)
        size_of = CLOSURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if size_of is not None:
                size = size_of(result)
                if size > self.largest[0]:
                    self.largest = (size, (fn, args, kwargs))
            return result
        return traced

    def _patch(self, owner, attr: str, value):
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        self._patches.append((owner, attr, original, value))

    def _build(self):
        wrappers: dict[int, tuple] = {}
        for span, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module(f"semiforge.{layer}"), cls_name)
            self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
        for layer in LAYERS:
            module = importlib.import_module(f"semiforge.{layer}")
            for key, obj in vars(module).items():
                span = f"{layer}.{key}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not key.startswith("_") and span not in METHODS):
                    wrappers[id(obj)] = (obj, self._wrap(span, obj))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, key, hit[1])
        self._count_configurations()

    def _count_configurations(self):
        vass = importlib.import_module("semiforge.vass")
        reach = self.names.index("vass.reach_bounded")
        init = vass.Configuration.__init__
        span_name, stack = self.span_name, self.stack

        def counting_init(obj, *args, **kwargs):
            if stack and span_name[stack[-1]] == reach:
                self.configs += 1
            init(obj, *args, **kwargs)
        self._patch(vass.Configuration, "__init__", counting_init)

    def install(self):
        """Start recording. The wrappers are built on the first call, so
        every module the workload uses must be imported by then."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_ns,end_ns\n")
            for i, (nid, p, s, e) in enumerate(zip(self.span_name, self.parent,
                                                   self.start, self.end)):
                fh.write(f"{i},{self.names[nid]},{p},{s},{e}\n")

    def bytes_per_element(self) -> float:
        """Peak traced allocation over the largest closure seen, per element."""
        size, call = self.largest
        if not size:
            return 0.0
        fn, args, kwargs = call
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / size


# What each per-layer metric should move, and where it should be large or
# zero, written down before any optimisation is measured:
#
# metric                                        moves             most on / little on
# linalg.mul.*                                  ops_per_s, p50    sweep, groups, shorten / automata
# linalg.rref.*, linalg.kernel, linalg.inverse  op_p50_ms         shorten, groups / automata
# linalg.minimal_polynomial.*, polys.gcd,
#   polys.pow_x_mod                             ops_per_s, tail   groups / shorten (warm caches)
# semigroup.is_torsion.*, decide_finiteness     ops_per_s, tail   groups / shorten
# semigroup.evaluate.*                          ops_per_s         sweep, shorten / groups
# semigroup.new_ratio, elements_per_s,
#   bytes_per_element                           ops_per_s, rss    groups / shorten
# exterior.trivial_intersection.*               op_p50_ms         shorten / groups (zero)
# imagegraph.*                                  op_p50_ms         shorten / groups (zero)
# grouplat.group_closure.*, integerize          ops_per_s         groups (only integerize) / sweep
# shortener.shorten.*, cycle_rep.calls          p50, out_in       shorten, sweep / groups (zero)
# wautomata.*, vass.*                           ops_per_s         automata / all others (zero)
# serialize.parse, cli.main                     op_p50_ms         groups, automata / shorten, sweep (zero)
# trace.overhead_frac                           -                 every workload
#
# shortener.cycle_rep.calls equals the misses of the Shortener's mprime cache.


def per_layer_metrics(tracer: Tracer, ops: int, untraced_s: float, traced_s: float,
                      out_in: float) -> dict:
    """Per-layer metrics of one traced pass: calls and self seconds are per
    operation, so passes of different lengths compare."""
    n = len(tracer.span_name)
    names = tracer.names
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    under_decide: Counter = Counter()
    decide = names.index("semigroup.decide_finiteness")
    for i, nid in enumerate(tracer.span_name):
        calls[nid] += 1
        self_ns[nid] += dur[i] - child[i]
        total_ns[nid] += dur[i]
        if tracer.parent[i] >= 0 and tracer.span_name[tracer.parent[i]] == decide:
            under_decide[nid] += 1
    by_name = {name: nid for nid, name in enumerate(names)}

    def self_s(*spans) -> float:
        return sum(self_ns[by_name[s]] for s in spans) / 1e9 / ops

    def count(span) -> float:
        return calls[by_name[span]] / ops

    def rate(count_: float, span: str) -> float:
        seconds = total_ns[by_name[span]] / 1e9
        return count_ / seconds if seconds else 0.0

    admitted = under_decide[by_name["semigroup.is_torsion"]]
    products = under_decide[by_name["linalg.mul"]]
    m = {}
    for span in ("linalg.mul", "linalg.rref", "linalg.minimal_polynomial", "semigroup.is_torsion",
                 "semigroup.evaluate", "exterior.trivial_intersection",
                 "imagegraph.build_image_graph", "grouplat.group_closure", "shortener.shorten"):
        m[f"{span}.calls"] = (count(span), "count/op")
        m[f"{span}.self_s"] = (self_s(span), "s/op")
    for span in ("linalg.kernel", "linalg.inverse", "polys.gcd", "polys.pow_x_mod",
                 "semigroup.decide_finiteness", "imagegraph.scc_shortest_path",
                 "imagegraph.scc_segment_decompose", "grouplat.integerize", "wautomata.evaluate",
                 "wautomata.minimize", "vass.reach_bounded", "cli.main"):
        m[f"{span}.self_s"] = (self_s(span), "s/op")
    m["shortener.cycle_rep.calls"] = (count("shortener.cycle_rep"), "count/op")
    m["serialize.parse.self_s"] = (self_s(*[s for s in by_name if s.startswith("serialize.") and
                                            ("_from_" in s or ".parse" in s)]), "s/op")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s(*[s for s in by_name if s.startswith(layer + ".")]), "s/op")
    m["semigroup.new_ratio"] = (admitted / products if products else 0.0, "ratio")
    m["semigroup.elements_per_s"] = (rate(admitted, "semigroup.decide_finiteness"), "1/s")
    m["semigroup.bytes_per_element"] = (tracer.bytes_per_element(), "B")
    m["vass.configs_per_s"] = (rate(tracer.configs, "vass.reach_bounded"), "1/s")
    m["shortener.out_in_ratio"] = (out_in, "ratio")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return m
