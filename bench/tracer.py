"""Span tracer that wraps the package's public functions from the outside.

Each traced name is patched at every place a caller looks it up: the
defining module, every ``qehrhart`` module that imported the name, and, for
methods, the class.  ``install`` returns a ``Tracer`` whose ``uninstall``
puts every original back.  Spans (name, start, end, parent, op id) are kept
in memory; ``layer_metrics`` folds them into the per-layer metrics and
``write_spans`` dumps them as JSON lines.
"""

from __future__ import annotations

import importlib
import json
import os
import time

MODULES = ("polytope", "harmonics", "linalg", "qseries", "ehrhart",
           "halgebra", "modp", "equivariant", "jsonio", "cli")

_MARK = "_bench_span_name"


def _size(obj):
    try:
        return len(obj)
    except TypeError:
        return 0


def _store_bytes(args, result):
    cache, key = args[0], args[1]
    if not cache.directory:
        return 0
    return os.path.getsize(cache.path(key))


# (span name, module, attribute path, {counter: fn(args, result) -> number})
# The counter "points" sums, "max_points" takes the maximum; "accepted" and
# "hits" feed the accept/hit ratios.
TARGETS = (
    ("polytope.LatticePolytope", "polytope", "LatticePolytope.__init__", {}),
    ("polytope.lattice_points", "polytope", "LatticePolytope.lattice_points",
     {"points": lambda a, r: _size(r)}),
    ("polytope.interior_lattice_points", "polytope",
     "LatticePolytope.interior_lattice_points",
     {"points": lambda a, r: _size(r)}),
    ("polytope.hull_coords", "polytope", "LatticePolytope.hull_coords", {}),
    ("harmonics.hilbert_qpoly", "harmonics", "hilbert_qpoly",
     {"points": lambda a, r: _size(a[0]),
      "max_points": lambda a, r: _size(a[0])}),
    ("harmonics.buchberger_moeller", "harmonics", "buchberger_moeller",
     {"points": lambda a, r: _size(a[0])}),
    ("harmonics.gr_component", "harmonics", "gr_component", {}),
    ("harmonics.harmonic_basis", "harmonics", "harmonic_basis",
     {"points": lambda a, r: _size(a[0])}),
    ("harmonics.closure_check", "harmonics", "closure_check", {}),
    ("linalg.rref", "linalg", "rref",
     {"cells": lambda a, r: a[0].rows * a[0].cols}),
    ("linalg.nullspace", "linalg", "nullspace", {}),
    ("linalg.solve", "linalg", "solve", {}),
    ("linalg.Echelon.add", "linalg", "Echelon.add",
     {"accepted": lambda a, r: 1 if r else 0}),
    ("linalg.Echelon.contains", "linalg", "Echelon.contains", {}),
    ("qseries.denominator_search", "qseries", "denominator_search", {}),
    ("qseries.fit_numerator", "qseries", "fit_numerator",
     {"hits": lambda a, r: 0 if r is None else 1}),
    ("qseries.RatFun2.expand", "qseries", "RatFun2.expand", {}),
    ("ehrhart.iq", "ehrhart", "iq", {}),
    ("ehrhart.iq_interior", "ehrhart", "iq_interior", {}),
    ("ehrhart.compute_record", "ehrhart", "compute_record", {}),
    ("ehrhart.guess", "ehrhart", "guess", {}),
    ("ehrhart.check_dilation", "ehrhart", "check_dilation", {}),
    ("halgebra.component", "halgebra", "component", {}),
    ("halgebra.product_span", "halgebra", "product_span", {}),
    ("halgebra.generation_check", "halgebra", "generation_check", {}),
    ("modp.closure_check_modp", "modp", "closure_check_modp", {}),
    ("modp.harmonic_basis_modp", "modp", "harmonic_basis_modp", {}),
    ("equivariant.graded_character", "equivariant", "graded_character", {}),
    ("jsonio.RecordCache.store", "jsonio", "RecordCache.store",
     {"bytes": _store_bytes}),
    ("jsonio.RecordCache.load", "jsonio", "RecordCache.load",
     {"hits": lambda a, r: 0 if r is None else 1}),
    ("cli.main", "cli", "main", {}),
)

# A call is "fresh" when it reached an enumeration span, i.e. missed the memo.
FRESH_CHILD = {
    "ehrhart.iq": "polytope.lattice_points",
    "ehrhart.iq_interior": "polytope.interior_lattice_points",
    "halgebra.component": "polytope.lattice_points",
}


def _modules():
    return [importlib.import_module("qehrhart")] + [
        importlib.import_module("qehrhart." + m) for m in MODULES]


def _resolve(module, path):
    owner = importlib.import_module("qehrhart." + module)
    *cls_path, attr = path.split(".")
    for name in cls_path:
        owner = getattr(owner, name)
    return owner, attr


def patch_sites():
    """Every (owner, attribute, original, span name) a wrapper goes on."""
    sites = []
    mods = _modules()
    for name, module, path, _ in TARGETS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            sites.append((owner, attr, original, name))
            continue
        for mod in mods:
            if mod.__dict__.get(attr) is original:
                sites.append((mod, attr, original, name))
    return sites


def wrapped_sites():
    """Names of patch sites that currently hold a tracer wrapper."""
    out = []
    for owner, attr, current, _ in patch_sites():
        name = getattr(current, _MARK, None)
        if name is not None:
            out.append(f"{getattr(owner, '__name__', owner)}.{attr}:{name}")
    return out


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start_ns, end_ns, parent index, op id]
        self.counters = []  # per span: {counter: value}
        self.stack = []
        self.op_id = "setup"
        self._restore = []

    def _wrap(self, fn, name, counters):
        spans, extra, stack = self.spans, self.counters, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1,
                          self.op_id])
            extra.append(None)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counters:
                extra[idx] = {k: f(args, result) for k, f in counters.items()}
            return result

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self, op_ids):
        """Per-layer metrics over the spans of the given op ids."""
        children = [0] * len(self.spans)
        fresh = set()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += end - start
                if FRESH_CHILD.get(self.spans[parent][0]) == name:
                    fresh.add(parent)
        agg = {name: {"self_ns": 0, "calls": 0, "fresh": 0, "points": 0,
                      "max_points": 0, "accepted": 0, "hits": 0, "cells": 0,
                      "bytes": 0}
               for name, *_ in TARGETS}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in op_ids:
                continue
            a = agg[name]
            a["self_ns"] += end - start - children[i]
            a["calls"] += 1
            a["fresh"] += i in fresh
            for k, v in (self.counters[i] or {}).items():
                a[k] = max(a[k], v) if k == "max_points" else a[k] + v
        return agg

    def write_spans(self, path):
        with open(path, "w") as fh:
            for (name, start, end, parent, op) in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def install():
    """Wrap every target at every lookup site; returns the live Tracer."""
    tracer = Tracer()
    counters = {name: c for name, _, _, c in TARGETS}
    wrappers = {}
    for owner, attr, original, name in patch_sites():
        if getattr(original, _MARK, None) is not None:
            tracer.uninstall()
            raise RuntimeError(f"{name} is already wrapped")
        key = id(original)
        if key not in wrappers:
            wrappers[key] = tracer._wrap(original, name, counters[name])
        tracer._restore.append((owner, attr, original))
        setattr(owner, attr, wrappers[key])
    return tracer


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(agg):
    """The per-layer metric names and values reported by the benchmark."""
    out = {}

    def put(name, key, value):
        out[f"{name}.{key}"] = value

    for name, *_ in TARGETS:
        a = agg[name]
        put(name, "self_s", a["self_ns"] / 1e9)
    for name in ("polytope.lattice_points", "polytope.interior_lattice_points",
                 "harmonics.hilbert_qpoly", "harmonics.buchberger_moeller",
                 "harmonics.harmonic_basis"):
        put(name, "points", agg[name]["points"])
    put("harmonics.hilbert_qpoly", "max_points",
        agg["harmonics.hilbert_qpoly"]["max_points"])
    put("linalg.rref", "cells", agg["linalg.rref"]["cells"])
    a = agg["linalg.Echelon.add"]
    put("linalg.Echelon.add", "accept_ratio", _ratio(a["accepted"], a["calls"]))
    a = agg["qseries.fit_numerator"]
    put("qseries.fit_numerator", "hit_ratio", _ratio(a["hits"], a["calls"]))
    for name in FRESH_CHILD:
        a = agg[name]
        put(name, "fresh_ratio", _ratio(a["fresh"], a["calls"]))
    put("jsonio.RecordCache.store", "bytes",
        agg["jsonio.RecordCache.store"]["bytes"])
    a = agg["jsonio.RecordCache.load"]
    put("jsonio.RecordCache.load", "hit_ratio", _ratio(a["hits"], a["calls"]))
    for name, *_ in TARGETS:
        if name not in ("polytope.LatticePolytope", "ehrhart.compute_record",
                        "ehrhart.guess", "ehrhart.check_dilation"):
            put(name, "calls", agg[name]["calls"])
    return out
