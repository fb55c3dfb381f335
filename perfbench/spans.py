"""In-memory span tracer wrapped around the public functions of superpack.

The program itself is not instrumented. For a traced operation the
benchmark replaces each traced function with a timing wrapper at every
place the name is looked up: the defining module, every package module
that imported it with ``from .x import name``, or the class for
methods. Untraced operations run the original functions, because the
wrappers are removed again after each traced operation.

A span records name, start, end, parent span and a few counts taken
from the call's arguments or result. Self time is a span's duration
minus the durations of its direct children; summed over all spans it
equals the summed duration of the root spans.
"""
from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = math.nan
        self.parent = parent
        self.counts = None

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    """Collects spans of wrapped calls; ``reset`` starts a new operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced


def _rows(args, kwargs, result):
    return {"rows": math.prod(np.shape(args[0] if args else kwargs["X"])[:-1])}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _saved_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def targets(pkg):
    """(owner, attribute, span name, count function) for every traced function.

    ``pkg`` is a namespace holding the imported superpack modules.
    """
    geo, con, gib, lat, thermo, cli = pkg.geometry, pkg.constants, pkg.gibbs, pkg.lattice_graph, pkg.thermo, pkg.cli
    functions = [
        (geo, "norm_batch", "geometry.norm_batch", _rows),
        (con, "compute_constant_chain", "constants.chain", None),
        (gib, "run_chain", "gibbs.run_chain",
         lambda a, k, r: {"steps": r.steps, "accepted": r.accepted_births + r.accepted_deaths}),
        (gib, "estimate_alpha_curve", "gibbs.alpha_curve", lambda a, k, r: {"chains": len(r)}),
        (lat, "build_lattice", "lattice_graph.build_lattice", lambda a, k, r: {"cubes": r.N}),
        (lat, "build_graph", "lattice_graph.build_graph",
         lambda a, k, r: {"edges": r.edge_count, "max_degree": r.max_degree}),
        (lat, "greedy_independent_set", "lattice_graph.greedy", lambda a, k, r: {"chosen": len(r)}),
        (lat, "emit_packing", "lattice_graph.emit_packing", None),
        (lat, "verify_packing", "lattice_graph.verify_packing", None),
        (lat, "save_certificate", "lattice_graph.save_certificate", _saved_bytes),
        (thermo, "pressure_estimate", "thermo.pressure_estimate", None),
        (thermo, "entropy_estimate", "thermo.entropy_estimate",
         lambda a, k, r: {"successes": r.successes, "samples": r.samples}),
        (cli, "main", "cli", None),
    ]
    modules = [geo, con, gib, lat, thermo, cli]
    out = []
    for home, attr, name, count in functions:
        original = home.__dict__[attr]
        for mod in modules:  # every module that looks the name up in its globals
            for key, value in mod.__dict__.items():
                if value is original:
                    out.append((mod, key, name, count))
    out += [
        (geo.SuperballRegion, "sample", "geometry.sample", _points),
        (geo.TorusRegion, "sample", "geometry.sample", _points),
        (gib.Configuration, "validate", "gibbs.validate", None),
    ]
    return out


@contextmanager
def installed(tracer: Tracer, target_list):
    """Swap the wrappers in for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in target_list:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], wall: float, out_bytes: int) -> dict:
    """Per-layer metrics of one traced operation (see perfbench/README.md)."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    under = defaultdict(float)  # norm rows under a span name, or under run_chain but not validate
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += own[i]
        for key, val in (s.counts or {}).items():
            counts[s.name, key] += val
        if s.name == "geometry.norm_batch":
            rows = s.counts["rows"]
            names = set()
            p = s.parent
            while p >= 0:
                names.add(spans[p].name)
                p = spans[p].parent
            for name in names:
                under[name] += rows
            if "gibbs.run_chain" in names and "gibbs.validate" not in names:
                under["probe"] += rows

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "geometry.norm_batch.calls": calls["geometry.norm_batch"],
        "geometry.norm_batch.rows": counts["geometry.norm_batch", "rows"],
        "geometry.sample.calls": calls["geometry.sample"],
        "geometry.sample.points": counts["geometry.sample", "points"],
        "geometry.sample.candidates_per_point": ratio(under["geometry.sample"],
                                                      counts["geometry.sample", "points"]),
        "constants.chain.calls": calls["constants.chain"],
        "gibbs.run_chain.calls": calls["gibbs.run_chain"],
        "gibbs.run_chain.steps": counts["gibbs.run_chain", "steps"],
        "gibbs.run_chain.accept_frac": ratio(counts["gibbs.run_chain", "accepted"],
                                             counts["gibbs.run_chain", "steps"]),
        "gibbs.probe_rows": under["probe"],
        "gibbs.validate.calls": calls["gibbs.validate"],
        "gibbs.alpha_curve.chains": counts["gibbs.alpha_curve", "chains"],
        "lattice_graph.build_lattice.cubes": counts["lattice_graph.build_lattice", "cubes"],
        "lattice_graph.build_graph.edges": counts["lattice_graph.build_graph", "edges"],
        "lattice_graph.build_graph.max_degree": counts["lattice_graph.build_graph", "max_degree"],
        "lattice_graph.greedy.chosen": counts["lattice_graph.greedy", "chosen"],
        "lattice_graph.emit_packing.pair_rows": under["lattice_graph.emit_packing"],
        "lattice_graph.verify_packing.pair_rows": under["lattice_graph.verify_packing"],
        "lattice_graph.save_certificate.bytes": counts["lattice_graph.save_certificate", "bytes"],
        "thermo.entropy_estimate.success_frac": ratio(counts["thermo.entropy_estimate", "successes"],
                                                      counts["thermo.entropy_estimate", "samples"]),
        "cli.out_bytes": out_bytes,
    }
    for name in SPAN_NAMES:
        m[name + ".self_s"] = self_s[name]
    m["trace.wall_s"] = wall
    m["trace.gap_s"] = wall - sum(own)
    return m


SPAN_NAMES = (
    "geometry.norm_batch", "geometry.sample", "constants.chain", "gibbs.run_chain",
    "gibbs.validate", "gibbs.alpha_curve", "lattice_graph.build_lattice",
    "lattice_graph.build_graph", "lattice_graph.greedy", "lattice_graph.emit_packing",
    "lattice_graph.verify_packing", "lattice_graph.save_certificate",
    "thermo.pressure_estimate", "thermo.entropy_estimate", "cli",
)
