"""Span tracing for the traced run, from outside the program.

`install` wraps every public function of every toricpoints module, and
rebinds the wrapper in each module that imported the function by name, so
calls between modules are seen too.  Each call records a span (name,
parent, start, end) in memory; `layer_metrics` turns the spans into the
per-layer metrics, where a span's self time is its duration minus the time
covered by its children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from math import ceil, floor
from time import perf_counter_ns
from typing import Dict, List


class Tracer:
    """Spans of one traced run, and the wrappers that record them."""

    def __init__(self):
        # [name, parent index or -1, start ns, end ns, extra]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        self.caches: Dict[str, object] = {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        record = _RECORDERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if record is not None:
                span[4] = record(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "toricpoints") -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrappers = {}
        for modname, mod in sorted(modules.items()):
            short = modname[len(package) + 1:]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                inner = getattr(obj, "__wrapped__", obj)
                if getattr(inner, "__module__", None) != modname:
                    continue
                label = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(label, obj))
                if hasattr(obj, "cache_info"):
                    self.caches[label] = obj
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()


def _lambda_subsets(args, kwargs, result):
    fan = args[0] if args else kwargs["fan"]
    return 2 ** fan.n


def _lattice_points(args, kwargs, result):
    halfplanes = args[0] if args else kwargs["halfplanes"]
    vertices = args[1] if len(args) > 1 else kwargs.get("vertices")
    return (halfplanes, vertices, len(result))


_RECORDERS = {
    "lowdeg.lambda_invariant": _lambda_subsets,
    "geometry.lattice_points": _lattice_points,
}


def _box_cells(vertices) -> int:
    """Cells of the bounding box that geometry.lattice_points scans."""
    if not vertices:
        return 0
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return (max(ceil(x) for x in xs) - min(floor(x) for x in xs) + 1) * (
        max(ceil(y) for y in ys) - min(floor(y) for y in ys) + 1
    )


def write_spans(spans: List[list], path) -> None:
    """All spans as gzipped tab-separated lines: index, parent, name, start
    and end in ns."""
    with gzip.open(path, "wt") as fh:
        fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
        for i, (name, parent, start, end, _) in enumerate(spans):
            fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


def summarize(spans: List[list], extras: bool = True) -> Dict[str, dict]:
    """Per span name: calls, total and self time in ns, and (with extras)
    what the recorders kept."""
    covered = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, dict] = {}
    for i, (name, parent, start, end, extra) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        s["calls"] += 1
        s["total_ns"] += end - start
        s["self_ns"] += end - start - covered[i]
        if extras and extra is not None:
            s.setdefault("extras", []).append(extra)
    return out


def layer_metrics(tracer: Tracer, feasible_vertices, scale: float = 1.0) -> Dict[str, dict]:
    """The per-layer metrics of one traced run.  `feasible_vertices` is the
    program's own (unwrapped) vertex routine, used after the run to find the
    box that lattice_points scanned when it was not handed the vertices.
    Times are multiplied by `scale`, the run's wall-clock to reference-time
    factor."""
    s = summarize(tracer.spans)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ms(name):
        return {"value": get(name, "self_ns") * scale / 1e6, "unit": "ms"}

    def count(value):
        return {"value": value, "unit": "count"}

    points = cells = 0
    for halfplanes, vertices, n_points in s.get("geometry.lattice_points", {}).get("extras", []):
        if vertices is None:
            vertices = feasible_vertices(halfplanes)
        points += n_points
        cells += _box_cells(vertices)
    subsets = sum(s.get("lowdeg.lambda_invariant", {}).get("extras", []))

    def misses(name):
        cache = tracer.caches.get(name)
        return count(cache.cache_info().misses if cache is not None else 0)

    return {
        "lowdeg.toric_theorem_report.calls": count(get("lowdeg.toric_theorem_report", "calls")),
        "lowdeg.toric_theorem_report.self_ms": ms("lowdeg.toric_theorem_report"),
        "lowdeg.lambda_invariant.self_ms": ms("lowdeg.lambda_invariant"),
        "lowdeg.lambda_invariant.subsets": count(subsets),
        "lowdeg.positive_curve_representation.self_ms": ms("lowdeg.positive_curve_representation"),
        "lowdeg.interpolation_conditions.self_ms": ms("lowdeg.interpolation_conditions"),
        "geometry.feasible_vertices.calls": count(get("geometry.feasible_vertices", "calls")),
        "geometry.feasible_vertices.self_ms": ms("geometry.feasible_vertices"),
        "geometry.lattice_points.self_ms": ms("geometry.lattice_points"),
        "geometry.lattice_points.points": count(points),
        "geometry.lattice_points.box_cells": count(cells),
        "geometry.lattice_points.hit_ratio": {
            "value": points / cells if cells else 0.0, "unit": "ratio"
        },
        "cohomology.cohomology.calls": count(get("cohomology.cohomology", "calls")),
        "cohomology.cohomology.self_ms": ms("cohomology.cohomology"),
        "cohomology.divisor_polytope.self_ms": ms("cohomology.divisor_polytope"),
        "cohomology.lattice_point_count.self_ms": ms("cohomology.lattice_point_count"),
        "cohomology.vanishing_predicates.self_ms": ms("cohomology.vanishing_predicates"),
        "divisor.effective_representative.self_ms": ms("divisor.effective_representative"),
        "divisor.intersection_number.calls": count(get("divisor.intersection_number", "calls")),
        "divisor.intersection_number.self_ms": ms("divisor.intersection_number"),
        "divisor.intersection_matrix.misses": misses("divisor.intersection_matrix"),
        "fan.build_fan.calls": count(get("fan.build_fan", "calls")),
        "fan.build_fan.self_ms": ms("fan.build_fan"),
        "fan.prime_self_intersections.misses": misses("fan.prime_self_intersections"),
        "plane.plane_theorem_report.self_ms": ms("plane.plane_theorem_report"),
        "plane.sqrt_ceil_term.self_ms": ms("plane.sqrt_ceil_term"),
        "plane.find_m.calls": count(get("plane.find_m", "calls")),
        "plane.find_m.self_ms": ms("plane.find_m"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.make_parser.self_ms": ms("cli.make_parser"),
        "cli.parse_surface.self_ms": ms("cli.parse_surface"),
        "cli.parse_divisor.self_ms": ms("cli.parse_divisor"),
        "cli.jsonable.self_ms": ms("cli.jsonable"),
    }
