"""Spans around the public functions of each ptjc layer, recorded from outside.

The tracer looks each boundary function up by module and name, and
replaces every reference the ``ptjc`` modules hold to it with a timing
wrapper while ``active()`` is entered.  A function that no longer
exists is reported as absent, never as an error, so the benchmark keeps
running while the package is simplified underneath it.

A span records name, layer, start, end, parent span and op id.  Spans
stay in memory until ``dump`` writes them out.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (layer, module, function) for every boundary the traced run times.
BOUNDARIES = (
    ("cli", "ptjc.cli", "main"),
    ("bessel", "ptjc.bessel", "solve_j0_equals"),
    ("kernels", "ptjc.dynamics", "integrate"),
    ("dynamics", "ptjc.dynamics", "map_trajectory"),
    ("dynamics", "ptjc.dynamics", "write_trajectory_csv"),
    ("dynamics", "ptjc.dynamics", "read_trajectory_csv"),
    ("equivalence", "ptjc.equivalence", "solve_modulation_beta"),
    ("equivalence", "ptjc.equivalence", "run_equivalence_experiment"),
    ("fockspace", "ptjc.fockspace", "build_h0"),
    ("fockspace", "ptjc.fockspace", "build_fock_operators"),
    ("pseudo", "ptjc.pseudo", "build_similarity"),
    ("pseudo", "ptjc.pseudo", "build_biorthogonal_system"),
    ("pseudo", "ptjc.pseudo", "diagnostics_record"),
    ("linalg", "ptjc.linalg", "expm_pade"),
    ("linalg", "ptjc.linalg", "jacobi_eigh"),
)


def _path_arg(args, kwargs, position):
    return kwargs["path"] if "path" in kwargs else args[position]


# Counts taken at a boundary from its arguments and result:
# boundary -> {counter: f(args, kwargs, result)}.
COUNTERS = {
    "dynamics.integrate": {"kernels.steps": lambda a, k, r: len(r) - 1},
    "dynamics.map_trajectory": {"dynamics.map_samples": lambda a, k, r: len(r)},
    "dynamics.write_trajectory_csv": {
        "dynamics.csv_write_bytes": lambda a, k, r: os.path.getsize(_path_arg(a, k, 1))},
    "dynamics.read_trajectory_csv": {
        "dynamics.csv_read_bytes": lambda a, k, r: os.path.getsize(_path_arg(a, k, 0))},
    "equivalence.run_equivalence_experiment": {
        "equivalence.samples": lambda a, k, r: len(r.times)},
    "bessel.solve_j0_equals": {"bessel.newton_iters": lambda a, k, r: r.iterations},
    "pseudo.build_biorthogonal_system": {
        "pseudo.dim": lambda a, k, r: r.space.total_dim,
        "pseudo.pairs": lambda a, k, r: len(r.energies)},
}

# Per-layer metrics: (name, unit, kind, source).  ``span`` sums the
# durations of one boundary, ``self`` the self time of a layer,
# ``count`` one counter, and ``rate`` divides a counter by a span total.
LAYER_METRICS = (
    ("cli.self_s", "s", "self", "cli"),
    ("bessel.solve_s", "s", "span", "bessel.solve_j0_equals"),
    ("bessel.newton_iters", "count", "count", "bessel.newton_iters"),
    ("kernels.integrate_s", "s", "span", "dynamics.integrate"),
    ("kernels.steps", "count", "count", "kernels.steps"),
    ("kernels.steps_per_s", "1/s", "rate", ("kernels.steps", "dynamics.integrate")),
    ("dynamics.map_s", "s", "span", "dynamics.map_trajectory"),
    ("dynamics.map_samples", "count", "count", "dynamics.map_samples"),
    ("dynamics.csv_write_s", "s", "span", "dynamics.write_trajectory_csv"),
    ("dynamics.csv_write_bytes", "bytes", "count", "dynamics.csv_write_bytes"),
    ("dynamics.csv_read_s", "s", "span", "dynamics.read_trajectory_csv"),
    ("dynamics.csv_read_bytes", "bytes", "count", "dynamics.csv_read_bytes"),
    ("equivalence.experiment_s", "s", "span", "equivalence.run_equivalence_experiment"),
    ("equivalence.self_s", "s", "self", "equivalence"),
    ("equivalence.samples", "count", "count", "equivalence.samples"),
    ("fockspace.build_s", "s", "self", "fockspace"),
    ("pseudo.similarity_s", "s", "span", "pseudo.build_similarity"),
    ("pseudo.biorthogonal_s", "s", "span", "pseudo.build_biorthogonal_system"),
    ("pseudo.diagnostics_s", "s", "span", "pseudo.diagnostics_record"),
    ("pseudo.self_s", "s", "self", "pseudo"),
    ("pseudo.dim", "count", "count", "pseudo.dim"),
    ("pseudo.pairs", "count", "count", "pseudo.pairs"),
    ("linalg.expm_s", "s", "span", "linalg.expm_pade"),
    ("linalg.eigh_s", "s", "span", "linalg.jacobi_eigh"),
)

OP_SPAN = "op"


def _qualname(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


class Tracer:
    """In-memory span and counter recorder for the boundaries it resolves."""

    def __init__(self, boundaries=BOUNDARIES):
        self.spans = []      # [op, id, parent, name, layer, start, end]
        self.counts = []     # (op, counter, value)
        self.absent = set()  # boundaries or counters that could not be read
        self.found = {}      # resolved boundary -> layer
        self._stack = []
        self._op = None
        wrappers = []
        for layer, module, function in boundaries:
            qual = _qualname(module, function)
            try:
                fn = getattr(importlib.import_module(module), function)
            except (ImportError, AttributeError):
                self.absent.add(qual)
                continue
            self.found[qual] = layer
            wrappers.append((fn, self._wrap(layer, qual, fn)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ptjc" or n.startswith("ptjc."))]
        self._patches = [(mod, attr, fn, wrapper)
                         for fn, wrapper in wrappers
                         for mod in modules
                         for attr, value in list(vars(mod).items()) if value is fn]

    def _open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, sid, parent, name, layer, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][6] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, qual: str, fn):
        counters = COUNTERS.get(qual, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(qual, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            for name, count in counters.items():
                try:
                    self.counts.append((self._op, name, count(args, kwargs, result)))
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    self.absent.add(name)
            return result

        return traced

    @contextlib.contextmanager
    def active(self, op_id: int):
        """Patch the boundaries in and time one op as the root span."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._op = op_id
        sid = self._open(OP_SPAN, "bench")
        try:
            yield
        finally:
            self._close(sid)
            self._op = None
            for mod, attr, fn, _ in self._patches:
                setattr(mod, attr, fn)

    def op_durations(self) -> list:
        return [s[6] - s[5] for s in self.spans if s[3] == OP_SPAN]

    def layer_metrics(self) -> dict:
        """Per-op means of every LAYER_METRICS entry; None marks absent."""
        n_ops = len(self.op_durations())
        span_total = defaultdict(float)
        layer_self = defaultdict(float)
        covered = defaultdict(float)
        for op, sid, parent, name, layer, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for op, sid, parent, name, layer, start, end in self.spans:
            span_total[name] += end - start
            layer_self[layer] += end - start - covered[sid]
        count_total = defaultdict(float)
        for op, name, value in self.counts:
            count_total[name] += value
        counter_home = {c: b for b, cs in COUNTERS.items() for c in cs}

        def missing(kind, source):
            if kind == "span":
                return source not in self.found
            if kind == "self":
                return source not in self.found.values()
            if kind == "count":
                return source in self.absent or counter_home[source] not in self.found
            return missing("count", source[0]) or missing("span", source[1])

        metrics = {}
        for name, unit, kind, source in LAYER_METRICS:
            if missing(kind, source):
                value = None
            elif kind == "span":
                value = span_total[source] / n_ops
            elif kind == "self":
                value = layer_self[source] / n_ops
            elif kind == "count":
                value = count_total[source] / n_ops
            else:
                busy = span_total[source[1]]
                value = count_total[source[0]] / busy if busy > 0 else 0.0
            metrics[name] = (value, unit)
        return metrics

    def dump(self, path) -> None:
        keys = ("op", "id", "parent", "name", "layer", "start", "end")
        doc = {"absent": sorted(self.absent),
               "spans": [dict(zip(keys, s)) for s in self.spans],
               "counts": [{"op": o, "name": n, "value": v} for o, n, v in self.counts]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
