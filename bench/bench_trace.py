"""Spans around calls into spdsgd's modules, recorded from outside the library.

A :class:`Tracer` wraps the public functions of each module (and the numpy
spectral kernels they call) while it is installed, and restores every
original on exit.  Each call records one span: ``(id, name, start_ns,
end_ns, parent_id, thread, work)``, where ``parent_id`` is the innermost
traced call open on the same thread (``-1`` at the top) and ``work`` holds
counts taken at the boundary, such as the matrices one ``eigh`` decomposed.
Spans stay in memory until :meth:`Tracer.write`.

:class:`TraceSummary` turns spans into per-layer numbers.  A span's self
time is its duration minus the part of its interval that the union of its
child spans covers, so overlapping children (from worker threads) are not
subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    name: str
    start: int
    end: int
    parent: int
    thread: int
    work: dict | None


def _stack_work(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    out = result if isinstance(result, tuple) else (result,)
    return {
        "matrices": math.prod(a.shape[:-2]),
        "bytes": a.nbytes + sum(np.asarray(o).nbytes for o in out),
    }


def _batch_work(args, kwargs, result):
    return {"samples": int(np.size(result))}


def _run_work(args, kwargs, result):
    return {"steps": result.steps}


def _sweep_work(args, kwargs, result):
    cells = result.cells.values()
    return {"cells": len(cells), "cells_failed": sum(c.error is not None for c in cells)}


def _read_work(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path), "matrices": result.n}


# (owner, attribute, span name, work counter).  The owner is a module, or
# ``module:Class`` for a method.  Every module of the package that binds the
# same function object by name is patched too (``experiment`` imports
# ``run``; ``manifold`` and ``objective`` import ``symmat._eigh``).
# ``rsgd.step_size`` and ``experiment.model_steps`` stay unwrapped: the first
# is part of the loop's own cost, the second runs thousands of times inside
# one fit, where a span per call would mostly time the tracer.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("spdsgd.cli", "main", "cli.main", None),
    ("spdsgd.experiment", "sweep", "experiment.sweep", _sweep_work),
    ("spdsgd.experiment", "check_monotone_convex", "experiment.check_monotone_convex", None),
    ("spdsgd.experiment", "fit_model", "experiment.fit_model", None),
    ("spdsgd.experiment", "critical_batch", "experiment.critical_batch", None),
    ("spdsgd.experiment", "batch_lower_bound", "experiment.batch_lower_bound", None),
    ("spdsgd.rsgd", "run", "rsgd.run", _run_work),
    ("spdsgd.rsgd", "reference_centroid", "rsgd.reference_centroid", None),
    ("spdsgd.rsgd", "rsgd_step", "rsgd.rsgd_step", None),
    ("spdsgd.rsgd", "step_rng", "rsgd.step_rng", None),
    ("spdsgd.rsgd", "stationarity_gap", "rsgd.stationarity_gap", None),
    ("spdsgd.objective:Dataset", "__post_init__", "objective.Dataset", None),
    ("spdsgd.objective", "objective_summary", "objective.objective_summary", None),
    ("spdsgd.objective", "batch_gradient_from_summary", "objective.batch_gradient_from_summary", None),
    ("spdsgd.objective", "batch_gradient", "objective.batch_gradient", None),
    ("spdsgd.objective", "sample_batch", "objective.sample_batch", _batch_work),
    ("spdsgd.objective", "loss", "objective.loss", None),
    ("spdsgd.objective", "full_gradient", "objective.full_gradient", None),
    ("spdsgd.objective", "gradient_variance", "objective.gradient_variance", None),
    ("spdsgd.objective", "point_gradient", "objective.point_gradient", None),
    ("spdsgd.objective", "max_gradient_norm", "objective.max_gradient_norm", None),
    ("spdsgd.objective", "estimate_smoothness", "objective.estimate_smoothness", None),
    ("spdsgd.manifold", "validate_spd", "manifold.validate_spd", None),
    ("spdsgd.manifold", "sqrt_and_inv_sqrt", "manifold.sqrt_and_inv_sqrt", None),
    ("spdsgd.manifold", "exp_map", "manifold.exp_map", None),
    ("spdsgd.manifold", "log_map", "manifold.log_map", None),
    ("spdsgd.manifold", "distance", "manifold.distance", None),
    ("spdsgd.manifold", "inner", "manifold.inner", None),
    ("spdsgd.manifold", "norm", "manifold.norm", None),
    ("spdsgd.manifold", "parallel_transport", "manifold.parallel_transport", None),
    ("spdsgd.symmat", "_eigh", "symmat._eigh", None),
    ("spdsgd.symmat", "sym_eigen", "symmat.sym_eigen", None),
    ("spdsgd.dataio", "read_matrix_set", "dataio.read_matrix_set", _read_work),
    ("spdsgd.dataio", "write_matrix_set", "dataio.write_matrix_set", None),
    ("spdsgd.dataio", "read_pgm", "dataio.read_pgm", None),
    ("spdsgd.dataio", "write_pgm", "dataio.write_pgm", None),
    ("spdsgd.dataio", "covariance_descriptors", "dataio.covariance_descriptors", None),
    ("spdsgd.dataio", "generate_synthetic", "dataio.generate_synthetic", None),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh", _stack_work),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh", _stack_work),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spdsgd" or name.startswith("spdsgd."))]


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, fn, name: str, work):
        spans, ids, local = self.spans, self._ids, self._local
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                counts = work(args, kwargs, result) if ok and work else None
                spans.append(Span(sid, name, t0, t1, parent, get_ident(), counts))
            return result

        traced.bench_traced = True
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every namespace that binds it; restore on exit."""
        patches = []
        try:
            for owner, attr, name, work in self.targets:
                holder = _resolve(owner)
                original = vars(holder)[attr]
                wrapper = self._wrap(original, name, work)
                namespaces = [holder] + [m for m in _package_modules() if m is not holder]
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            patches.append((ns, key, original))
                            setattr(ns, key, wrapper)
            yield self
        finally:
            for ns, key, original in reversed(patches):
                setattr(ns, key, original)

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, in the order they were opened."""
        threads: dict[int, int] = {}
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id,name,start_ns,end_ns,parent,thread,work\n")
            for s in sorted(self.spans):
                tid = threads.setdefault(s.thread, len(threads))
                work = ";".join(f"{k}={v}" for k, v in s.work.items()) if s.work else ""
                fh.write(f"{s.sid},{s.name},{s.start},{s.end},{s.parent},{tid},{work}\n")


def covered(lo: int, hi: int, intervals) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


class TraceSummary:
    """Totals, counts and self times per span name, optionally within an ancestor."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.sid: s for s in self.spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            self.by_name[s.name].append(s)
        self.self_ns = self_times(self.spans)
        self._within: dict[str, set[int]] = {}

    def _inside(self, ancestor: str) -> set[int]:
        """Ids of spans that have an ancestor named ``ancestor``."""
        if ancestor not in self._within:
            inside = set()
            for s in sorted(self.spans):  # parents open before their children
                p = self.by_id.get(s.parent)
                if p is not None and (p.name == ancestor or p.sid in inside):
                    inside.add(s.sid)
            self._within[ancestor] = inside
        return self._within[ancestor]

    def select(self, name: str, within: str | None = None) -> list[Span]:
        spans = self.by_name.get(name, [])
        if within is not None:
            inside = self._inside(within)
            spans = [s for s in spans if s.sid in inside]
        return spans

    def calls(self, name: str, within: str | None = None) -> int:
        return len(self.select(name, within))

    def seconds(self, name: str, within: str | None = None) -> float:
        return sum(s.end - s.start for s in self.select(name, within)) * 1e-9

    def self_seconds(self, name: str) -> float:
        return sum(self.self_ns[s.sid] for s in self.select(name)) * 1e-9

    def mean_us(self, name: str) -> float:
        n = self.calls(name)
        return self.seconds(name) * 1e6 / n if n else 0.0

    def work(self, name: str, key: str, within: str | None = None) -> int:
        return sum(s.work[key] for s in self.select(name, within) if s.work)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: TraceSummary, overhead_frac: float) -> dict[str, float]:
    """Per-layer numbers of one traced run; a layer the run never calls reads 0.

    Per-call times (``_us``) are means over the calls; ``_s`` values are
    totals over the traced run.  ``summary_share``, ``matrices_per_step``
    and ``useful_ratio`` count only work inside ``rsgd.run``, so the oracle's
    full-gradient iterations do not dilute them.
    """
    run = "rsgd.run"
    steps = t.work(run, "steps")
    run_s = t.seconds(run)
    decomposed = (t.work("numpy.linalg.eigh", "matrices", run)
                  + t.work("numpy.linalg.eigvalsh", "matrices", run))
    eigh_matrices = t.work("numpy.linalg.eigh", "matrices")
    eigh_calls = t.calls("numpy.linalg.eigh")
    batch_grad_calls = (t.calls("objective.batch_gradient_from_summary")
                        + t.calls("objective.batch_gradient"))
    batch_grad_s = (t.seconds("objective.batch_gradient_from_summary")
                    + t.seconds("objective.batch_gradient"))
    read_s = t.seconds("dataio.read_matrix_set")
    matrices_read = t.work("dataio.read_matrix_set", "matrices")
    fits = t.calls("experiment.fit_model")
    values = {
        "objective.summary_calls": t.calls("objective.objective_summary"),
        "objective.summary_us": t.mean_us("objective.objective_summary"),
        "objective.summary_share": _ratio(t.seconds("objective.objective_summary", run), run_s),
        "objective.matrices_per_step": _ratio(decomposed, steps),
        "objective.useful_ratio": _ratio(t.work("objective.sample_batch", "samples", run), decomposed),
        "objective.sample_batch_us": t.mean_us("objective.sample_batch"),
        "objective.batch_grad_us": _ratio(batch_grad_s * 1e6, batch_grad_calls),
        "objective.dataset_init_s": t.seconds("objective.Dataset"),
        "rsgd.runs": t.calls(run),
        "rsgd.steps": steps,
        "rsgd.self_us_per_step": _ratio(t.self_seconds(run) * 1e6, steps),
        "rsgd.step_rng_us": t.mean_us("rsgd.step_rng"),
        "rsgd.reference_s": t.seconds("rsgd.reference_centroid"),
        "rsgd.reference_evals": t.calls("objective.objective_summary", "rsgd.reference_centroid"),
        "manifold.exp_map_calls": t.calls("manifold.exp_map"),
        "manifold.exp_map_us": t.mean_us("manifold.exp_map"),
        "manifold.log_map_us": t.mean_us("manifold.log_map"),
        "manifold.distance_us": t.mean_us("manifold.distance"),
        "manifold.inner_us": t.mean_us("manifold.inner"),
        "manifold.validate_spd_calls": t.calls("manifold.validate_spd"),
        "manifold.validate_spd_us": t.mean_us("manifold.validate_spd"),
        "symmat.eigh_calls": eigh_calls,
        "symmat.eigh_matrices": eigh_matrices,
        "symmat.eigh_matrices_per_call": _ratio(eigh_matrices, eigh_calls),
        "symmat.eigh_us_per_matrix": _ratio(t.seconds("numpy.linalg.eigh") * 1e6, eigh_matrices),
        "symmat.eigvalsh_matrices": t.work("numpy.linalg.eigvalsh", "matrices"),
        "symmat.eigh_bytes_computed": t.work("numpy.linalg.eigh", "bytes"),
        "dataio.read_s": read_s,
        "dataio.read_mb_per_s": _ratio(t.work("dataio.read_matrix_set", "bytes") * 1e-6, read_s),
        "dataio.write_s": t.seconds("dataio.write_matrix_set"),
        "dataio.descriptors_s": t.seconds("dataio.covariance_descriptors"),
        "dataio.validations_per_matrix": _ratio(
            t.work("numpy.linalg.eigvalsh", "matrices", "dataio.read_matrix_set"), matrices_read),
        "experiment.sweep_s": t.seconds("experiment.sweep"),
        "experiment.cells": t.work("experiment.sweep", "cells"),
        "experiment.cells_failed": t.work("experiment.sweep", "cells_failed"),
        "experiment.fit_ms": _ratio((t.seconds("experiment.fit_model")
                                     + t.seconds("experiment.critical_batch")) * 1e3, fits),
        "cli.self_s": t.self_seconds("cli.main"),
        "bench.trace_overhead_frac": overhead_frac,
    }
    return values
