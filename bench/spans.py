"""Spans and counters around weylkit's public functions, for the traced run.

``Tracer.install()`` replaces each function listed in ``LAYERS`` at every
module binding of it inside the ``weylkit`` package (``zeros_below`` is
bound in ``bessel``, ``spectra`` and ``halfspace``; ``eigsh`` in
``fdlap``), and the listed domain methods on their classes. Each call
records a span (name, start, end, parent, job) in memory and adds its
self time (duration minus the time of its child spans) to the layer.
``uninstall()`` puts the original objects back. Nothing in ``src/`` is
changed; the untraced run calls the plain functions.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_points(c, args, kwargs, result):
    c["bessel.bessel_j.points"] += np.size(args[1] if len(args) > 1 else kwargs["x"])


def _count_zeros(c, args, kwargs, result):
    c["bessel.zeros_below.zeros"] += len(result)


def _count_eigs(c, args, kwargs, result):
    c["spectra.eigenvalues"] += len(result)


def _count_sweep(c, args, kwargs, result):
    c["functionals.sweep.h_points"] += len(result.records)
    c["functionals.sweep.terms"] += sum(r.n_below for r in result.records)


def _count_dofs(c, args, kwargs, result):
    c["fdlap.assemble.dofs"] += result.dim


def _count_fd_eigs(c, args, kwargs, result):
    c["fdlap.eigenvalues"] += len(result)


def _count_diag_points(c, args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    c["localization.dump_diagnostics.points"] += len(np.atleast_2d(pts))


# (module, attribute, layer name, counter) for module-level functions
LAYERS = [
    ("weylkit.bessel", "bessel_j", "bessel.bessel_j", _count_points),
    ("weylkit.bessel", "zeros_below", "bessel.zeros_below", _count_zeros),
    ("weylkit.spectra", "disk_spectrum", "spectra.disk_spectrum", _count_eigs),
    ("weylkit.spectra", "box_spectrum", "spectra.box_spectrum", _count_eigs),
    ("weylkit.spectra", "save_spectrum", "spectra.save_spectrum", None),
    ("weylkit.functionals", "sweep", "functionals.sweep", _count_sweep),
    ("weylkit.functionals", "fit_second_term", "functionals.fit_second_term", None),
    ("weylkit.functionals", "sweep_to_csv", "functionals.sweep_to_csv", None),
    ("weylkit.fdlap", "assemble", "fdlap.assemble", _count_dofs),
    ("weylkit.fdlap", "count_below", "fdlap.count_below", None),
    ("weylkit.fdlap", "eigsh", "fdlap.eigsh", None),
    ("weylkit.fdlap", "eigenvalues_below", "fdlap.eigenvalues_below", _count_fd_eigs),
    ("weylkit.localization", "normalization_check", "localization.normalization_check", None),
    ("weylkit.localization", "dump_diagnostics", "localization.dump_diagnostics",
     _count_diag_points),
    ("weylkit.halfspace", "cosine_integral", "halfspace.cosine_integral", None),
    ("weylkit.halfspace", "density_profile", "halfspace.density_profile", None),
    ("weylkit.halfspace", "boundary_partial_sums", "halfspace.boundary_partial_sums", None),
    ("weylkit.halfspace", "tail_bound_check", "halfspace.tail_bound_check", None),
]

# (class, method, layer name) on weylkit.domains
METHODS = [(cls, "distance_to_complement", "domains.distance")
           for cls in ("Box", "Disk", "Ball", "HalfSpace", "Polygon")]
METHODS.append(("Polygon", "contains", "domains.Polygon.contains"))


class _CountRecords(logging.Handler):
    def __init__(self, counts: Counter, key: str):
        super().__init__(logging.DEBUG)
        self.counts, self.key = counts, key

    def emit(self, record):
        self.counts[self.key] += 1


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(tracer.spans), 0.0]
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[frame[0]] = (name, start, end, parent, tracer.job)
                tracer.self_s[name] += (end - start) - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "weylkit" or n.startswith("weylkit."))]
        for mod_name, attr, name, count in LAYERS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapped = self.wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        domains = importlib.import_module("weylkit.domains")
        for cls_name, meth, name in METHODS:
            cls = getattr(domains, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig))
            self._undo.append((cls, meth, orig))
        handler = _CountRecords(self.counts, "fdlap.count_below.nudges")
        logger = logging.getLogger("weylkit.fdlap")
        logger.addHandler(handler)
        self._undo.append((logger, None, handler))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if key is None:
                owner.removeHandler(orig)
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time of every layer, call counts and work counters, plus the
        ratios of useful outcome to attempts."""
        out: dict[str, float] = {}
        names = [n for _, _, n, _ in LAYERS] + [n for _, _, n in METHODS] + ["cli"]
        for name in names:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for key in ("bessel.bessel_j.points", "bessel.zeros_below.zeros", "spectra.eigenvalues",
                    "functionals.sweep.h_points", "functionals.sweep.terms",
                    "fdlap.assemble.dofs", "fdlap.eigenvalues", "fdlap.count_below.nudges",
                    "localization.dump_diagnostics.points"):
            out[key] = self.counts.get(key, 0)
        points = out["bessel.bessel_j.points"]
        out["bessel.zeros_per_point"] = out["bessel.zeros_below.zeros"] / points if points else 0.0
        counts = out["fdlap.count_below.calls"]
        out["fdlap.eigenvalues_per_count"] = out["fdlap.eigenvalues"] / counts if counts else 0.0
        return out
