"""Span recording around the public functions of lorentz_embed, from outside.

``install(recorder)`` replaces each function in the namespace where its
caller looks it up (``solver.covariant_hessian``, ``exhaustion.solve_dirichlet``,
``scipy.sparse.linalg.splu`` as the solver reaches it, ...) with a wrapper
that records one span per call: name, start, end, parent span and a few
counts read from the arguments and the return value.  Nothing under
``src/`` is edited; the wrappers live only in the process that installs
them.  Spans stay in memory until the caller writes ``recorder.spans``.
"""

from __future__ import annotations

import functools
import importlib
import time

CLOCK = time.CLOCK_MONOTONIC


def _grid_key(grid):
    return f"{grid.kind}:{grid.n1}x{grid.n2}:{grid.q1[-1]!r}"


def _solve_attrs(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    initial = args[1] if len(args) > 1 else kwargs.get("initial")
    _, residual0, _, eig_margin0 = out.trace[0]
    return {
        "iterations": out.iterations,
        "warm": initial is not None,
        "residual0": residual0,
        "eig_margin0": eig_margin0,
        "unknowns": problem.grid.n1 * problem.grid.n2,
    }


def _splu_attrs(args, kwargs, out):
    return {"nnz": int(out.nnz)}


def _chart_attrs(args, kwargs, out):
    return {"grid": _grid_key(args[1] if len(args) > 1 else kwargs["grid"])}


def _distance_attrs(args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"targets": grid.n1 * grid.n2}


def _suite_attrs(args, kwargs, out):
    return {"records": len(out.records)}


# (module, attribute, span name, attribute reader).  One span name may be
# reached through several modules; each binding is wrapped separately.
TARGETS = (
    ("lorentz_embed.cli", "build_metric", "metric.build", None),
    ("lorentz_embed.grid", "chart_arrays", "grid.chart_arrays", _chart_attrs),
    ("lorentz_embed.solver", "chart_arrays", "grid.chart_arrays", _chart_attrs),
    ("lorentz_embed.estimates", "chart_arrays", "grid.chart_arrays", _chart_attrs),
    ("lorentz_embed.embed", "chart_arrays", "grid.chart_arrays", _chart_attrs),
    ("lorentz_embed.solver", "covariant_hessian", "grid.covariant_hessian", None),
    ("lorentz_embed.estimates", "covariant_hessian", "grid.covariant_hessian", None),
    ("lorentz_embed.cli", "covariant_hessian", "grid.covariant_hessian", None),
    ("lorentz_embed.cli", "write_field_csv", "grid.field_csv_write", None),
    ("lorentz_embed.cli", "solve_dirichlet", "solver.solve", _solve_attrs),
    ("lorentz_embed.exhaustion", "solve_dirichlet", "solver.solve", _solve_attrs),
    ("scipy.sparse.linalg", "splu", "solver.splu", _splu_attrs),
    ("lorentz_embed.cli", "run_exhaustion", "exhaustion.run", None),
    ("lorentz_embed.exhaustion", "sample_bicubic", "exhaustion.sample_bicubic", None),
    ("lorentz_embed.estimates", "distance_field", "geodesics.distance_field", _distance_attrs),
    ("lorentz_embed.cli", "run_estimate_suite", "estimates.suite", _suite_attrs),
    ("lorentz_embed.estimates", "build_cutoff", "estimates.build_cutoff", None),
    ("lorentz_embed.estimates", "check_second_order", "estimates.check_second_order", None),
    ("lorentz_embed.estimates", "max_neg_curvature_ball",
     "estimates.max_neg_curvature_ball", None),
    ("lorentz_embed.cli", "build_embedding", "embed.build", None),
    ("lorentz_embed.embed", "conformal_metric", "embed.conformal_metric", None),
    ("lorentz_embed.embed", "develop", "embed.develop", None),
    ("lorentz_embed.embed", "assemble_embedding", "embed.assemble", None),
    ("lorentz_embed.embed", "verify_embedding", "embed.verify", None),
    ("lorentz_embed.cli", "export_graph", "embed.export", None),
    ("lorentz_embed.cli", "write_obj", "embed.export", None),
)


class Recorder:
    """In-memory span list; spans nest by call order on one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.clock_gettime(CLOCK), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.clock_gettime(CLOCK)
            self._stack.pop()
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, out)
        return out

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced


def install(recorder):
    """Wrap every binding in TARGETS, recording into ``recorder``."""
    for module_name, attr, name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.wrap(getattr(module, attr), name, attrs))
