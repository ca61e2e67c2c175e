"""Spans around the coarse entry points of each cuntzgeo module.

A traced run patches module attributes at run time: the library functions
that the benchmark's workload module, ``cuntzgeo.cli``, ``cuntzgeo.checks``
and ``cuntzgeo.curvature`` imported by name, plus the ``solve_exact`` that
``cuntzgeo.geometry`` imported.  A call through a patched name records one
span; calls inside the library that do not go through those names, such as
``AlgElem.__mul__`` or ``derive`` inside ``d1``, stay unwrapped and count as
self time of the span around them.  ``src/`` is not edited.

Spans are kept in memory.  Each is ``[name, start_ns, end_ns, parent,
request, chars]`` where ``parent`` is the index of the enclosing span (the
request's root span at the top), ``request`` the request id and ``chars``
the length of a text argument.  Self time is a span's duration minus the
durations of its direct children; calls run on one thread, so the children
never overlap.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

from cuntzgeo.algebra import AlgElem


def _differential_span(x, *_):
    return "calculus.d0" if isinstance(x, AlgElem) else "calculus.d1"


# (module, attribute, span name or a function of the call's arguments)
ENTRY_POINTS = (
    ("workloads", "mul", "algebra.mul"),
    ("workloads", "add", "algebra.add"),
    ("workloads", "adjoint", "algebra.adjoint"),
    ("workloads", "equals", "algebra.equals"),
    ("workloads", "derive", "calculus.derive"),
    ("workloads", "d0", "calculus.d0"),
    ("workloads", "d1", "calculus.d1"),
    ("workloads", "load_metric", "geometry.load_metric"),
    ("workloads", "levi_civita", "geometry.levi_civita"),
    ("workloads", "christoffel", "geometry.christoffel"),
    ("workloads", "torsion", "geometry.residuals"),
    ("workloads", "unitarity_residual", "geometry.residuals"),
    ("workloads", "curvature", "curvature.curvature"),
    ("workloads", "curvature_operator", "curvature.contract"),
    ("workloads", "ricci", "curvature.contract"),
    ("workloads", "scalar_curvature", "curvature.contract"),
    ("workloads", "print_canonical", "exprs.print"),
    ("workloads", "cli_main", "cli.main"),
    ("cuntzgeo.cli", "parse_expr", "exprs.parse"),
    ("cuntzgeo.cli", "parse_alg", "exprs.parse"),
    ("cuntzgeo.cli", "print_canonical", "exprs.print"),
    ("cuntzgeo.cli", "print_tensor", "exprs.print"),
    ("cuntzgeo.cli", "derive", "calculus.derive"),
    ("cuntzgeo.cli", "differential", _differential_span),
    ("cuntzgeo.cli", "load_metric", "geometry.load_metric"),
    ("cuntzgeo.cli", "run_checks", "checks.run_checks"),
    ("cuntzgeo.checks", "derive", "calculus.derive"),
    ("cuntzgeo.checks", "d0", "calculus.d0"),
    ("cuntzgeo.checks", "levi_civita", "geometry.levi_civita"),
    ("cuntzgeo.checks", "torsion", "geometry.residuals"),
    ("cuntzgeo.checks", "unitarity_residual", "geometry.residuals"),
    ("cuntzgeo.checks", "print_canonical", "exprs.print"),
    ("cuntzgeo.curvature", "levi_civita", "geometry.levi_civita"),
    ("cuntzgeo.curvature", "curvature", "curvature.curvature"),
    ("cuntzgeo.curvature", "curvature_operator", "curvature.contract"),
    ("cuntzgeo.curvature", "ricci", "curvature.contract"),
    ("cuntzgeo.curvature", "scalar_curvature", "curvature.contract"),
    ("cuntzgeo.geometry", "solve_exact", "linsolve.solve_exact"),
)

MODULES = ("algebra", "calculus", "exprs", "geometry", "linsolve", "curvature",
           "checks", "cli")
SPLITS = ("geometry.levi_civita", "geometry.residuals", "linsolve.solve_exact",
          "curvature.curvature", "curvature.contract", "algebra.mul",
          "algebra.equals", "calculus.d0", "calculus.d1", "calculus.derive",
          "exprs.parse", "exprs.print", "checks.run_checks", "cli.main")
ROOT = "request"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.request: int | None = None

    def install(self) -> None:
        for module_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str, chars: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.request, chars])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, span):
        def traced(*args, **kwargs):
            if self.request is None:  # outside a request, e.g. in a check
                return fn(*args, **kwargs)
            name = span if isinstance(span, str) else span(*args)
            chars = len(args[0]) if args and isinstance(args[0], str) else 0
            idx = self._open(name, chars)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def run_request(self, rid: int, fn, *args):
        """Run one request under a root span."""
        self.request = rid
        idx = self._open(ROOT, 0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.request = None


def layer_metrics(spans: list[list], scale: list[float]) -> dict[str, float]:
    """Per-module and per-split self time, busy fraction and call counts.

    Each span's time is multiplied by ``scale[request]``: the share of its
    request's time not spent probing the host, over the host's speed factor
    while the request ran (see HostClock in run.py).
    """
    spans = [[name, start, start + (end - start) * scale[rid], parent, rid, n]
             for name, start, end, parent, rid, n in spans]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    chars: dict[str, int] = {}
    requests = request_ns = unattributed_ns = 0
    for k, (name, start, end, _, _, n) in enumerate(spans):
        own = end - start - child_ns[k]
        if name == ROOT:
            requests += 1
            request_ns += end - start
            unattributed_ns += own
            continue
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        chars[name] = chars.get(name, 0) + n
    ops = max(requests, 1)
    total = max(request_ns, 1)
    out: dict[str, float] = {}
    for module in MODULES:
        names = [s for s in self_ns if s.split(".", 1)[0] == module]
        ns = sum(self_ns[s] for s in names)
        out[f"{module}.self_ms_per_op"] = ns / 1e6 / ops
        out[f"{module}.busy_frac"] = ns / total
        out[f"{module}.calls_per_op"] = sum(calls[s] for s in names) / ops
    for split in SPLITS:
        out[f"{split}.self_ms_per_op"] = self_ns.get(split, 0) / 1e6 / ops
    parse_ns = self_ns.get("exprs.parse", 0)
    out["exprs.parse.kchar_per_s"] = (
        chars.get("exprs.parse", 0) / 1e3 / (parse_ns / 1e9) if parse_ns else 0.0)
    out["trace.request_ms_per_op"] = request_ns / 1e6 / ops
    out["trace.unattributed_frac"] = unattributed_ns / total
    return out
