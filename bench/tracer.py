"""Span tracer for the gauduchon layers, installed from outside the package.

`Tracer.install()` wraps every function that ``gauduchon/__init__.py``
exports, plus the CLI entry points, by rebinding each name in every
``gauduchon.*`` module namespace that holds it.  Rebinding every holder is
needed because ``cli`` and ``curvature`` import names directly, and a call
inside a module looks the name up in that module's globals.  Private helpers
(the per-point caches among them) are not wrapped, so their cost lands in the
self time of the public function that first needs them.

Each call becomes one span ``(name, start, end, parent, invocation, cold)``
held in memory; `write()` puts them on disk once the run is over.  A span is
cold when it is the first call of its function on its (chart, point) in the
invocation, where the chart is the first argument and the point is the
argument named ``z``.  `uninstall()` restores every original binding, so
untraced invocations run the package unmodified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "catalog", "conformal", "curvature", "connection", "wjet")
CLI_ENTRY_POINTS = ("main", "run_suite", "scan_ts", "hsc_payload",
                    "curv_payload")


def _targets() -> dict:
    """Functions to trace: the package exports plus the CLI entry points."""
    import gauduchon
    import gauduchon.cli as cli

    funcs = [v for v in vars(gauduchon).values() if inspect.isfunction(v)]
    funcs += [getattr(cli, name) for name in CLI_ENTRY_POINTS]
    out = {}
    for f in funcs:
        layer = f.__module__.rpartition(".")[2]
        if layer in LAYERS:
            out[f] = f"{layer}.{f.__name__}"
    return out


class Tracer:
    """Records one span per call of a traced function.

    Call `begin(invocation)` before each traced invocation; spans of one
    invocation share its id.
    """

    def __init__(self):
        self.names: list[str] = []      # span name by function id
        self.spans: list = []           # (fid, start, end, parent, inv, cold)
        self.invocation = -1
        self._stack = [-1]
        self._seen: set = set()
        self.points: dict[int, set] = defaultdict(set)
        self._saved: list = []
        self._wrappers: dict = {}

    # -- installation -------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            self._wrappers = self._build_wrappers()
        for modname, module in list(sys.modules.items()):
            if modname != "gauduchon" and not modname.startswith("gauduchon."):
                continue
            space = vars(module)
            for attr, value in list(space.items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._saved.append((space, attr, value))
                    space[attr] = self._wrappers[value]

    def _build_wrappers(self) -> dict:
        from gauduchon.connection import MetricChart

        wrappers = {}
        for func, name in _targets().items():
            params = list(inspect.signature(func).parameters)
            point_arg = params.index("z") if "z" in params else None
            self.names.append(name)
            wrappers[func] = self._wrap(len(self.names) - 1, func, point_arg,
                                        MetricChart)
        return wrappers

    def uninstall(self):
        for space, attr, value in self._saved:
            space[attr] = value
        self._saved.clear()

    def _wrap(self, fid, func, point_arg, chart_type):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            cold = None
            if point_arg is not None:
                z = args[point_arg] if len(args) > point_arg else kwargs.get("z")
                if z is not None:
                    target = args[0] if args else None
                    key = (id(target), np.asarray(z, dtype=complex).tobytes())
                    cold = (fid, key) not in self._seen
                    if cold:
                        self._seen.add((fid, key))
                    if isinstance(target, chart_type):
                        self.points[self.invocation].add(key)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.invocation, cold)

        return traced

    def begin(self, invocation: int):
        self.invocation = invocation
        self._seen.clear()

    # -- results ------------------------------------------------------

    def per_invocation(self) -> dict:
        """Per invocation: calls and self seconds by span name, self seconds
        split cold/warm, the span total and the distinct (chart, point)
        count.  Self time is a span's duration minus its direct children's,
        so the self times of one invocation sum to its root spans."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, inv, cold in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (fid, start, end, parent, inv, cold) in enumerate(self.spans):
            agg = out.get(inv)
            if agg is None:
                agg = out[inv] = {
                    "calls": Counter(), "self_s": Counter(),
                    "cold_self_s": Counter(), "warm_self_s": Counter(),
                    "total_s": 0.0,
                    "points": len(self.points.get(inv, ()))}
            name = self.names[fid]
            own = end - start - child[idx]
            agg["calls"][name] += 1
            agg["self_s"][name] += own
            agg["total_s"] += own
            if cold is not None:
                agg["cold_self_s" if cold else "warm_self_s"][name] += own
        return out

    def write(self, path):
        """Write every span as CSV: invocation, span index, parent index,
        name, start, end (perf_counter seconds) and cold (1, 0 or empty)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("invocation,span,parent,name,start,end,cold\n")
            for idx, (fid, start, end, parent, inv, cold) in enumerate(self.spans):
                flag = "" if cold is None else int(cold)
                fh.write(f"{inv},{idx},{parent},{self.names[fid]},"
                         f"{start!r},{end!r},{flag}\n")
