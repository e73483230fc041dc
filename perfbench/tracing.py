"""Spans around calls into sparselb's layers, kept in memory.

Every top-level layer call, check and operation of a workload is one span
with a parent, so a layer's self time is its duration minus the time its
child spans cover.  A traced run also installs timing wrappers at the module
attributes through which the layers look up their inner helpers.  Those
calls number in the millions, so each is folded into a tally of calls, busy
time and self time, keyed by the layer of the enclosing top-level span.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from sparselb import des, fluid_async, fluid_sync

# (module, attribute, tally name).  des imports the policy functions into its
# own namespace and the integrators look up their right-hand sides and the
# switch bisection as module globals, so patching these attributes reaches
# every call.  fluid_async imports split_step_at_switch lazily from
# fluid_sync at each call, so one patch covers both integrators.
# fixed_point binds rhs_async at import time: residual evaluations inside
# y_star are not counted under fluid_async.
INNER = (
    (des, "dispatch", "policies.dispatch"),
    (des, "on_assign", "policies.bookkeeping"),
    (des, "on_update", "policies.bookkeeping"),
    (des, "apply_global_update", "policies.bookkeeping"),
    (des, "on_idle", "policies.bookkeeping"),
    (fluid_sync, "rhs_sync", "rhs"),
    (fluid_sync, "split_step_at_switch", "switch_split"),
    (fluid_async, "rhs_async", "rhs"),
)


class Tracer:
    """Spans are (id, parent id, kind, layer, name, start, end, self time);
    kind is "op", "layer" or "check"."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # (layer of the enclosing span, tally name) -> [calls, busy s, self s]
        self.tally: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = [[0.0, None]]  # frames: [child time, span id]
        self._layer = "none"
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, kind: str, layer: str, name: str):
        parent = self._stack[-1]
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        frame = [0.0, span_id]
        self._stack.append(frame)
        outer_layer = self._layer
        if kind != "op":
            self._layer = layer
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._layer = outer_layer
            self._stack.pop()
            parent[0] += end - start
            self.spans[span_id] = (
                span_id, parent[1], kind, layer, name, start, end, end - start - frame[0]
            )

    def call(self, layer: str, fn, *args, **kwargs):
        """One top-level call into a layer, recorded as a span."""
        with self.span("layer", layer, fn.__name__):
            return fn(*args, **kwargs)

    def install(self) -> None:
        for module, attr, name in INNER:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        stack, tally, perf = self._stack, self.tally, time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                stack[-1][0] += dur
                entry = tally[(self._layer, name)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]

        return timed

    # -- post-processing ---------------------------------------------------

    def busy(self, layer: str, name: str | None = None) -> float:
        """Total duration of the top-level spans of a layer (and name)."""
        return sum(
            s[6] - s[5]
            for s in self.spans
            if s[2] == "layer" and s[3] == layer and (name is None or s[4] == name)
        )

    def self_time(self, layer: str) -> float:
        return sum(s[7] for s in self.spans if s[2] == "layer" and s[3] == layer)

    def calls(self, layer: str, name: str | None = None) -> int:
        return sum(
            1
            for s in self.spans
            if s[2] == "layer" and s[3] == layer and (name is None or s[4] == name)
        )

    def covered(self) -> float:
        """Time inside layer calls and checks; they never nest in each other."""
        return sum(s[6] - s[5] for s in self.spans if s[2] in ("layer", "check"))

    def inner(self, layer: str | None, name: str) -> tuple[int, float, float]:
        """Summed (calls, busy, self) of a wrapped helper, optionally only
        inside the top-level spans of one layer."""
        calls, busy, own = 0, 0.0, 0.0
        for (outer, tally_name), (n, b, s) in self.tally.items():
            if tally_name == name and (layer is None or outer == layer):
                calls, busy, own = calls + n, busy + b, own + s
        return calls, busy, own

    def dump(self) -> dict:
        keys = ("id", "parent", "kind", "layer", "name", "start", "end", "self_s")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "tally": [
                {"layer": layer, "name": name, "calls": n, "busy_s": b, "self_s": s}
                for (layer, name), (n, b, s) in sorted(self.tally.items())
            ],
        }


def layer_metrics(tr: Tracer, counts: dict) -> dict:
    """Per-layer metrics of one traced pass.  counts carries what the
    workload counted from results: des.jobs and the ctmc sizes."""
    disp_calls, disp_busy, _ = tr.inner("des", "policies.dispatch")
    _, book_busy, _ = tr.inner("des", "policies.bookkeeping")
    out = {
        "des.busy_s": tr.busy("des"),
        "des.jobs": counts.get("des.jobs", 0),
        # The policy wrappers are the only children of des spans.
        "des.self_s": tr.self_time("des"),
        "policies.dispatch.calls": disp_calls,
        "policies.dispatch.busy_s": disp_busy,
        "policies.dispatch.us_per_call": 1e6 * disp_busy / disp_calls if disp_calls else 0.0,
        "policies.bookkeeping.busy_s": book_busy,
    }
    for layer in ("fluid_sync", "fluid_async"):
        busy = tr.busy(layer)
        evals = tr.inner(layer, "rhs")[0]
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.rhs_evals"] = evals
        out[f"{layer}.switch_splits"] = tr.inner(layer, "switch_split")[0]
        # Four right-hand-side evaluations make one RK4 step.
        out[f"{layer}.units_per_s"] = evals / 4 / busy if busy else 0.0
    solves = tr.calls("fixed_point", "y_star")
    out["fixed_point.calls"] = tr.calls("fixed_point")
    out["fixed_point.us_per_solve"] = (
        1e6 * tr.busy("fixed_point", "y_star") / solves if solves else 0.0
    )
    out["ctmc.states"] = counts.get("ctmc.states", 0)
    out["ctmc.nnz"] = counts.get("ctmc.nnz", 0)
    out["ctmc.generator_mb_computed"] = counts.get("ctmc.generator_mb_computed", 0.0)
    out["ctmc.build_s"] = tr.busy("ctmc", "build_generator")
    out["ctmc.solve_s"] = tr.busy("ctmc", "stationary")
    out["check.busy_s"] = sum(s[6] - s[5] for s in tr.spans if s[2] == "check")
    return out
