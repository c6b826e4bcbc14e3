"""Per-layer tracing from outside the program.

:class:`Tracer` wraps each layer's public entry points (listed in
:data:`TARGETS`) with span recorders. A span has a name, start, end,
parent and the id of the sweep phase it belongs to; spans stay in
memory while the workload runs and are written as JSONL at the end.
The program's own ``repro.telemetry`` is left at its default (off) and
none of its counters are read.

A target that no longer exists is recorded as missing and the metrics
built on it are left out of the report; the workload itself never
notices.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import os
import statistics
import time
from pathlib import Path

# (span name, module, class or None for a module function or "*" for
# every class in the module that defines the attribute itself, attribute)
TARGETS = (
    ("thermal.assemble", "repro.sim.system", None, "build_network"),
    ("thermal.lu", "scipy.sparse.linalg", None, "splu"),
    ("thermal.gmres", "scipy.sparse.linalg", None, "gmres"),
    ("thermal.step", "repro.thermal.solver", "TransientSolver", "step"),
    ("thermal.step", "repro.thermal.solver", "KrylovTransientSolver", "step"),
    ("thermal.steady", "repro.thermal.solver", "SteadyStateSolver", "solve"),
    ("thermal.steady", "repro.thermal.solver", "SteadyStateSolver", "solve_many"),
    ("thermal.steady", "repro.thermal.solver", "KrylovSteadySolver", "solve"),
    ("thermal.steady", "repro.thermal.solver", "KrylovSteadySolver", "solve_many"),
    ("sim.system.lookup", "repro.sim.engine", None, "system_for"),
    ("sim.system.lookup", "repro.sim.cache", None, "system_for"),
    ("sim.system.build", "repro.sim.system", "ThermalSystem", "__init__"),
    ("sim.characterize.table", "repro.sim.cache", "CharacterizationCache", "table"),
    ("sim.characterize.floor", "repro.sim.cache", "CharacterizationCache", "floor"),
    ("sim.init", "repro.sim.system", "ThermalSystem", "initial_temperatures"),
    ("sim.run", "repro.sim.engine", "Simulator", "run"),
    ("sim.interval", "repro.sim.engine", "Simulator", "step"),
    ("sched.dispatch", "repro.sched", "*", "dispatch_target"),
    ("sched.rebalance", "repro.sched", "*", "rebalance"),
    ("sched.weights", "repro.sched.weights", "ThermalWeights", "from_network"),
    ("power.unit_power", "repro.power.components", "PowerModel", "unit_power_vector"),
    ("power.dpm", "repro.power.dpm", "DpmPolicy", "observe"),
    ("power.dpm", "repro.power.dpm", "DpmPolicy", "wake"),
    ("control.update", "repro.control.controller", "FlowRateController", "update"),
    ("control.update", "repro.control.stepwise", "StepwiseFlowController", "update"),
    ("control.update", "repro.control.pid", "PidFlowController", "update"),
    ("control.forecast", "repro.control.forecaster", "*", "observe"),
    ("control.forecast", "repro.control.forecaster", "*", "predict"),
    ("control.arma_fit", "repro.control.arma", "ArmaModel", "fit"),
    ("facility.advance", "repro.facility.loop", "*", "advance"),
    ("workload.trace", "repro.sim.cache", "CharacterizationCache", "thread_trace"),
    ("sweep.fold", "repro.sweep.runner", "FoldReducer", "__call__"),
    ("sweep.fold", "repro.sweep.aggregate", "*", "update_payload"),
    ("io.jsonl.append", "repro.io.jsonl", "JsonlAppender", "append"),
    ("io.csv.write", "repro.io.sweep", "SweepCsvWriter", "write"),
)

# The harness's own phase spans (roots of the span tree).
SETUP = "phase.setup"
CAMPAIGN = "phase.campaign"


def _digest(matrix) -> str:
    """sha256 of a sparse matrix's CSC arrays (the matrix's identity)."""
    csc = matrix.tocsc()
    h = hashlib.sha256()
    h.update(repr(csc.shape).encode())
    for array in (csc.indptr, csc.indices, csc.data):
        h.update(array.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans around the wrapped entry points while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.trace_id = ""
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._stack: list[dict] = []
        self._seen_matrices: set[str] = set()
        self._epoch = time.perf_counter()

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self._epoch,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._epoch
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str, trace_id: str):
        """A harness phase span (set-up or campaign); its id tags every
        span opened inside it."""
        self.trace_id = trace_id
        span = self._open(name) if self.active else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, owner, attr: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Re-entry into the same layer (a subclass calling super(),
            # one wrapped method calling another) stays one span.
            if not tracer.active or (
                tracer._stack and tracer._stack[-1]["name"] == name
            ):
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after:
                after(span, state, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for name, module_name, cls, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(name)
                continue
            if cls is None:
                owners = [module] if hasattr(module, attr) else []
            elif cls == "*":
                owners = [
                    obj
                    for obj in vars(module).values()
                    if inspect.isclass(obj) and attr in vars(obj)
                ]
            else:
                owner = getattr(module, cls, None)
                owners = [owner] if owner is not None and attr in vars(owner) else []
            if not owners:
                self.missing.add(name)
            for owner in owners:
                self._wrap(name, owner, attr)

    # --- per-layer attributes measured outside the span ---------------------

    def _after_thermal_lu(self, span, state, args, kwargs, lu):
        digest = _digest(args[0] if args else kwargs["A"])
        span["duplicate"] = digest in self._seen_matrices
        self._seen_matrices.add(digest)
        span["nnz"] = int(lu.L.nnz + lu.U.nnz)

    def _before_thermal_gmres(self, args, kwargs):
        # Count iterations through the caller's own callback, leaving the
        # solve's arguments otherwise untouched.
        counter = {"iters": 0}
        callback = kwargs.get("callback")
        if callback is not None:
            def counting(*cb_args):
                counter["iters"] += 1
                return callback(*cb_args)

            kwargs["callback"] = counting
        return counter

    def _after_thermal_gmres(self, span, counter, args, kwargs, result):
        span["iters"] = counter["iters"]

    @staticmethod
    def _journal_size(appender) -> int:
        path = getattr(appender, "path", None)
        return os.path.getsize(path) if path is not None and os.path.exists(path) else 0

    def _before_io_jsonl_append(self, args, kwargs):
        return self._journal_size(args[0])

    def _after_io_jsonl_append(self, span, size_before, args, kwargs, result):
        span["bytes"] = self._journal_size(args[0]) - size_before

    # --- export --------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """Every span with its self time (duration minus its children's)."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None and "end" in span:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        with open(path, "w") as out:
            for span in self.spans:
                if "end" not in span:
                    continue
                record = dict(span)
                record["self"] = (span["end"] - span["start"]) - child_time.get(
                    span["id"], 0.0
                )
                out.write(json.dumps(record, separators=(",", ":")) + "\n")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics (``per_layer`` in BENCHMARK.json) over the
        spans recorded; metrics on a missing layer are left out."""
        by_name: dict[str, list[dict]] = {}
        for span in self.spans:
            if "end" in span:
                by_name.setdefault(span["name"], []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def seconds(name):
            return sum((s["end"] - s["start"] for s in spans(name)), 0.0)

        def total(name, attr):
            return sum(s.get(attr, 0) for s in spans(name))

        intervals_ms = [1e3 * (s["end"] - s["start"]) for s in spans("sim.interval")]

        def percentile(p):
            if len(intervals_ms) < 2:
                return intervals_ms[0] if intervals_ms else 0.0
            return statistics.quantiles(intervals_ms, n=100, method="inclusive")[p - 1]

        campaign = spans(CAMPAIGN)
        campaign_ids = {s["id"] for s in campaign}
        run_in_campaign = sum(
            (
                s["end"] - s["start"]
                for s in spans("sim.run")
                if _ancestor_in(s, campaign_ids, self.spans)
            ),
            0.0,
        )
        values = {
            "thermal.assemble.count": ("thermal.assemble", len(spans("thermal.assemble"))),
            "thermal.assemble.s": ("thermal.assemble", seconds("thermal.assemble")),
            "thermal.lu.count": ("thermal.lu", len(spans("thermal.lu"))),
            "thermal.lu.s": ("thermal.lu", seconds("thermal.lu")),
            "thermal.lu.duplicate": ("thermal.lu", total("thermal.lu", "duplicate")),
            "thermal.lu.nnz": ("thermal.lu", total("thermal.lu", "nnz")),
            "thermal.step.count": ("thermal.step", len(spans("thermal.step"))),
            "thermal.step.s": ("thermal.step", seconds("thermal.step")),
            "thermal.steady.count": ("thermal.steady", len(spans("thermal.steady"))),
            "thermal.steady.s": ("thermal.steady", seconds("thermal.steady")),
            "thermal.gmres.count": ("thermal.gmres", len(spans("thermal.gmres"))),
            "thermal.gmres.s": ("thermal.gmres", seconds("thermal.gmres")),
            "thermal.gmres.iters": ("thermal.gmres", total("thermal.gmres", "iters")),
            "sim.system.lookups": ("sim.system.lookup", len(spans("sim.system.lookup"))),
            "sim.system.builds": ("sim.system.build", len(spans("sim.system.build"))),
            "sim.characterize.table.s": (
                "sim.characterize.table", seconds("sim.characterize.table")
            ),
            "sim.characterize.floor.s": (
                "sim.characterize.floor", seconds("sim.characterize.floor")
            ),
            "sim.init.count": ("sim.init", len(spans("sim.init"))),
            "sim.init.s": ("sim.init", seconds("sim.init")),
            "sim.run.count": ("sim.run", len(spans("sim.run"))),
            "sim.run.s": ("sim.run", seconds("sim.run")),
            "sim.interval.count": ("sim.interval", len(intervals_ms)),
            "sim.interval.p50_ms": ("sim.interval", percentile(50)),
            "sim.interval.p99_ms": ("sim.interval", percentile(99)),
            "sched.dispatch.s": ("sched.dispatch", seconds("sched.dispatch")),
            "sched.rebalance.s": ("sched.rebalance", seconds("sched.rebalance")),
            "sched.weights.count": ("sched.weights", len(spans("sched.weights"))),
            "sched.weights.s": ("sched.weights", seconds("sched.weights")),
            "power.unit_power.s": ("power.unit_power", seconds("power.unit_power")),
            "power.dpm.s": ("power.dpm", seconds("power.dpm")),
            "control.update.s": ("control.update", seconds("control.update")),
            "control.forecast.s": ("control.forecast", seconds("control.forecast")),
            "control.arma_fit.count": ("control.arma_fit", len(spans("control.arma_fit"))),
            "facility.advance.count": ("facility.advance", len(spans("facility.advance"))),
            "facility.advance.s": ("facility.advance", seconds("facility.advance")),
            "workload.trace.s": ("workload.trace", seconds("workload.trace")),
            "runner.overhead.s": ("sim.run", seconds(CAMPAIGN) - run_in_campaign),
            "sweep.fold.s": ("sweep.fold", seconds("sweep.fold")),
            "io.jsonl.append.count": ("io.jsonl.append", len(spans("io.jsonl.append"))),
            "io.jsonl.append.s": ("io.jsonl.append", seconds("io.jsonl.append")),
            "io.jsonl.bytes": ("io.jsonl.append", total("io.jsonl.append", "bytes")),
            "io.csv.rows": ("io.csv.write", len(spans("io.csv.write"))),
        }
        return {
            metric: value
            for metric, (layer, value) in values.items()
            if layer not in self.missing
        }


def _ancestor_in(span: dict, ids: set, spans: list[dict]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if parent in ids:
            return True
        parent = spans[parent]["parent"]
    return False
