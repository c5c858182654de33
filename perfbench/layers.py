"""Per-layer timing for the traced benchmark run.

The benchmark attributes time to the program's layers without changing the
program: :func:`probes` names the public call of each layer, and
:class:`LayerRecorder` swaps a timing wrapper in for each of them while a
traced repetition runs (:meth:`LayerRecorder.installed`), then puts the
originals back.  A module-level function is replaced in every ``repro``
module that holds a reference to it, so calls through re-exports and
``from ... import`` bindings are timed alike.

Each call is recorded with its wall time and its self time (wall time minus
the time of the probed calls nested inside it, on the same thread).  The
top-level calls' intervals give the share of a repetition that no layer call
covers (``obs.unattributed_pct``).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Probe:
    """One public call timed as a layer call.

    ``name`` is the layer-qualified call name, or a function of the call's
    arguments returning it (``SweepService.query`` is split by request
    kind).  ``counters`` maps ``(args, kwargs, result)`` to counts added to
    the call's totals, such as the layer rows a pack produced.
    """

    owner: Any
    attr: str
    name: str | Callable[..., str]
    counters: Callable[..., dict[str, float]] | None = None


@dataclass
class CallStats:
    """Totals of every recorded call that shared one name."""

    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


class LayerRecorder:
    """Records the probed calls made while its probes are installed."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self.intervals: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def get(self, name: str) -> CallStats:
        return self.stats.get(name) or CallStats()

    def covered_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` during which some top-level call ran."""
        covered = 0.0
        cursor = start
        for begin, finish in sorted(self.intervals):
            begin, finish = max(begin, cursor), min(finish, end)
            if finish > begin:
                covered += finish - begin
                cursor = finish
        return covered

    # ------------------------------------------------------------------ #
    def _record(self, name, started, wall, child, counters, top_level) -> None:
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = CallStats()
            entry.calls += 1
            entry.wall_s += wall
            entry.self_s += max(wall - child, 0.0)
            entry.durations.append(wall)
            for key, value in counters.items():
                entry.counters[key] = entry.counters.get(key, 0.0) + value
            if top_level:
                self.intervals.append((started, started + wall))

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        recorder = self

        def resolve(args, kwargs, result):
            name = probe.name(*args, **kwargs) if callable(probe.name) else probe.name
            counters = probe.counters(args, kwargs, result) if probe.counters else {}
            return name, counters

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread, so they are recorded as
            # top-level intervals without nesting.
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                started = time.perf_counter()
                result = await fn(*args, **kwargs)
                wall = time.perf_counter() - started
                name, counters = resolve(args, kwargs, result)
                recorder._record(name, started, wall, 0.0, counters, True)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # One entry per open probed call on this thread: the seconds its
            # nested probed calls took so far.
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                child = stack.pop()
                if stack:
                    stack[-1] += wall
            name, counters = resolve(args, kwargs, result)
            recorder._record(name, started, wall, child, counters, not stack)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, probe_list: list[Probe]):
        """Time every call of *probe_list* for the duration of the block."""
        restore: list[tuple[Any, str, Any]] = []
        try:
            for probe in probe_list:
                restore.extend(self._install(probe))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _install(self, probe: Probe) -> list[tuple[Any, str, Any]]:
        owner, attr = probe.owner, probe.attr
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(probe, raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(probe, raw.__func__))
            elif isinstance(raw, property):
                patched = property(self._wrap(probe, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                patched = self._wrap(probe, raw)
            setattr(owner, attr, patched)
            return [(owner, attr, raw)]
        original = getattr(owner, attr)
        patched = self._wrap(probe, original)
        restore = []
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, patched)
                    restore.append((module, key, original))
        return restore


def probes() -> list[Probe]:
    """The public call of every layer the benchmark attributes time to."""
    from repro import (
        BatchSimulator,
        GraphTable,
        HardwareFrontier,
        LayerTable,
        LearnedPerformanceModel,
        MeasurementStore,
        NASBenchDataset,
        SweepService,
    )
    from repro.nasbench import generator, network

    def grid_counts(args, kwargs, result):
        table, configs = args[1], args[2]
        return {
            "evals": len(configs) * table.num_models,
            "rows": len(configs) * table.num_layers,
        }

    return [
        Probe(generator, "sample_unique_cells", "nasbench.sample"),
        Probe(NASBenchDataset, "from_cells", "nasbench.records"),
        Probe(network, "build_network", "nasbench.expand"),
        Probe(
            LayerTable,
            "from_networks",
            "nasbench.pack",
            lambda args, kwargs, result: {"rows": result.num_layers},
        ),
        Probe(BatchSimulator, "evaluate_table_grid", "simulator.grid", grid_counts),
        Probe(BatchSimulator, "evaluate_cells", "simulator.cells"),
        Probe(MeasurementStore, "extend", "store.extend"),
        Probe(MeasurementStore, "compact", "store.compact"),
        Probe(MeasurementStore, "load", "store.load"),
        Probe(SweepService, "query", lambda self, request: f"query.{request.kind}"),
        Probe(SweepService, "store_digest", "query.digest"),
        Probe(GraphTable, "from_cells", "core.graph_pack"),
        Probe(LearnedPerformanceModel, "fit_table", "core.fit"),
        Probe(
            LearnedPerformanceModel,
            "predict_cells",
            "core.predict",
            lambda args, kwargs, result: {"cells": len(args[1])},
        ),
        Probe(HardwareFrontier, "summarize", "hwspace.summarize"),
        Probe(HardwareFrontier, "pareto", "hwspace.pareto"),
    ]


def client_probes() -> list[Probe]:
    """The serving round trip, timed from the client's side."""
    from repro.server import ServiceClient

    return [Probe(ServiceClient, "query", "server.round_trip")]
