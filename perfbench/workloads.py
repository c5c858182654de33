"""The benchmark's workloads: inputs from a seed, the timed part, the checks.

Every workload drives the program only through public ``repro`` calls.  Its
inputs (population seed, held-out cells, configuration grid, request stream)
are generated from ``--seed`` before timing.  See README.md in this
directory for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    grid_digest,
    oracle_mismatches,
    pinned_mismatch,
    same_result,
    served_mismatches,
)
from hostspeed import HostSpeed
from layers import LayerRecorder, client_probes, probes

#: Length, in seconds, of the slices an untraced serving window is cut into.
SLICE_S = 0.25

#: How strongly each ``serve`` figure follows the host's slowdown (see
#: hostspeed.py): the power of the serving window's slowdown it is scaled
#: by.  The median request is CPU work.  The 99th percentile is a prediction
#: waiting out the batcher's 5 ms timer, and the request rate mixes the two.
#: Fitted on raw figures of runs whose median slowdown was 0.95 and 1.7; every
#: other time of the benchmark is CPU work on one thread, scaled by the
#: slowdown itself.
SERVE_ELASTICITY = {"throughput_per_s": 0.75, "latency_ms": 1.0, "latency_tail_ms": 0.3}

#: Seed at which the full-size output digests are pinned.
DEFAULT_SEED = 0

CONFIG_NAMES = ("V1", "V2", "V3")

#: The 324-point accelerator grid of ``hw_grid`` (around V1).
GRID_AXES = {
    "clock_mhz": (800, 1066, 1250),
    "pes_x": (2, 4, 8),
    "pes_y": (2, 4, 8),
    "cores_per_pe": (2, 4),
    "compute_lanes": (32, 64),
    "pe_memory_bytes": (1 << 20, 2 << 20, 4 << 20),
}

#: Layers that build the population and the served state.  Where set-up
#: builds them (``hw_grid``, ``serve``) their metrics come from the set-up.
SETUP_LAYERS = (
    "nasbench.sample",
    "nasbench.records",
    "store.extend",
    "store.compact",
    "store.load",
    "query.digest",
    "core.graph_pack",
    "core.fit",
)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale (``tiny`` exists for the tests)."""

    population: int
    held_out: int
    grid_population: int
    serve_pool: int
    stream: int
    setups: int


SCALES = {
    "full": Scale(
        population=250, held_out=40, grid_population=300, serve_pool=64, stream=40_000, setups=3
    ),
    "tiny": Scale(
        population=40, held_out=12, grid_population=16, serve_pool=8, stream=2_000, setups=2
    ),
}


class Ops:
    """Counts and times the program calls a timed part makes.

    ``busy_s`` adds up the time spent inside the calls.  With ``host`` set,
    the host's speed is sampled before every call.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.host: HostSpeed | None = None

    def __call__(self, fn, *args, **kwargs):
        if self.host is not None:
            self.host.sample()
        self.attempted += 1
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.busy_s += time.perf_counter() - started


@dataclass
class Result:
    """What one run measured, before it is printed."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The end-to-end times before scaling to the nominal host speed.
    raw: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    context: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def derived_seed(seed: int, stream: int) -> int:
    """An independent integer seed for one input stream of a workload."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def held_out_cells(dataset, count: int, seed: int) -> list:
    """*count* sampled cells whose pruned fingerprints are not in *dataset*."""
    from repro import sample_unique_cells

    draw = count
    while True:
        draw += count
        cells = [c for c in sample_unique_cells(draw, seed=seed) if c not in dataset]
        if len(cells) >= count:
            return cells[:count]


def studied_configs():
    from repro import get_config

    return [get_config(name) for name in CONFIG_NAMES]


def directory_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def mape_pct(predicted, simulated) -> float:
    predicted, simulated = np.asarray(predicted, float), np.asarray(simulated, float)
    return float(np.mean(np.abs(predicted - simulated) / simulated) * 100.0)


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def median_ms(durations) -> float:
    return median(durations) * 1e3


def tail_percentile(samples: int) -> float:
    """The highest percentile, up to 99, with at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median has ten
    beyond it, and the median is used.
    """
    return min(99.0, max(50.0, 100.0 * (1 - 10 / samples)))


def latency_figures(durations) -> dict[str, float]:
    return {
        "latency_ms": median_ms(durations),
        "latency_tail_ms": float(np.percentile(durations, tail_percentile(len(durations)))) * 1e3,
    }


def timed_setups(setup, count: int, host: HostSpeed, *args):
    """Set up *count* times; the last inputs and the median raw and scaled times."""
    raw, scaled = [], []
    for _ in range(count):
        inputs, wall, wall_scaled = host.timed(setup, *args)
        raw.append(wall)
        scaled.append(wall_scaled)
    return inputs, median(raw), median(scaled)


def layer_values(recorder: LayerRecorder, architectures: int) -> dict[str, float]:
    """Per-layer figures of the calls one recorder saw."""
    get = recorder.get
    expand, pack, grid = get("nasbench.expand"), get("nasbench.pack"), get("simulator.grid")
    predict, digest = get("core.predict"), get("query.digest")
    rows = grid.counters.get("rows", 0.0)
    return {
        "nasbench.sample_s": get("nasbench.sample").wall_s,
        "nasbench.records_s": get("nasbench.records").wall_s,
        "nasbench.expand_s": expand.wall_s,
        "nasbench.pack_s": pack.wall_s,
        "nasbench.layer_rows": pack.counters.get("rows", 0.0),
        "nasbench.expansions_per_model": expand.calls / architectures if architectures else 0.0,
        "simulator.grid_s": grid.wall_s,
        "simulator.evals": grid.counters.get("evals", 0.0),
        "simulator.rows_per_s": rows / grid.wall_s if grid.wall_s else 0.0,
        "store.extend_self_s": get("store.extend").self_s,
        "store.compact_s": get("store.compact").wall_s,
        "store.load_s": get("store.load").wall_s,
        "query.top_k_ms": median_ms(get("query.top_k").durations),
        "query.pareto_ms": median_ms(get("query.pareto").durations),
        "query.metric_ms": median_ms(get("query.metric").durations),
        "query.predict_ms": median_ms(get("query.predict").durations),
        "query.digest_s": digest.durations[0] if digest.durations else 0.0,
        "core.graph_pack_s": get("core.graph_pack").wall_s,
        "core.fit_s": get("core.fit").wall_s,
        "core.predict_ms": median_ms(predict.durations),
        "core.cells_per_predict": (
            predict.counters.get("cells", 0.0) / predict.calls if predict.calls else 0.0
        ),
        "hwspace.summarize_s": get("hwspace.summarize").wall_s + get("hwspace.pareto").wall_s,
    }


def store_values(store) -> dict[str, float]:
    return {
        "store.pairs_simulated": float(store.stats.pairs_simulated),
        "store.pairs_loaded": float(store.stats.pairs_loaded),
        "store.bytes_written": float(directory_bytes(store.root)),
    }


def merge_phases(setup: dict, timed: dict) -> dict:
    """Timed figures, with set-up figures for the :data:`SETUP_LAYERS`."""
    merged = dict(timed)
    for name, value in setup.items():
        if name.startswith(SETUP_LAYERS):
            merged[name] = value
    return merged


def median_values(dicts: list[dict]) -> dict:
    return {key: median([d[key] for d in dicts]) for key in dicts[0]}


class Tracing:
    """Switches the program's own tracing (``REPRO_TRACE``) on and off."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def __enter__(self):
        from repro import obs

        os.environ["REPRO_TRACE"] = "1"
        os.environ["REPRO_TRACE_DIR"] = str(self.directory)
        obs.configure_tracing(True)
        return self

    def __exit__(self, *exc_info):
        from repro import obs

        self.spans = obs.span_breakdown()
        obs.configure_tracing(None)
        os.environ.pop("REPRO_TRACE", None)
        os.environ.pop("REPRO_TRACE_DIR", None)
        return False


def timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


class Workload:
    """Sizes, seed and scratch directory shared by the three workloads."""

    name = ""
    #: Whether set-up builds the population and served state, so that the
    #: :data:`SETUP_LAYERS` figures are taken from it.
    state_in_setup = True

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale, self.seed, self.workdir = scale, seed, workdir
        self.dirs = 0

    def fresh_dir(self) -> Path:
        """A new, empty store directory under the run's scratch directory."""
        self.dirs += 1
        return self.workdir / f"{self.name}-{self.dirs}"

    def pinned(self) -> bool:
        """Whether this run's output digests are pinned in ``checks.py``."""
        return self.scale is SCALES["full"] and self.seed == DEFAULT_SEED

    def oracle_picks(self, size: int, configs) -> list:
        """Seeded (model index, config) pairs for the scalar-oracle check."""
        rng = np.random.default_rng(derived_seed(self.seed, 2))
        return [
            (int(index), config)
            for index in rng.choice(size, size=2, replace=False)
            for config in configs
        ]


# ---------------------------------------------------------------------- #
# Batch workloads: paper_sweep and hw_grid
# ---------------------------------------------------------------------- #
class PaperSweep(Workload):
    """The paper's experiment, cold: sample, sweep V1/V2/V3, store, query, predict."""

    name = "paper_sweep"
    state_in_setup = False

    def prepare(self):
        """The held-out cells, drawn once before any set-up or timing."""
        from repro import NASBenchDataset

        population = NASBenchDataset.generate(self.scale.population, seed=self.seed)
        held = held_out_cells(population, self.scale.held_out, derived_seed(self.seed, 1))
        return {"held_out": held, "configs": studied_configs()}

    def setup(self, prepared):
        """Nothing: the experiment starts cold, so set-up is only the import."""
        return dict(prepared)

    def work_units(self, inputs) -> int:
        return self.scale.population

    def architectures(self, inputs) -> int:
        return self.scale.population + len(inputs["held_out"])

    def run_once(self, inputs, ops: Ops):
        from repro import (
            BatchSimulator,
            MeasurementStore,
            NASBenchDataset,
            ParetoRequest,
            PredictRequest,
            SweepService,
            TopKRequest,
        )

        configs, held = inputs["configs"], inputs["held_out"]
        dataset = ops(NASBenchDataset.generate, self.scale.population, seed=self.seed)
        store = MeasurementStore(self.fresh_dir())
        ops(store.extend, dataset, configs=configs)
        ops(store.compact, dataset, configs=configs)
        service = ops(SweepService, store, dataset, configs=[c.name for c in configs])
        ops(service.query, TopKRequest(k=10))
        for config in configs:
            ops(service.query, ParetoRequest(config.name))
        predicted = ops(service.query, PredictRequest(tuple(held), configs[0].name))
        simulated, _ = ops(BatchSimulator().evaluate_cells, held, configs[0])
        return {
            "dataset": dataset,
            "store": store,
            "service": service,
            "predicted": predicted.result["values"],
            "simulated": simulated,
        }

    def check(self, inputs, out) -> tuple[list[str], dict]:
        dataset, service = out["dataset"], out["service"]
        problems = [
            f"held-out cell {index} is in the population"
            for index, cell in enumerate(inputs["held_out"])
            if cell in dataset
        ]
        picks = self.oracle_picks(len(dataset), inputs["configs"])
        problems += oracle_mismatches(dataset, service.measurements, picks)
        digest = service.store_digest
        if self.pinned():
            problems += pinned_mismatch(self.name, digest)
        facts = {
            "digest": digest,
            "core.predictor_mape_pct": mape_pct(out["predicted"], out["simulated"]),
            **store_values(out["store"]),
        }
        shutil.rmtree(out["store"].root, ignore_errors=True)
        return problems, facts


class HwGrid(Workload):
    """Design-space exploration: a 324-point grid over a warm population."""

    name = "hw_grid"

    def prepare(self):
        from repro import EDGE_TPU_V1, AcceleratorSpace

        return {"configs": list(AcceleratorSpace(GRID_AXES, base=EDGE_TPU_V1).enumerate())}

    def setup(self, prepared):
        from repro import HardwareFrontier, NASBenchDataset

        configs = prepared["configs"]
        dataset = NASBenchDataset.generate(self.scale.grid_population, seed=self.seed)
        frontier = HardwareFrontier(dataset)
        frontier.sweep(configs)  # warm-up: lazy imports and first-call costs
        return {"dataset": dataset, "configs": configs, "frontier": frontier}

    def work_units(self, inputs) -> int:
        return len(inputs["dataset"]) * len(inputs["configs"])

    def architectures(self, inputs) -> int:
        return len(inputs["dataset"])

    def run_once(self, inputs, ops: Ops):
        from repro import HardwareFrontier
        from repro.hwspace import COST_PROXIES

        frontier, configs = inputs["frontier"], inputs["configs"]
        measurements = ops(frontier.sweep, configs)
        points = ops(frontier.summarize, configs, measurements)
        fronts = {cost: ops(HardwareFrontier.pareto, points, cost=cost) for cost in COST_PROXIES}
        return {"measurements": measurements, "fronts": fronts}

    def check(self, inputs, out) -> tuple[list[str], dict]:
        dataset, configs = inputs["dataset"], inputs["configs"]
        corners = (configs[0], configs[len(configs) // 2], configs[-1])
        problems = oracle_mismatches(
            dataset, out["measurements"], self.oracle_picks(len(dataset), corners)
        )
        digest = grid_digest(out["measurements"], configs, out["fronts"])
        if self.pinned():
            problems += pinned_mismatch(self.name, digest)
        if "digest" in inputs and inputs["digest"] != digest:
            problems.append(f"{self.name}: repetitions disagree ({inputs['digest']} vs {digest})")
        inputs["digest"] = digest
        return problems, {"digest": digest}


def batch_figures(units: int, times) -> dict[str, float]:
    """Work per second at the median repetition time, and the repetition latencies."""
    return {"throughput_per_s": units / median(times), **latency_figures(times)}


def run_batch(workload, scale: Scale, seconds: float, trace: bool, workdir: Path,
              host: HostSpeed) -> Result:
    """Repeat the timed part until *seconds* have been measured.

    Untraced, *host* is sampled around every set-up and before every program
    call; a repetition's time is the time inside its program calls.
    """
    result, ops, facts, unattributed = Result(), Ops(), [], []

    def measure(inputs, recorder=None) -> float:
        """Run one repetition and return its wall time."""
        if recorder is None:
            out, wall = timed(workload.run_once, inputs, ops)
        else:
            with Tracing(workdir / "trace") as tracing, recorder.installed(probes()):
                started = time.perf_counter()
                out, wall = timed(workload.run_once, inputs, ops)
            result.context["program_spans"] = tracing.spans
            covered = recorder.covered_s(started, started + wall)
            unattributed.append(100.0 * (1 - covered / wall))
        problems, fact = workload.check(inputs, out)
        result.problems += problems
        facts.append(fact)
        return wall

    prepared = workload.prepare()
    if not trace:
        inputs, setup_s, setup_scaled = timed_setups(workload.setup, scale.setups, host, prepared)
        ops.host = host
        walls, scaled = [], []
        while not walls or sum(walls) < seconds:
            since, busy = len(host.samples), ops.busy_s
            measure(inputs)
            host.sample()
            walls.append(ops.busy_s - busy)
            scaled.append(host.scale(walls[-1], since))
        units = workload.work_units(inputs)
        result.end_to_end = {"setup_s": setup_scaled, **batch_figures(units, scaled)}
        result.raw = {"setup_s": setup_s, **batch_figures(units, walls)}
        result.context["latency_samples"] = len(walls)
        result.context["tail_percentile"] = tail_percentile(len(walls))
    else:
        # Untraced and traced repetitions alternate, so both see the same
        # host conditions; the traced ones supply the per-layer figures.
        setup_recorder = LayerRecorder()
        with Tracing(workdir / "trace"), setup_recorder.installed(probes()):
            inputs = workload.setup(prepared)
        untraced, traced, layers = [], [], []
        while not traced or sum(untraced) + sum(traced) < seconds:
            untraced.append(measure(inputs))
            recorder = LayerRecorder()
            traced.append(measure(inputs, recorder))
            layers.append(layer_values(recorder, workload.architectures(inputs)))
        setup_values = layer_values(setup_recorder, workload.architectures(inputs))
        timed_values = median_values(layers)
        result.per_layer = (
            merge_phases(setup_values, timed_values) if workload.state_in_setup else timed_values
        )
        result.per_layer["obs.trace_overhead_pct"] = 100.0 * (
            median(traced) / median(untraced) - 1
        )
        result.per_layer["obs.unattributed_pct"] = median(unattributed)
        # Besides the digest, a check's facts are per-layer figures.
        for key in facts[-1].keys() - {"digest"}:
            result.per_layer[key] = median([fact[key] for fact in facts[1::2]])
    result.context.update(facts[-1])
    result.attempted, result.failed = ops.attempted, ops.failed
    return result


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
class Serve(Workload):
    """The read side: an in-process server under two closed-loop clients."""

    name = "serve"

    def setup(self):
        from repro import MeasurementStore, NASBenchDataset, SweepService

        configs = studied_configs()
        dataset = NASBenchDataset.generate(self.scale.population, seed=self.seed)
        pool = held_out_cells(dataset, self.scale.serve_pool, derived_seed(self.seed, 1))
        store = MeasurementStore(self.fresh_dir())
        store.extend(dataset, configs=configs)
        store.compact(dataset, configs=configs)
        service = SweepService(store, dataset, configs=CONFIG_NAMES)
        service.predict(pool[:1], CONFIG_NAMES[0])  # fits the served latency model
        service.store_digest
        return {
            "dataset": dataset,
            "pool": pool,
            "store": store,
            "service": service,
            "stream": self.request_stream(dataset, pool),
        }

    def request_stream(self, dataset, pool) -> list:
        """``(key, request)`` pairs: 80% metric, 10% top-k, 5% Pareto, 5% predict."""
        from repro import MetricRequest, ParetoRequest, PredictRequest, TopKRequest

        rng = np.random.default_rng(derived_seed(self.seed, 3))
        fingerprints = [record.fingerprint for record in dataset]
        stream = []
        for draw in rng.random(self.scale.stream):
            if draw < 0.80:
                fingerprint = fingerprints[int(rng.integers(len(fingerprints)))]
                config = CONFIG_NAMES[int(rng.integers(3))]
                metric = ("latency", "energy")[int(rng.integers(2))]
                key = ("metric", fingerprint, config, metric)
                request = MetricRequest(fingerprint, config, metric)
            elif draw < 0.90:
                k = (5, 10, 20)[int(rng.integers(3))]
                key, request = ("top_k", k), TopKRequest(k=k)
            elif draw < 0.95:
                config = CONFIG_NAMES[int(rng.integers(3))]
                key, request = ("pareto", config), ParetoRequest(config)
            else:
                size = int(rng.integers(1, 5))
                picks = tuple(int(i) for i in rng.choice(len(pool), size=size, replace=False))
                key = ("predict", picks)
                request = PredictRequest(tuple(pool[i] for i in picks), CONFIG_NAMES[0])
            stream.append((key, request))
        return stream

    async def window(self, inputs, seconds: float, host: HostSpeed | None = None):
        """Serve the stream for *seconds* to two closed-loop connections.

        With *host*, the window is served in :data:`SLICE_S` slices; between
        two slices no request is in flight and *host* is sampled.  The pauses
        are not part of the window's elapsed time; ``slowdown`` is the
        host's over the window.
        """
        from repro.server import ServerConfig, ServerError, ServiceClient, SweepServer

        service, stream = inputs["service"], inputs["stream"]
        digest = service.store_digest
        server = SweepServer(service, ServerConfig(port=0))
        await server.start()
        clients = [ServiceClient(port=server.port) for _ in range(2)]
        for client in clients:
            await client.connect()
        samples: list[tuple[str, float]] = []  # kind, latency
        served: dict = {}
        tally = {"attempted": 0, "failed": 0}
        problems: list[str] = []

        positions = list(range(len(clients)))

        async def drive(slot: int, client, deadline: float) -> None:
            while time.perf_counter() < deadline:
                key, request = stream[positions[slot] % len(stream)]
                positions[slot] += len(clients)
                tally["attempted"] += 1
                started = time.perf_counter()
                try:
                    response = await client.query(request)
                except (ServerError, ConnectionError) as exc:
                    tally["failed"] += 1
                    problems.append(f"request {key!r} failed: {exc}")
                    continue
                samples.append((request.kind, time.perf_counter() - started))
                if response.store_digest != digest:
                    problems.append(f"request {key!r} answered from store {response.store_digest}")
                first = served.get(key)
                if first is None:
                    served[key] = (request, response.result)
                elif not same_result(request.kind, response.result, first[1]):
                    problems.append(f"request {key!r} answered differently on repeat")

        slice_s = seconds if host is None else SLICE_S
        since = 0
        if host is not None:
            since = len(host.samples)
            host.sample()
        started = time.perf_counter()
        elapsed = 0.0
        try:
            while elapsed < seconds:
                begun = time.perf_counter()
                deadline = begun + min(slice_s, seconds - elapsed)
                await asyncio.gather(
                    *(drive(slot, client, deadline) for slot, client in enumerate(clients))
                )
                elapsed += time.perf_counter() - begun
                if host is not None:
                    host.sample()
        finally:
            for client in clients:
                await client.close()
            await server.stop()
        return {
            "started": started,
            "elapsed": elapsed,
            "samples": samples,
            "slowdown": host.slowdown(since) if host is not None else 1.0,
            "served": served,
            "stats": server.stats(),
            "problems": problems,
            **tally,
        }

    def check(self, inputs, outcome) -> list[str]:
        service = inputs["service"]
        problems = list(outcome["problems"])[:20]
        problems += served_mismatches(outcome["served"], service)
        dataset = inputs["dataset"]
        picks = self.oracle_picks(len(dataset), studied_configs())
        problems += oracle_mismatches(dataset, service.measurements, picks)
        if self.pinned():
            problems += pinned_mismatch(self.name, service.store_digest)
        return problems


def latencies(outcome, kind: str | None = None) -> list[float]:
    """Latencies of the served requests (of one kind)."""
    return [latency for k, latency in outcome["samples"] if kind in (None, k)]


def serve_figures(outcome) -> dict[str, float]:
    """Completed requests per second and the latency percentiles."""
    every = latencies(outcome)
    return {"throughput_per_s": len(every) / outcome["elapsed"], **latency_figures(every)}


def scaled_serve_figures(raw: dict[str, float], slowdown: float) -> dict[str, float]:
    """*raw* serve figures at nominal host speed (:data:`SERVE_ELASTICITY`)."""
    return {
        name: value * slowdown ** SERVE_ELASTICITY[name]
        if name == "throughput_per_s"
        else value / slowdown ** SERVE_ELASTICITY[name]
        for name, value in raw.items()
    }


def run_serve(workload: Serve, scale: Scale, seconds: float, trace: bool, workdir: Path,
              host: HostSpeed) -> Result:
    """Serve for *seconds*; a traced run splits them into an untraced and a traced half.

    Untraced, *host* is sampled around every set-up and every serving slice.
    """
    result = Result()
    if not trace:
        inputs, setup_s, setup_scaled = timed_setups(workload.setup, scale.setups, host)
        outcomes = [asyncio.run(workload.window(inputs, seconds, host))]
        figures = serve_figures(outcomes[0])
        result.end_to_end = {
            "setup_s": setup_scaled,
            **scaled_serve_figures(figures, outcomes[0]["slowdown"]),
        }
        result.raw = {"setup_s": setup_s, **figures}
        result.context["window_slowdown"] = outcomes[0]["slowdown"]
        result.context["latency_samples"] = len(outcomes[0]["samples"])
        result.context["tail_percentile"] = tail_percentile(len(outcomes[0]["samples"]))
    else:
        setup_recorder = LayerRecorder()
        with Tracing(workdir / "trace"), setup_recorder.installed(probes()):
            inputs = workload.setup()
        untraced = asyncio.run(workload.window(inputs, seconds / 2))
        recorder = LayerRecorder()
        with Tracing(workdir / "trace") as tracing, recorder.installed(
            probes() + client_probes()
        ):
            outcome = asyncio.run(workload.window(inputs, seconds / 2))
        outcomes = [untraced, outcome]
        started, elapsed = outcome["started"], outcome["elapsed"]
        setup_values = layer_values(setup_recorder, len(inputs["dataset"]))
        per_layer = merge_phases(setup_values, layer_values(recorder, 0))
        per_layer.update(store_values(inputs["store"]))
        stats = outcome["stats"]
        cache, batching = stats["cache"], stats["batching"]
        lookups = cache["hits"] + cache["misses"]
        untraced_rate = serve_figures(untraced)["throughput_per_s"]
        per_layer.update(
            {
                "server.overhead_ms": (
                    median_ms(latencies(outcome, "metric")) - per_layer["query.metric_ms"]
                ),
                "server.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
                "server.rejected": float(stats["requests_rejected"]),
                "batching.requests_per_batch": (
                    batching["requests"] / batching["batches"] if batching["batches"] else 0.0
                ),
                "batching.window_wait_ms": (
                    median_ms(latencies(outcome, "predict")) - per_layer["query.predict_ms"]
                ),
                "obs.trace_overhead_pct": (
                    100.0 * (untraced_rate / serve_figures(outcome)["throughput_per_s"] - 1)
                ),
                "obs.unattributed_pct": 100.0 * (
                    1 - recorder.covered_s(started, started + elapsed) / elapsed
                ),
            }
        )
        result.per_layer = per_layer
        result.context["program_spans"] = tracing.spans
    for outcome in outcomes:
        result.problems += workload.check(inputs, outcome)
        result.attempted += outcome["attempted"]
        result.failed += outcome["failed"]
    result.context["digest"] = inputs["service"].store_digest
    return result


WORKLOADS = {"paper_sweep": PaperSweep, "hw_grid": HwGrid, "serve": Serve}


def run_workload(name: str, scale_name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, host: HostSpeed) -> Result:
    """Run one workload for *seconds* and return its figures and checks."""
    scale = SCALES[scale_name]
    workload = WORKLOADS[name](scale, seed, workdir)
    run = run_serve if name == "serve" else run_batch
    return run(workload, scale, seconds, trace, workdir, host)

