"""Hardware-aware architecture search over the batch-sweep stack.

:class:`SearchEngine` closes the explore → evaluate → select loop the rest of
the repo only measures: candidate cells are proposed (randomly, by
regularized evolution, or by predictor-guided pre-screening), evaluated in
**one batched sweep per generation** through
:meth:`~repro.service.MeasurementStore.extend` (so every generation persists
before the next begins and a killed search resumes with only the missing
generations simulated), and selected against a scalarized objective — the
hardware metric, with models below the paper's accuracy floor penalized to
``inf``.  Selection, dedup and the :class:`~repro.analysis.ParetoArchive`
with its per-generation hypervolume are the regularized-evolution core
(:class:`~repro.search.evolution.Evolution`) it shares with the co-search.

Determinism: every stochastic choice draws from a single
``numpy.random.Generator`` seeded by the spec, and each generation depends
only on the state before it, so the same spec always regenerates the same
generation sequence — which is exactly what makes store-backed resumption
exact (content-keyed shards of a rerun match the interrupted run's files).
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable

import numpy as np

from .. import obs
from ..arch.config import get_config
from ..arch.energy import energy_parameters_for
from ..errors import SearchError
from ..nasbench.accuracy import SurrogateAccuracyModel
from ..nasbench.dataset import ModelRecord, NASBenchDataset
from ..nasbench.network import NetworkConfig
from ..service.query import SweepService
from ..service.store import MeasurementStore
from .evolution import Evolution, Pair, selection_scores
from .result import SearchResult
from .spec import SearchSpec

class SearchEngine:
    """Multi-objective, hardware-aware NAS search engine.

    Parameters
    ----------
    spec:
        The search to run.
    store:
        Optional resumable :class:`~repro.service.MeasurementStore` the
        per-generation sweeps go through.  Its shard size must divide the
        spec's ``population_size`` so the shard files of the growing search
        history stay content-stable across generations (that alignment is
        what makes interrupted searches resume with only the missing
        generations simulated).  Without a store, measurements persist to a
        temporary directory that lives as long as the engine.
    network_config:
        Macro-architecture used to expand candidate cells (defaults to the
        paper's CIFAR-10 backbone, like the dataset generator).
    accuracy_model:
        Surrogate accuracy oracle (deterministic; shared with the history
        dataset so feasibility and selection always agree).
    """

    def __init__(
        self,
        spec: SearchSpec,
        store: MeasurementStore | None = None,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ):
        self.spec = spec
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if store is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-search-")
            store = MeasurementStore(
                self._tmpdir.name,
                shard_size=spec.population_size,
                enable_parameter_caching=spec.enable_parameter_caching,
            )
        if store.enable_parameter_caching != spec.enable_parameter_caching:
            raise SearchError(
                "measurement store and search spec disagree on parameter "
                f"caching (store={store.enable_parameter_caching}, "
                f"spec={spec.enable_parameter_caching})"
            )
        if spec.population_size % store.shard_size != 0:
            raise SearchError(
                f"store shard size {store.shard_size} must divide the "
                f"generation size {spec.population_size}; otherwise the "
                "growing history re-keys earlier shards every generation and "
                "nothing resumes"
            )
        self.store = store
        self.network_config = network_config or NetworkConfig()
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self._config = get_config(spec.config_name)
        if spec.metric == "energy" and not energy_parameters_for(self._config).available:
            raise SearchError(
                f"configuration {spec.config_name!r} has no energy model; "
                "it cannot drive an energy-objective search"
            )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self, progress: Callable[[str], None] | None = None) -> SearchResult:
        """Run (or resume) the search and return its result.

        Each generation proposes ``population_size`` unique candidates,
        appends them to the history dataset, and brings the measurement
        store up to date — shards already on disk (an earlier or interrupted
        run of the same spec) are loaded, only new models are simulated.
        """
        spec = self.spec
        say = progress or (lambda message: None)
        start = time.perf_counter()
        evolution = Evolution(
            spec,
            "search",
            self.network_config,
            self.accuracy_model,
            key=lambda arch, _: arch.fingerprint,
            sample_config=lambda rng: self._config,
        )
        records: list[ModelRecord] = []
        dataset: NASBenchDataset | None = None
        measurements = None

        for generation in range(spec.generations):
            with obs.span(
                "search.generation", generation=generation, strategy=spec.strategy
            ):
                with obs.span("search.propose", generation=generation):
                    pairs = self._propose(evolution, generation, dataset, measurements)
                new = slice(len(records), len(records) + len(pairs))
                records.extend(
                    ModelRecord.build(arch, self.network_config, self.accuracy_model, index)
                    for index, (arch, _) in enumerate(pairs, new.start)
                )
                dataset = NASBenchDataset(records, self.network_config)
                with obs.span(
                    "search.simulate", generation=generation, models=len(records)
                ):
                    measurements = self.store.extend(dataset, configs=[self._config])
                costs = (
                    measurements.latencies(spec.config_name)
                    if spec.metric == "latency"
                    else measurements.energies(spec.config_name)
                )
                say(evolution.observe(
                    generation, pairs, costs[new], dataset.accuracies()[new]
                ))

        assert dataset is not None and measurements is not None
        assert evolution.archive is not None
        return SearchResult(
            spec=spec,
            dataset=dataset,
            measurements=measurements,
            objective=evolution.objective,
            archive=evolution.archive,
            generations=evolution.generations,
            best_index=evolution.best_index,
            store_stats=self.store.stats,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Candidate proposal (the strategy layer)
    # ------------------------------------------------------------------ #
    def _propose(
        self,
        evolution: Evolution,
        generation: int,
        dataset: NASBenchDataset | None,
        measurements,
    ) -> list[Pair]:
        """The next generation's unique candidates (length = generation size)."""
        spec = self.spec
        if generation == 0 or spec.strategy == "random":
            return evolution.fresh(spec.population_size)
        if spec.strategy == "evolution":
            return evolution.bred(spec.population_size)

        # Predictor-guided: mutate a large pool, pre-screen with the learned
        # model trained on everything measured so far, simulate the top slice.
        pool = evolution.bred(spec.pool_factor * spec.population_size)
        service = SweepService(
            self.store,
            dataset,
            configs=[spec.config_name],
            settings=spec.predictor_settings,
            # The previous generation's sweep result is still in memory:
            # serve from it instead of re-reading every history shard.
            measurements=measurements,
        )
        cells = [cell for cell, _ in pool]
        with obs.span("search.predict_screen", pool=len(pool)):
            predicted = service.predict(cells, spec.config_name, spec.metric)
        # Accuracy is an oracle lookup (no simulation), so the pre-screen can
        # apply the same feasibility penalty parent selection uses.
        pool_accuracies = np.array([evolution.accuracy_of(cell) for cell in cells])
        scores = selection_scores(predicted, pool_accuracies, spec.min_accuracy)
        order = np.argsort(scores, kind="stable")[: spec.population_size]
        return [pool[int(index)] for index in order]
