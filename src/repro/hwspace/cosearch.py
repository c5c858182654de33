"""Joint NAS × hardware co-search over cells and accelerator configurations.

:mod:`repro.search` optimizes the *model* for a frozen accelerator; the
hardware frontier ranks *accelerators* over a frozen population.  The
co-design question the paper points at — which (model, microarchitecture)
pairs are jointly optimal — needs both axes searched under one budget.
:class:`CoSearchEngine` drives the same regularized-evolution core as the
cell-only engine (:class:`~repro.search.evolution.Evolution`) over
**pairs** keyed by ``fingerprint@config-digest``: a tournament picks a
parent pair, and each child either takes one hardware grid step
(:meth:`~repro.hwspace.space.AcceleratorSpace.neighbors`, cell kept) or
mutates the cell (hardware kept).  Every generation is evaluated in **one
config-axis vectorized pass**
(:meth:`~repro.simulator.batch.BatchSimulator.evaluate_table_grid` over the
generation's distinct configurations); selection, the soft feasibility
penalty and the joint (cost ↓, accuracy ↑)
:class:`~repro.analysis.ParetoArchive` are the core's.

The simulation budget — ``population_size × generations`` pair evaluations —
matches a fixed-hardware :class:`~repro.search.SearchEngine` run with the
same parameters, which is what makes :func:`studied_baselines` a fair
comparison: the co-search should discover pairs that Pareto-dominate at
least one of the V1/V2/V3 single-axis winners at equal cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..analysis.archive import ParetoArchive
from ..arch.config import AcceleratorConfig
from ..errors import SearchError
from ..nasbench.accuracy import SurrogateAccuracyModel
from ..nasbench.cell import Cell
from ..nasbench.layer_table import LayerTable
from ..nasbench.macro import MacroSpec
from ..nasbench.network import NetworkConfig
from ..nasbench.ops import MAX_EDGES, MAX_VERTICES
from ..search.engine import SearchEngine
from ..search.evolution import Evolution, Pair
from ..search.result import GenerationStats, generation_lines
from ..search.spec import SearchSpec
from ..simulator.batch import BatchSimulator
from .space import AcceleratorSpace, config_digest


@dataclass(frozen=True)
class CoSearchSpec:
    """One joint cell × hardware search (budget shared across both axes)."""

    metric: str = "latency"
    min_accuracy: float = 0.70
    population_size: int = 16
    generations: int = 6
    tournament_size: int = 4
    #: Probability a child takes a hardware grid step instead of a cell
    #: mutation (the cell-only engine is the 0.0 limit of this knob).
    hardware_move_probability: float = 0.5
    seed: int = 0
    max_vertices: int = MAX_VERTICES
    max_edges: int = MAX_EDGES
    enable_parameter_caching: bool = True
    #: ``"cell"`` moves over cells on the shared backbone; ``"macro"`` moves
    #: over staged :class:`~repro.nasbench.macro.MacroSpec` architectures.
    arch_space: str = "cell"

    def __post_init__(self) -> None:
        # Every field the two searches share validates exactly as in the
        # equal-budget fixed-hardware search.
        self._fixed_hardware()
        if not 0.0 <= self.hardware_move_probability <= 1.0:
            raise SearchError("hardware_move_probability must be within [0, 1]")

    def _fixed_hardware(
        self, strategy: str = "evolution", config_name: str = "V1"
    ) -> SearchSpec:
        """The fixed-hardware search with this co-search's budget and limits."""
        return SearchSpec(
            strategy=strategy,
            config_name=config_name,
            metric=self.metric,
            min_accuracy=self.min_accuracy,
            population_size=self.population_size,
            generations=self.generations,
            tournament_size=self.tournament_size,
            seed=self.seed,
            max_vertices=self.max_vertices,
            max_edges=self.max_edges,
            enable_parameter_caching=self.enable_parameter_caching,
            arch_space=self.arch_space,
        )

    @property
    def simulation_budget(self) -> int:
        """Total pair evaluations — identical to a fixed-hardware search with
        the same population size and generation count."""
        return self.population_size * self.generations


@dataclass(frozen=True)
class PairRecord:
    """One evaluated (architecture, configuration) pair of the co-search history.

    ``cell`` holds the searched architecture — a :class:`Cell` or, in the
    macro space, a :class:`~repro.nasbench.macro.MacroSpec`.
    """

    index: int
    cell: Cell | MacroSpec
    config: AcceleratorConfig
    key: str
    accuracy: float
    cost: float
    generation: int


@dataclass
class CoSearchResult:
    """Everything one :meth:`CoSearchEngine.run` call produced."""

    spec: CoSearchSpec
    space: AcceleratorSpace
    pairs: list[PairRecord]
    objective: np.ndarray
    archive: ParetoArchive
    configs_by_key: dict[str, AcceleratorConfig]
    generations: list[GenerationStats] = field(default_factory=list)
    best_index: int = -1
    elapsed_seconds: float = 0.0

    @property
    def best_pair(self) -> PairRecord:
        """The best feasible (cell, configuration) pair found."""
        if self.best_index < 0 or not np.isfinite(self.objective[self.best_index]):
            raise SearchError(
                "the co-search found no feasible pair (every candidate fell "
                "below the accuracy floor)"
            )
        return self.pairs[self.best_index]

    @property
    def best_objective(self) -> float:
        """Objective value of the winner (``inf`` if nothing was feasible)."""
        if self.best_index < 0:
            return float("inf")
        return float(self.objective[self.best_index])

    def dominates(self, cost: float, accuracy: float) -> bool:
        """Whether any frontier pair weakly dominates ``(cost, accuracy)``
        with strict improvement on at least one objective."""
        return any(
            entry.cost <= cost
            and entry.accuracy >= accuracy
            and (entry.cost < cost or entry.accuracy > accuracy)
            for entry in self.archive.entries
        )

    def summary_lines(self) -> list[str]:
        """Human-readable per-generation progress table.

        Renders for infeasible runs too — the table is most needed when no
        pair reached the accuracy floor.
        """
        unit = "ms" if self.spec.metric == "latency" else "mJ"
        if self.best_index >= 0 and np.isfinite(self.objective[self.best_index]):
            best = self.pairs[self.best_index]
            verdict = (
                f"best {self.best_objective:.4f} {unit} on {best.config.name} "
                f"(accuracy {best.accuracy:.4f})"
            )
        else:
            verdict = "no feasible pair (every candidate fell below the accuracy floor)"
        return [
            f"co-search over {self.space.size} hardware points × cells "
            f"({self.spec.metric}, accuracy >= {self.spec.min_accuracy:.2f}): "
            f"{len(self.pairs)} pairs over {len(self.generations)} generations, "
            f"{verdict}, front {len(self.archive)} points, "
            f"{self.elapsed_seconds:.2f}s",
            *generation_lines(self.generations),
        ]


def pair_key(cell: Cell | MacroSpec, digest: str) -> str:
    """Identity of one (architecture, configuration) pair (archive/dedup key)."""
    return f"{cell.fingerprint}@{digest}"


class CoSearchEngine:
    """Regularized evolution over joint (cell, configuration) pairs.

    Parameters
    ----------
    spec:
        The co-search to run.
    space:
        The hardware grid the configuration axis moves over.
    network_config:
        Macro-architecture used to expand candidate cells.
    accuracy_model:
        Surrogate accuracy oracle (shared with feasibility decisions).
    """

    def __init__(
        self,
        spec: CoSearchSpec,
        space: AcceleratorSpace,
        network_config: NetworkConfig | None = None,
        accuracy_model: SurrogateAccuracyModel | None = None,
    ):
        if space.size < 2:
            raise SearchError(
                "the hardware space has a single point; use repro.search for "
                "fixed-hardware searches"
            )
        self.spec = spec
        self.space = space
        self.network_config = network_config or NetworkConfig()
        self.accuracy_model = accuracy_model or SurrogateAccuracyModel()
        self._simulator = BatchSimulator(enable_parameter_caching=spec.enable_parameter_caching)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self, progress: Callable[[str], None] | None = None) -> CoSearchResult:
        """Run the co-search and return its result."""
        spec = self.spec
        say = progress or (lambda message: None)
        start = time.perf_counter()
        evolution = Evolution(
            spec,
            "cosearch",
            self.network_config,
            self.accuracy_model,
            key=lambda arch, config: pair_key(arch, config_digest(config)),
            sample_config=self.space.sample,
        )
        child = partial(self._child, evolution)

        for generation in range(spec.generations):
            with obs.span("cosearch.generation", generation=generation):
                with obs.span("cosearch.propose", generation=generation):
                    pairs = (
                        evolution.fresh(spec.population_size)
                        if generation == 0
                        else evolution.bred(spec.population_size, child)
                    )
                with obs.span(
                    "cosearch.evaluate", generation=generation, pairs=len(pairs)
                ):
                    costs = self._costs(pairs)
                    accuracies = np.array([evolution.accuracy_of(cell) for cell, _ in pairs])
            say(evolution.observe(generation, pairs, costs, accuracies))

        assert evolution.archive is not None
        # Every generation proposes exactly population_size pairs.
        records = [
            PairRecord(
                index=index,
                cell=cell,
                config=config,
                key=key,
                accuracy=float(accuracy),
                cost=float(cost),
                generation=index // spec.population_size,
            )
            for index, ((cell, config), key, cost, accuracy) in enumerate(
                zip(evolution.pairs, evolution.keys, evolution.costs, evolution.accuracies)
            )
        ]
        return CoSearchResult(
            spec=spec,
            space=self.space,
            pairs=records,
            objective=evolution.objective,
            archive=evolution.archive,
            configs_by_key={record.key: record.config for record in records},
            generations=evolution.generations,
            best_index=evolution.best_index,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _costs(self, pairs: Sequence[Pair]) -> np.ndarray:
        """Cost of each of the generation's pairs, from one simulator pass.

        The generation's cells flatten into one :class:`LayerTable` and its
        distinct configurations into one config axis; a single
        :meth:`~BatchSimulator.evaluate_table_grid` pass yields every
        (config, cell) cost, from which each pair reads its own entry.
        """
        table = LayerTable.from_architectures([arch for arch, _ in pairs], self.network_config)

        distinct: dict[str, int] = {}
        config_rows: list[AcceleratorConfig] = []
        row_of_pair = np.empty(len(pairs), dtype=np.int64)
        for index, (_, config) in enumerate(pairs):
            digest = config_digest(config)
            if digest not in distinct:
                distinct[digest] = len(config_rows)
                config_rows.append(config)
            row_of_pair[index] = distinct[digest]

        latency, energy = self._simulator.evaluate_table_grid(table, config_rows)
        matrix = latency if self.spec.metric == "latency" else energy
        return matrix[row_of_pair, np.arange(len(pairs))]

    def _child(self, evolution: Evolution, parent: Pair, batch_keys: set[str]) -> Pair:
        """One never-seen child pair: a hardware step or a cell mutation."""
        if evolution.rng.random() < self.spec.hardware_move_probability:
            cell, config = parent
            moves = self.space.neighbors(config)
            for position in evolution.rng.permutation(len(moves)):
                pair = (cell, moves[int(position)])
                if evolution.is_new(pair, batch_keys):
                    return pair
            # The whole hardware neighborhood of this cell is exhausted;
            # fall through to a cell mutation on the parent's hardware.
        return evolution.mutant(parent, batch_keys)


def studied_baselines(
    spec: CoSearchSpec,
    config_names: Sequence[str] = ("V1", "V2", "V3"),
    strategy: str = "evolution",
) -> dict[str, tuple[float, float]]:
    """Best ``(cost, accuracy)`` of fixed-hardware searches at the same budget.

    Runs one :class:`~repro.search.SearchEngine` per studied configuration
    with the co-search's population size, generation count, accuracy floor
    and seed — i.e. the identical simulation budget spent on the cell axis
    alone.  Configurations that cannot serve the metric (energy on V3) are
    skipped.  The returned points are what
    :meth:`CoSearchResult.dominates` is meant to be checked against.
    """
    baselines: dict[str, tuple[float, float]] = {}
    for name in config_names:
        try:
            result = SearchEngine(spec._fixed_hardware(strategy, name)).run()
        except SearchError:
            continue
        if np.isfinite(result.best_objective):
            baselines[name] = (result.best_objective, result.best_accuracy)
    return baselines
