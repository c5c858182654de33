"""Regularized evolution — the one loop core both search engines share.

:class:`~repro.search.SearchEngine` evolves architectures on a fixed
accelerator; :class:`~repro.hwspace.CoSearchEngine` evolves (architecture,
configuration) pairs.  Each run of either drives one :class:`Evolution`,
which owns everything the two have in common: the seeded
``numpy.random.Generator``, the de-duplicated history, the aging population,
best-of-k tournaments, unique random draws and mutations (with their
``<counters>.*`` obs counters), the objective and selection arrays, the
:class:`~repro.analysis.ParetoArchive` and the per-generation rows.

Every candidate is an ``(architecture, configuration)`` pair — the
fixed-hardware search pairs each architecture with its one configuration —
so one engine differs from the other only in how a pair is keyed (``key``) and
how a generation is evaluated (the costs it hands to :meth:`observe`).

This module is the engines' shared implementation, not a public entry point:
nothing in it is re-exported from :mod:`repro.search`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Container, Sequence

import numpy as np

from .. import obs
from ..analysis.archive import ParetoArchive
from ..arch.config import AcceleratorConfig
from ..errors import DatasetError, SearchError
from ..nasbench.accuracy import SurrogateAccuracyModel
from ..nasbench.cell import Cell
from ..nasbench.dataset import ModelRecord
from ..nasbench.macro import MacroSpec, random_architecture
from ..nasbench.mutation import mutate_unique
from ..nasbench.network import NetworkConfig
from .result import GenerationStats

#: Attempts at drawing an unseen random candidate before the space is
#: declared exhausted (generous: collisions are rare outside tiny sub-spaces).
_RANDOM_ATTEMPTS = 500

#: Mutation draws per child before falling back to a fresh random candidate.
_MUTATION_ATTEMPTS = 30

#: Selection score offset of infeasible models.  Any feasible cost (ms/mJ)
#: is smaller, so feasible models always outrank infeasible ones; among
#: infeasible models the accuracy deficit is added on top, giving tournament
#: selection a gradient *toward* the feasible region instead of the blind
#: tie an ``inf`` penalty would produce.
_INFEASIBLE_OFFSET = 1e6

Pair = tuple[Cell | MacroSpec, AcceleratorConfig]


def selection_scores(
    costs: np.ndarray, accuracies: np.ndarray, min_accuracy: float
) -> np.ndarray:
    """Soft-penalized scores used for parent selection and pre-screening."""
    feasible = np.isfinite(costs) & (accuracies >= min_accuracy)
    deficit = np.clip(min_accuracy - accuracies, 0.0, None)
    return np.where(feasible, costs, _INFEASIBLE_OFFSET + deficit)


class _Unseen:
    """Mutation dedup view: is this architecture's pair in any key set yet?

    Every membership probe is one candidate the mutation loop tried; a hit is
    one duplicate it rejected — counted here so the obs counters see every
    attempt, not just the survivors the engine keeps.
    """

    def __init__(
        self, counters: str, key: Callable[[Cell | MacroSpec], str], *key_sets: Container[str]
    ):
        self._checked = f"{counters}.candidates_checked"
        self._rejected = f"{counters}.dedup_rejects"
        self._key = key
        self._key_sets = key_sets

    def __contains__(self, arch: Cell | MacroSpec) -> bool:
        obs.count(self._checked)
        key = self._key(arch)
        hit = any(key in keys for keys in self._key_sets)
        if hit:
            obs.count(self._rejected)
        return hit


class Evolution:
    """State and moves of one regularized-evolution run.

    Parameters
    ----------
    spec:
        A :class:`~repro.search.SearchSpec` or
        :class:`~repro.hwspace.CoSearchSpec`: seed, population and
        tournament sizes, accuracy floor, mutation limits, architecture space.
    counters:
        Obs counter prefix (``"search"`` or ``"cosearch"``).
    key:
        Dedup and archive identity of an ``(architecture, configuration)``
        pair.
    sample_config:
        Configuration of a fresh random pair, drawn after its architecture.
    """

    def __init__(
        self,
        spec,
        counters: str,
        network_config: NetworkConfig,
        accuracy_model: SurrogateAccuracyModel,
        key: Callable[[Cell | MacroSpec, AcceleratorConfig], str],
        sample_config: Callable[[np.random.Generator], AcceleratorConfig],
    ):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.pairs: list[Pair] = []
        self.keys: list[str] = []
        self.costs = np.empty(0)
        self.accuracies = np.empty(0)
        self.objective = np.empty(0)
        self.selection = np.empty(0)
        self.archive: ParetoArchive | None = None
        self.generations: list[GenerationStats] = []
        self._counters = counters
        self._network_config = network_config
        self._accuracy_model = accuracy_model
        self._key = key
        self._sample_config = sample_config
        self._seen: set[str] = set()
        self._population: deque[int] = deque(maxlen=spec.population_size)
        self._accuracy_cache: dict[str, float] = {}

    @property
    def best_index(self) -> int:
        """History index of the best objective so far."""
        return int(np.argmin(self.objective))

    # ------------------------------------------------------------------ #
    # Proposal
    # ------------------------------------------------------------------ #
    def fresh(self, count: int) -> list[Pair]:
        """*count* unique, never-seen random pairs."""
        return self._batch(count, self.random_pair)

    def bred(
        self, count: int, child: Callable[[Pair, set[str]], Pair] | None = None
    ) -> list[Pair]:
        """*count* unique children of tournament-selected parents.

        *child* maps ``(parent, batch keys)`` to a never-seen pair; it
        defaults to :meth:`mutant`.
        """
        child = child or self.mutant
        return self._batch(count, lambda batch: child(self._tournament(), batch))

    def _batch(self, count: int, make: Callable[[set[str]], Pair]) -> list[Pair]:
        batch: list[Pair] = []
        batch_keys: set[str] = set()
        for _ in range(count):
            pair = make(batch_keys)
            batch.append(pair)
            batch_keys.add(self._key(*pair))
        return batch

    def _tournament(self) -> Pair:
        """Best-of-k parent selection over the current (aged) population."""
        alive = list(self._population)
        size = min(self.spec.tournament_size, len(alive))
        picks = self.rng.choice(len(alive), size=size, replace=False)
        best = min(
            (alive[int(index)] for index in picks),
            key=lambda index: (self.selection[index], index),
        )
        return self.pairs[best]

    def is_new(self, pair: Pair, batch_keys: set[str]) -> bool:
        """Whether *pair* is neither in the history nor in the batch."""
        key = self._key(*pair)
        return key not in self._seen and key not in batch_keys

    def random_pair(self, batch_keys: set[str]) -> Pair:
        """One never-seen random architecture with a sampled configuration."""
        spec = self.spec
        for _ in range(_RANDOM_ATTEMPTS):
            arch = random_architecture(
                self.rng, spec.arch_space, spec.max_vertices, spec.max_edges, self._network_config
            )
            pair = (arch, self._sample_config(self.rng))
            if self.is_new(pair, batch_keys):
                return pair
        raise SearchError(
            f"could not draw an unseen random candidate in {_RANDOM_ATTEMPTS} "
            "attempts; the searched space appears exhausted"
        )

    def mutant(self, parent: Pair, batch_keys: set[str]) -> Pair:
        """One never-seen mutation of *parent*'s architecture on its hardware.

        A random pair replaces it when the neighborhood is exhausted (tiny
        cells, long runs): fresh diversity instead of a stalled generation.
        """
        arch, config = parent
        seen = _Unseen(self._counters, lambda mutant: self._key(mutant, config),
                       self._seen, batch_keys)
        try:
            child = mutate_unique(
                arch,
                self.rng,
                seen,
                max_vertices=self.spec.max_vertices,
                max_edges=self.spec.max_edges,
                max_attempts=_MUTATION_ATTEMPTS,
            )
        except DatasetError:
            obs.count(f"{self._counters}.random_fallbacks")
            return self.random_pair(batch_keys)
        return child, config

    def accuracy_of(self, arch: Cell | MacroSpec) -> float:
        """Oracle accuracy of *arch* (hardware-independent, cached) — the
        :meth:`~repro.nasbench.dataset.ModelRecord.build` value a dataset
        of the same architecture records, so feasibility always agrees."""
        cached = self._accuracy_cache.get(arch.fingerprint)
        if cached is None:
            cached = ModelRecord.build(
                arch, self._network_config, self._accuracy_model
            ).mean_validation_accuracy
            self._accuracy_cache[arch.fingerprint] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def observe(
        self,
        generation: int,
        pairs: Sequence[Pair],
        costs: np.ndarray,
        accuracies: np.ndarray,
    ) -> str:
        """Append one evaluated generation; returns its progress line.

        Updates the objective (the cost, ``inf`` below the accuracy floor or
        without a measurement), the selection scores, the aging population
        and the archive, and records a :class:`GenerationStats` row.
        """
        min_accuracy = self.spec.min_accuracy
        start = len(self.pairs)
        keys = [self._key(*pair) for pair in pairs]
        self.pairs.extend(pairs)
        self.keys.extend(keys)
        self._seen.update(keys)
        self._population.extend(range(start, len(self.pairs)))
        self.costs = np.concatenate([self.costs, costs])
        self.accuracies = np.concatenate([self.accuracies, accuracies])
        self.objective = np.where(
            np.isfinite(self.costs) & (self.accuracies >= min_accuracy), self.costs, np.inf
        )
        self.selection = selection_scores(self.costs, self.accuracies, min_accuracy)

        if self.archive is None:
            # The hypervolume reference is the first generation's worst cost:
            # deterministic (generation 0 depends only on the seed), so a
            # resumed search tracks the identical hypervolume trajectory.
            finite = costs[np.isfinite(costs)]
            self.archive = ParetoArchive(
                ref_cost=float(finite.max()) if finite.size else 1.0, ref_accuracy=0.0
            )
        admitted = sum(
            self.archive.update(
                arch,
                cost if accuracy >= min_accuracy else np.inf,
                accuracy,
                generation=generation,
                key=key,
            )
            for (arch, _), key, cost, accuracy in zip(pairs, keys, costs, accuracies)
        )
        hypervolume = self.archive.checkpoint()

        generation_objective = self.objective[start:]
        best_objective = float(self.objective[self.best_index])
        self.generations.append(
            GenerationStats(
                generation=generation,
                evaluated=len(pairs),
                feasible=int(np.isfinite(generation_objective).sum()),
                generation_best=float(np.min(generation_objective)),
                best_objective=best_objective,
                hypervolume=hypervolume,
                admitted=admitted,
            )
        )
        return (
            f"generation {generation}: evaluated {len(pairs)}, "
            f"best {best_objective:.4f}, "
            f"front {len(self.archive)} (hv {hypervolume:.5f})"
        )
