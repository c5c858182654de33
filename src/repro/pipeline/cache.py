"""On-disk npz cache of measurements and trained model weights.

Artifacts are keyed by the stable experiment hashes of
:mod:`repro.pipeline.experiment`:

* measurements live in a sharded, resumable
  :class:`~repro.service.store.MeasurementStore` embedded under the prefix
  ``measurements-<key>`` (per-shard npz files, cell fingerprints verified on
  load), which :func:`run_experiment` sweeps through directly so
  interrupted labeling sweeps resume instead of restarting;
* ``model-<key>.npz`` — the flat state dict exported by
  :meth:`LearnedPerformanceModel.export_state` (weights, normalizer stats,
  split indices, loss history, raw targets).

The cache counts hits and misses (:class:`CacheStats`) so experiment results
can report exactly how incremental a re-run was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import PipelineError, ServiceError
from ..service.store import DEFAULT_SHARD_SIZE, MeasurementStore, read_npz, write_npz


@dataclass
class CacheStats:
    """Hit/miss counters of one pipeline run."""

    measurement_hits: int = 0
    measurement_misses: int = 0
    model_hits: int = 0
    model_misses: int = 0

    @property
    def hits(self) -> int:
        """Total artifacts served from disk."""
        return self.measurement_hits + self.model_hits

    @property
    def misses(self) -> int:
        """Total artifacts that had to be recomputed."""
        return self.measurement_misses + self.model_misses


@dataclass
class ExperimentCache:
    """npz artifact store rooted at a directory (created on first write)."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def model_path(self, key: str) -> Path:
        """File path of a cached trained-model state."""
        return self.root / f"model-{key}.npz"

    # ------------------------------------------------------------------ #
    # Measurements (the sharded measurement store)
    # ------------------------------------------------------------------ #
    def measurement_store(
        self,
        key: str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        enable_parameter_caching: bool = True,
    ) -> MeasurementStore:
        """The resumable shard store holding the measurements of *key*.

        Shards share the cache's flat root directory under the prefix
        ``measurements-<key>``, so one experiment's sweep is a set of files
        rather than a monolithic archive.
        """
        return MeasurementStore(
            self.root,
            shard_size=shard_size,
            enable_parameter_caching=enable_parameter_caching,
            prefix=f"measurements-{key}",
        )

    # ------------------------------------------------------------------ #
    # Trained models
    # ------------------------------------------------------------------ #
    def load_model_state(self, key: str) -> dict[str, np.ndarray] | None:
        """Load a trained-model state dict, or ``None`` on a miss."""
        state = read_npz(self.model_path(key))
        if state is None:
            self.stats.model_misses += 1
            return None
        self.stats.model_hits += 1
        return state

    def save_model_state(self, key: str, state: dict[str, np.ndarray]) -> Path:
        """Persist a trained-model state dict under *key*."""
        try:
            return write_npz(self.model_path(key), state)
        except ServiceError as exc:
            raise PipelineError(str(exc)) from exc

    def reclassify_model_hit_as_miss(self) -> None:
        """Recount the last model hit as a miss.

        Called when a loaded state proves stale during restore (validation the
        cache itself cannot perform, e.g. the population feature digest); the
        bookkeeping stays in one module so the counters cannot drift.
        """
        self.stats.model_hits -= 1
        self.stats.model_misses += 1
