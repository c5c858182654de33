"""Tests of the experiment pipeline: grid runs, caching, determinism."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import TrainingSettings
from repro.errors import PipelineError
from repro.pipeline import (
    CacheStats,
    Experiment,
    ExperimentCache,
    PopulationSpec,
    run_experiment,
    stable_key,
)


def small_experiment(**overrides) -> Experiment:
    defaults = dict(
        name="test-experiment",
        population=PopulationSpec(num_models=40, seed=11),
        config_names=("V1",),
        metrics=("latency",),
        settings=TrainingSettings(epochs=2, seed=0),
    )
    defaults.update(overrides)
    return Experiment(**defaults)


class TestExperimentSpec:
    def test_keys_are_stable_and_sensitive(self):
        a = small_experiment()
        b = small_experiment()
        assert a.measurement_key() == b.measurement_key()
        assert a.model_key("V1", "latency") == b.model_key("V1", "latency")
        # A population change invalidates everything ...
        c = small_experiment(population=PopulationSpec(num_models=40, seed=12))
        assert c.measurement_key() != a.measurement_key()
        assert c.model_key("V1", "latency") != a.model_key("V1", "latency")
        # ... a training change invalidates only the model artifacts ...
        d = small_experiment(settings=TrainingSettings(epochs=3, seed=0))
        assert d.measurement_key() == a.measurement_key()
        assert d.model_key("V1", "latency") != a.model_key("V1", "latency")
        # ... and the experiment name invalidates nothing.
        e = small_experiment(name="renamed")
        assert e.measurement_key() == a.measurement_key()
        assert e.model_key("V1", "latency") == a.model_key("V1", "latency")

    def test_invalid_grids_rejected(self):
        with pytest.raises(PipelineError):
            small_experiment(metrics=())
        with pytest.raises(PipelineError):
            small_experiment(config_names=())
        with pytest.raises(PipelineError):
            small_experiment(metrics=("throughput",))

    def test_stable_key_is_deterministic(self):
        payload = {"b": 2, "a": [1, 2, 3]}
        assert stable_key(payload) == stable_key({"a": [1, 2, 3], "b": 2})
        assert stable_key(payload) != stable_key({"a": [1, 2, 3], "b": 3})


class TestRunExperiment:
    def test_end_to_end_grid(self, pipeline_cache_dir):
        experiment = small_experiment(config_names=("V1", "V3"), metrics=("latency", "energy"))
        result = run_experiment(experiment, cache_dir=pipeline_cache_dir)
        # V3 has no energy model: three trained cells, one recorded skip.
        assert set(result.models) == {
            ("V1", "latency"), ("V1", "energy"), ("V3", "latency"),
        }
        assert [entry[:2] for entry in result.skipped] == [("V3", "energy")]
        report = result.report("V1", "latency")
        assert report.test_set_size > 0
        assert result.model("V1", "latency").history is not None
        assert len(result.measurements.latencies("V1")) == len(result.dataset)
        assert any("V1" in line for line in result.summary_lines())
        with pytest.raises(PipelineError):
            result.report("V2", "latency")

    def test_runs_are_deterministic(self):
        experiment = small_experiment()
        first = run_experiment(experiment)
        second = run_experiment(experiment)
        assert first.report("V1") == second.report("V1")
        assert np.array_equal(
            first.measurements.latencies("V1"), second.measurements.latencies("V1")
        )

    def test_cache_hit_reproduces_and_speeds_up_second_run(self, pipeline_cache_dir):
        experiment = small_experiment(
            population=PopulationSpec(num_models=60, seed=5),
            settings=TrainingSettings(epochs=4, seed=0),
        )
        start = time.perf_counter()
        cold = run_experiment(experiment, cache_dir=pipeline_cache_dir)
        cold_elapsed = time.perf_counter() - start
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.misses == 2  # one measurement set + one model

        start = time.perf_counter()
        warm = run_experiment(experiment, cache_dir=pipeline_cache_dir)
        warm_elapsed = time.perf_counter() - start
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == 2
        assert all(cell.from_cache for cell in warm.models.values())

        # Identical results, measurably faster than simulate+train.
        assert warm.report("V1") == cold.report("V1")
        assert np.array_equal(warm.measurements.latencies("V1"), cold.measurements.latencies("V1"))
        assert warm_elapsed < cold_elapsed

    def test_spec_change_misses_cache(self, pipeline_cache_dir):
        run_experiment(small_experiment(), cache_dir=pipeline_cache_dir)
        changed = small_experiment(settings=TrainingSettings(epochs=3, seed=0))
        result = run_experiment(changed, cache_dir=pipeline_cache_dir)
        # Measurements are reused; the trained model is not.
        assert result.cache_stats.measurement_hits == 1
        assert result.cache_stats.model_misses == 1

    def test_without_cache_dir_nothing_is_written(self, tmp_path):
        result = run_experiment(small_experiment())
        assert result.cache_stats == CacheStats()
        assert list(tmp_path.iterdir()) == []

    def test_compact_merges_the_labeling_sweep(self, pipeline_cache_dir):
        experiment = small_experiment()
        cold = run_experiment(experiment, cache_dir=pipeline_cache_dir, compact=True)
        assert list(pipeline_cache_dir.rglob("*-compact-*.npy"))
        assert not list(pipeline_cache_dir.rglob("measurements-*-V1-*.npz"))
        warm = run_experiment(experiment, cache_dir=pipeline_cache_dir, compact=True)
        assert warm.cache_stats.measurement_hits == 1
        assert np.array_equal(
            warm.measurements.latencies("V1"), cold.measurements.latencies("V1")
        )

    def test_compact_without_cache_dir_rejected(self):
        with pytest.raises(PipelineError, match="cache_dir"):
            run_experiment(small_experiment(), compact=True)


class TestExperimentCache:
    def test_absent_artifacts_are_misses(self, pipeline_cache_dir):
        cache = ExperimentCache(pipeline_cache_dir)
        assert cache.load_model_state("nope") is None
        assert cache.stats.model_misses == 1

    def test_corrupt_artifacts_degrade_to_misses(self, pipeline_cache_dir):
        experiment = small_experiment()
        run_experiment(experiment, cache_dir=pipeline_cache_dir)
        for artifact in pipeline_cache_dir.glob("*.npz"):
            artifact.write_bytes(artifact.read_bytes()[:50])  # truncate
        result = run_experiment(experiment, cache_dir=pipeline_cache_dir)
        assert result.cache_stats.hits == 0
        assert result.cache_stats.misses == 2
        # ... and the rewritten artifacts serve the next run again.
        healed = run_experiment(experiment, cache_dir=pipeline_cache_dir)
        assert healed.cache_stats.misses == 0

    def test_tiny_population_rejected_with_clear_error(self):
        from repro.errors import ModelError

        experiment = small_experiment(population=PopulationSpec(num_models=3, seed=0))
        with pytest.raises(ModelError, match="at least 10 samples"):
            run_experiment(experiment)
