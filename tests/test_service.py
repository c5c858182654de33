"""Tests of the resumable measurement store and the sweep query service."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core import TrainingSettings
from repro.errors import DatasetError, ServiceError, SimulationError
from repro.nasbench import NASBenchDataset, sample_unique_cells
from repro.service import MeasurementStore, SweepService
from repro.simulator import BatchSimulator, evaluate_dataset

SHARD = 16
CONFIGS = ("V1", "V2", "V3")


@pytest.fixture(scope="module")
def store_dataset():
    """A population of 60 models → four shards of 16/16/16/12 at SHARD=16."""
    return NASBenchDataset.generate(num_models=60, seed=31)


@pytest.fixture(scope="module")
def direct_measurements(store_dataset):
    """Reference sweep straight through the batch engine (no store)."""
    return BatchSimulator().evaluate(store_dataset)


def make_store(root, **overrides) -> MeasurementStore:
    options = dict(shard_size=SHARD)
    options.update(overrides)
    return MeasurementStore(root, **options)


def assert_matches_reference(measurements, reference, configs=CONFIGS):
    for name in configs:
        np.testing.assert_allclose(
            measurements.latencies(name), reference.latencies(name), rtol=1e-9
        )
        np.testing.assert_allclose(measurements.energies(name), reference.energies(name), rtol=1e-9)


class TestMeasurementStore:
    def test_cold_sweep_simulates_every_pair(self, tmp_path, store_dataset, direct_measurements):
        store = make_store(tmp_path)
        measurements = store.sweep(store_dataset, configs=CONFIGS)
        n_shards = len(store.shard_ranges(len(store_dataset)))
        assert n_shards == 4
        assert store.stats.pairs_simulated == n_shards * len(CONFIGS)
        assert store.stats.pairs_loaded == 0
        assert store.stats.models_simulated == len(store_dataset) * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)

    def test_warm_store_serves_without_simulation(
        self, tmp_path, store_dataset, direct_measurements
    ):
        make_store(tmp_path).sweep(store_dataset, configs=CONFIGS)
        warm = make_store(tmp_path)
        measurements = warm.sweep(store_dataset, configs=CONFIGS)
        assert warm.stats.pairs_simulated == 0
        assert warm.stats.pairs_loaded == 4 * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)

    def test_interrupted_sweep_resumes_with_exactly_missing_shards(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # BaseException, not Exception: progress callbacks are non-fatal by
        # design (obs.guarded_progress swallows ordinary exceptions), so the
        # interruption is modeled the way real ones arrive — KeyboardInterrupt
        # / SIGTERM — which the guard deliberately lets propagate.
        class Interrupted(BaseException):
            pass

        store = make_store(tmp_path)
        completed_shards = 0

        def interrupt_after_two_shards(config_name, done, total):
            nonlocal completed_shards
            if config_name == CONFIGS[-1]:  # last config of the shard ticked
                completed_shards += 1
                if completed_shards == 2:
                    raise Interrupted

        with pytest.raises(Interrupted):
            store.sweep(
                store_dataset, configs=CONFIGS,
                progress_callback=interrupt_after_two_shards,
            )
        assert store.stats.pairs_simulated == 2 * len(CONFIGS)

        # The acceptance criterion: k of n shards done, the re-run completes
        # with exactly (n - k) shard simulations per configuration.
        resumed = make_store(tmp_path)
        measurements = resumed.sweep(store_dataset, configs=CONFIGS)
        assert resumed.stats.pairs_simulated == (4 - 2) * len(CONFIGS)
        assert resumed.stats.pairs_loaded == 2 * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)

    def test_extend_with_new_config_simulates_only_that_config(
        self, tmp_path, store_dataset, direct_measurements
    ):
        make_store(tmp_path).sweep(store_dataset, configs=("V1",))
        store = make_store(tmp_path)
        measurements = store.extend(store_dataset, configs=("V1", "V2"))
        assert store.stats.pairs_loaded == 4  # every V1 shard
        assert store.stats.pairs_simulated == 4  # every V2 shard
        assert_matches_reference(measurements, direct_measurements, configs=("V1", "V2"))

    def test_extend_with_new_cells_keeps_full_prefix_shards(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # Shards are keyed by cell-fingerprint content, so sweeping a prefix
        # population produces exactly the files the grown population reuses.
        prefix = NASBenchDataset(store_dataset.records[: 2 * SHARD], store_dataset.network_config)
        make_store(tmp_path).sweep(prefix, configs=("V1",))
        store = make_store(tmp_path)
        measurements = store.extend(store_dataset, configs=("V1",))
        assert store.stats.pairs_loaded == 2
        assert store.stats.pairs_simulated == 2
        np.testing.assert_allclose(
            measurements.latencies("V1"), direct_measurements.latencies("V1"), rtol=1e-9
        )

    def test_load_refuses_cold_store(self, tmp_path, store_dataset):
        with pytest.raises(ServiceError, match="missing"):
            make_store(tmp_path).load(store_dataset, configs=CONFIGS)

    def test_load_of_a_different_population_is_a_miss(
        self, tmp_path, store_dataset, direct_measurements
    ):
        # Shards are found by the cell fingerprints they hold, so a warm store
        # serves its own population exactly and refuses any other one.
        make_store(tmp_path).sweep(store_dataset, configs=CONFIGS)
        loaded = make_store(tmp_path).load(store_dataset, configs=CONFIGS)
        assert np.array_equal(loaded.latencies("V1"), direct_measurements.latencies("V1"))
        assert np.array_equal(
            loaded.energies("V3"), direct_measurements.energies("V3"), equal_nan=True
        )
        shrunk = NASBenchDataset(store_dataset.records[:10], store_dataset.network_config)
        with pytest.raises(ServiceError, match="missing"):
            make_store(tmp_path).load(shrunk, configs=CONFIGS)

    def test_missing_pairs_and_available_configs(self, tmp_path, store_dataset):
        store = make_store(tmp_path)
        assert store.available_configs() == []
        assert len(store.missing_pairs(store_dataset, configs=CONFIGS)) == 4 * 3
        store.sweep(store_dataset, configs=("V2",))
        assert store.available_configs() == ["V2"]
        missing = store.missing_pairs(store_dataset, configs=CONFIGS)
        assert len(missing) == 8
        assert all(name in ("V1", "V3") for _, name in missing)

    def test_corrupt_shard_degrades_to_resimulation(self, tmp_path, store_dataset):
        make_store(tmp_path).sweep(store_dataset, configs=("V1",))
        victim = sorted(tmp_path.glob("shard-V1-*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])
        store = make_store(tmp_path)
        store.sweep(store_dataset, configs=("V1",))
        assert store.stats.pairs_simulated == 1
        assert store.stats.pairs_loaded == 3

    def test_corrupt_shard_is_quarantined_not_reread(self, tmp_path, store_dataset):
        # Regression: a truncated npz used to stay at its final name, so every
        # reader re-parsed (and re-failed on) the same broken bytes.  read_npz
        # must move it aside so the miss is durable and the rewrite is clean.
        make_store(tmp_path).sweep(store_dataset, configs=("V1",))
        victim = sorted(tmp_path.glob("shard-V1-*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:40])
        store = make_store(tmp_path)
        store.sweep(store_dataset, configs=("V1",))
        quarantined = victim.with_name(victim.name + ".corrupt")
        assert quarantined.exists()
        assert len(quarantined.read_bytes()) == 40  # the broken bytes, moved aside
        assert victim.exists()  # re-simulated and re-published at the real name
        clean = make_store(tmp_path)
        clean.sweep(store_dataset, configs=("V1",))
        assert clean.stats.pairs_simulated == 0

    def test_parameter_caching_mode_is_part_of_the_key(self, tmp_path, store_dataset):
        make_store(tmp_path).sweep(store_dataset, configs=("V1",))
        other_mode = make_store(tmp_path, enable_parameter_caching=False)
        other_mode.sweep(store_dataset, configs=("V1",))
        assert other_mode.stats.pairs_loaded == 0
        assert other_mode.stats.pairs_simulated == 4

    def test_store_simulator_mode_mismatch_rejected(self, tmp_path, store_dataset):
        store = make_store(tmp_path, enable_parameter_caching=False)
        with pytest.raises(SimulationError, match="parameter"):
            BatchSimulator(enable_parameter_caching=True).evaluate(store_dataset, store=store)
        with pytest.raises(ServiceError, match="parameter"):
            MeasurementStore(
                tmp_path,
                enable_parameter_caching=True,
                simulator=BatchSimulator(enable_parameter_caching=False),
            )

    def test_invalid_arguments_rejected(self, tmp_path, store_dataset):
        with pytest.raises(ServiceError):
            MeasurementStore(tmp_path, shard_size=0)
        with pytest.raises(ServiceError):
            make_store(tmp_path).sweep(store_dataset, configs=())

    def test_evaluate_dataset_store_passthrough(self, tmp_path, store_dataset, direct_measurements):
        store = make_store(tmp_path)
        measurements = evaluate_dataset(store_dataset, store=store)
        assert store.stats.pairs_simulated == 4 * len(CONFIGS)
        assert_matches_reference(measurements, direct_measurements)


class TestCompaction:
    def warm_store(self, root, dataset, configs=CONFIGS):
        make_store(root).sweep(dataset, configs=configs)
        return make_store(root)

    def test_compact_produces_one_mmapped_file(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset)
        result = store.compact(store_dataset, configs=CONFIGS)
        assert result.pairs == 4 * len(CONFIGS)
        assert result.rows == len(store_dataset) * len(CONFIGS)
        assert result.loose_removed == 4 * len(CONFIGS)
        assert result.data_path.exists() and result.index_path.exists()
        assert not list(tmp_path.glob("shard-V*-*.npz"))  # loose files merged away
        data = np.load(result.data_path, mmap_mode="r")
        assert data.shape == (2, result.rows)

    def test_compacted_load_is_byte_identical(self, tmp_path, store_dataset, direct_measurements):
        store = self.warm_store(tmp_path, store_dataset)
        loose = store.load(store_dataset, configs=CONFIGS)
        store.compact(store_dataset, configs=CONFIGS)
        compacted_store = make_store(tmp_path)
        compacted = compacted_store.load(store_dataset, configs=CONFIGS)
        for name in CONFIGS:
            np.testing.assert_array_equal(compacted.latencies(name), loose.latencies(name))
            np.testing.assert_array_equal(compacted.energies(name), loose.energies(name))
            # V3 energies are NaN throughout; array_equal treats aligned NaNs
            # as equal, so the no-energy-model marker survives compaction.
            np.testing.assert_array_equal(
                compacted.latencies(name), direct_measurements.latencies(name)
            )
        stats = compacted_store.stats
        assert stats.pairs_loaded == 4 * len(CONFIGS)
        assert stats.pairs_compacted == 4 * len(CONFIGS)  # every pair via the mmap
        assert stats.pairs_simulated == 0

    def test_compact_refuses_an_unfinished_sweep(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        with pytest.raises(ServiceError, match="finished sweep"):
            store.compact(store_dataset, configs=CONFIGS)

    def test_extend_after_compaction_appends_loose_files(
        self, tmp_path, store_dataset, direct_measurements
    ):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1", "V2"))
        store.compact(store_dataset, configs=("V1", "V2"))
        grown = make_store(tmp_path)
        measurements = grown.extend(store_dataset, configs=CONFIGS)
        assert grown.stats.pairs_compacted == 8  # V1/V2 from the mmap
        assert grown.stats.pairs_simulated == 4  # V3 simulated fresh
        assert sorted(path.name for path in tmp_path.glob("shard-*.npz")) == sorted(
            path.name for path in tmp_path.glob("shard-V3-*.npz")
        )
        assert_matches_reference(measurements, direct_measurements)

    def test_recompaction_folds_loose_files_in(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1", "V2"))
        first = store.compact(store_dataset, configs=("V1", "V2"))
        grown = make_store(tmp_path)
        grown.extend(store_dataset, configs=CONFIGS)
        second = grown.compact(store_dataset, configs=CONFIGS)
        assert second.pairs == 4 * len(CONFIGS)
        assert not first.data_path.exists()  # superseded generation removed
        assert not list(tmp_path.glob("shard-V*-*.npz"))
        assert sorted(tmp_path.glob("shard-compact-*.npy")) == [second.data_path]
        final = make_store(tmp_path)
        final.load(store_dataset, configs=CONFIGS)
        assert final.stats.pairs_compacted == 4 * len(CONFIGS)

    def test_fully_compacted_store_reports_its_configs(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset)
        store.compact(store_dataset, configs=CONFIGS)
        assert make_store(tmp_path).available_configs() == sorted(CONFIGS)
        missing = make_store(tmp_path).missing_pairs(store_dataset, configs=CONFIGS)
        assert missing == []

    def test_parameter_caching_mode_isolates_compacted_files(self, tmp_path, store_dataset):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        store.compact(store_dataset, configs=("V1",))
        other_mode = make_store(tmp_path, enable_parameter_caching=False)
        assert other_mode.missing_pairs(store_dataset, configs=("V1",)) != []

    def test_unusable_compacted_index_reads_as_misses(
        self, tmp_path, store_dataset, direct_measurements
    ):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1", "V2"))
        result = store.compact(store_dataset, configs=("V1", "V2"))
        index = json.loads(result.index_path.read_text())
        # An entry without its column offset, in an otherwise valid index ...
        del index["entries"][0]["offset"]
        result.index_path.write_text(json.dumps(index))
        # ... plus a second index file truncated mid-write.
        truncated = tmp_path / "shard-compact-0000.json"
        truncated.write_text(result.index_path.read_text()[:40])
        make_store(tmp_path).sweep(store_dataset, configs=("V3",))
        with obs.capture(tmp_path / "trace") as tracer:
            store = make_store(tmp_path)
            measurements = store.extend(store_dataset, configs=CONFIGS)
        assert tracer.event_counts["store.compact_index_skipped"] == 2
        summary = obs.trace_summary(tmp_path / "trace")
        assert summary.counters["store.compact_index_skipped"] == 2
        # The skipped entry's pair is a miss and is re-simulated; every other
        # pair still comes from the compacted file or the loose V3 shards.
        assert store.stats.pairs_simulated == 1
        assert store.stats.pairs_compacted == 2 * 4 - 1
        assert_matches_reference(measurements, direct_measurements)

    @pytest.mark.parametrize("damage", ["truncated", "misshaped"])
    def test_unusable_compacted_data_is_counted_once_and_reads_as_misses(
        self, tmp_path, store_dataset, direct_measurements, damage
    ):
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        result = store.compact(store_dataset, configs=("V1",))
        if damage == "truncated":
            data = result.data_path.read_bytes()
            result.data_path.write_bytes(data[: len(data) // 2])
        else:
            np.save(result.data_path, np.zeros((3, len(store_dataset))))
        with obs.capture(tmp_path / "trace") as tracer:
            store = make_store(tmp_path)
            measurements = store.extend(store_dataset, configs=("V1",))
        # One data file: one event and one count, however many pairs it holds.
        assert tracer.event_counts["store.compact_data_skipped"] == 1
        assert tracer.metrics.counter_value("store.compact_data_skipped") == 1
        assert store.stats.pairs_compacted == 0
        assert store.stats.pairs_simulated == 4
        np.testing.assert_array_equal(
            measurements.latencies("V1"), direct_measurements.latencies("V1")
        )

    def test_compacted_rows_are_copies_not_mmap_views(self, tmp_path, store_dataset):
        # Callers mutate measurement arrays (analysis normalizes in place);
        # handing out read-only mmap slices would crash them.
        store = self.warm_store(tmp_path, store_dataset, configs=("V1",))
        store.compact(store_dataset, configs=("V1",))
        loaded = make_store(tmp_path).load(store_dataset, configs=("V1",))
        latencies = loaded.latencies("V1")
        latencies[0] = -1.0  # must not raise (and must not touch the file)
        again = make_store(tmp_path).load(store_dataset, configs=("V1",))
        assert again.latencies("V1")[0] != -1.0


class TestSweepService:
    @pytest.fixture()
    def warm_root(self, tmp_path, store_dataset):
        make_store(tmp_path).sweep(store_dataset, configs=CONFIGS)
        return tmp_path

    @pytest.fixture()
    def no_simulation(self, monkeypatch):
        """Any BatchSimulator kernel invocation fails the test."""

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("SweepService must not invoke the simulator")

        monkeypatch.setattr(BatchSimulator, "evaluate", forbidden)
        monkeypatch.setattr(BatchSimulator, "evaluate_table", forbidden)

    def test_queries_answered_from_disk_without_simulation(
        self, warm_root, store_dataset, direct_measurements, no_simulation
    ):
        service = SweepService(make_store(warm_root), store_dataset, configs=CONFIGS)
        assert service.config_names == list(CONFIGS)

        top = service.top_k(3)
        expected = store_dataset.top_k_by_accuracy(3)
        assert [entry.record.fingerprint for entry in top] == [
            record.fingerprint for record in expected
        ]

        front = service.pareto_front("V1")
        assert front, "frontier should not be empty"
        latencies = [point.latency_ms for point in front]
        accuracies = [point.accuracy for point in front]
        assert latencies == sorted(latencies)
        assert accuracies == sorted(accuracies)
        indices = service.pareto_front_indices("V1")
        assert [point.model_index for point in front] == list(indices)

        record = expected[0]
        assert service.latency_of(record.fingerprint, "V2") == pytest.approx(
            direct_measurements.latency_of(record, "V2")
        )
        assert service.energy_of(record.fingerprint, "V1") == pytest.approx(
            direct_measurements.energy_of(record, "V1")
        )
        assert service.energy_of(record.fingerprint, "V3") is None

    def test_unknown_fingerprint_and_config_raise(self, warm_root, store_dataset, no_simulation):
        service = SweepService(make_store(warm_root), store_dataset, configs=CONFIGS)
        with pytest.raises(DatasetError):
            service.latency_of("not-a-fingerprint", "V1")
        with pytest.raises(ServiceError, match="not served"):
            service.latency_of(store_dataset[0].fingerprint, "V9")

    def test_cold_store_is_an_error_not_a_sweep(self, tmp_path, store_dataset, no_simulation):
        with pytest.raises(ServiceError, match="missing"):
            SweepService(make_store(tmp_path), store_dataset, configs=CONFIGS)

    def test_preloaded_measurements_skip_the_disk_load(
        self, tmp_path, store_dataset, direct_measurements, no_simulation
    ):
        # A *cold* store is fine when the caller hands over the measurements:
        # nothing is loaded, nothing is simulated.
        service = SweepService(
            make_store(tmp_path),
            store_dataset,
            configs=CONFIGS,
            measurements=direct_measurements,
        )
        assert service.measurements is direct_measurements
        assert service.top_k(1)[0].record.fingerprint == (
            store_dataset.top_k_by_accuracy(1)[0].fingerprint
        )

    def test_preloaded_measurements_are_validated(
        self, tmp_path, store_dataset, direct_measurements, no_simulation
    ):
        other = NASBenchDataset(store_dataset.records[:SHARD], store_dataset.network_config)
        with pytest.raises(ServiceError, match="different dataset"):
            SweepService(
                make_store(tmp_path),
                other,
                configs=CONFIGS,
                measurements=direct_measurements,
            )
        with pytest.raises(ServiceError, match="lacks configurations"):
            SweepService(
                make_store(tmp_path),
                store_dataset,
                configs=("V1", "V9"),
                measurements=direct_measurements,
            )

    def test_preloaded_measurements_accept_fingerprint_equal_dataset(
        self, tmp_path, store_dataset, direct_measurements, no_simulation
    ):
        # Regression: the preloaded path used to compare datasets by object
        # identity (`is not`), rejecting a worker-rebuilt dataset of the same
        # population; content (fingerprints + network config) is what matters.
        rebuilt = NASBenchDataset(list(store_dataset.records), store_dataset.network_config)
        assert rebuilt is not store_dataset
        service = SweepService(
            make_store(tmp_path),
            rebuilt,
            configs=CONFIGS,
            measurements=direct_measurements,
        )
        assert service.top_k(1)[0].record.fingerprint == (
            store_dataset.top_k_by_accuracy(1)[0].fingerprint
        )

    def test_predictions_for_unseen_cells_are_cached_on_disk(
        self, warm_root, store_dataset, monkeypatch
    ):
        settings = TrainingSettings(epochs=2, seed=0)
        service = SweepService(
            make_store(warm_root), store_dataset, configs=CONFIGS, settings=settings
        )
        unseen = sample_unique_cells(3, seed=9001)
        first = service.predict(unseen, "V1")
        assert first.shape == (3,)
        assert np.isfinite(first).all()
        assert service.model_state_path("V1").exists()

        # A fresh service over the same store must restore, never refit.
        from repro.core.predictor import LearnedPerformanceModel

        def no_refit(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("cached weights should have been restored")

        monkeypatch.setattr(LearnedPerformanceModel, "fit_table", no_refit)
        restored = SweepService(
            make_store(warm_root), store_dataset, configs=CONFIGS, settings=settings
        )
        np.testing.assert_allclose(restored.predict(unseen, "V1"), first)
        assert restored.predict_cell(unseen[0], "V1") == pytest.approx(first[0])

    def test_model_cache_does_not_pollute_shard_namespace(self, warm_root, store_dataset):
        # Regression: cached weights used to land next to the shard files and
        # match the shard filename pattern, surfacing a phantom "model"
        # configuration that poisoned available_configs()-driven loads.
        service = SweepService(
            make_store(warm_root), store_dataset, configs=CONFIGS,
            settings=TrainingSettings(epochs=2, seed=0),
        )
        service.predict(sample_unique_cells(2, seed=77), "V1")
        store = make_store(warm_root)
        assert store.available_configs() == sorted(CONFIGS)
        loaded = store.load(store_dataset, configs=store.available_configs())
        assert set(loaded.config_names) == set(CONFIGS)
