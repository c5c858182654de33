"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench -q`` from the root of the repository.
Every workload runs in a child process, as the benchmark's command does, so
its tracing and patched layer calls never leak into the test process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    RTOL,
    grid_digest,
    oracle_mismatches,
    pinned_mismatch,
    served_mismatches,
)
from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from layers import LayerRecorder, probes  # noqa: E402
from workloads import scaled_serve_figures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1", *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_emits_every_declared_metric(trace):
    status, lines = run_benchmark("--workload", "all", "--seed", "3", "--trace", trace)
    assert status == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for workload in SPEC["workloads"]:
        name = workload["name"]
        emitted = {
            key.split("/", 1)[1]: value
            for key, value in result["metrics"].items()
            if key.startswith(f"{name}/")
        }
        assert list(emitted) == [metric["name"] for metric in declared]
        for metric in declared:
            assert metric["better"] in ("lower", "higher")
            assert emitted[metric["name"]]["unit"] == metric["unit"]
            assert np.isfinite(emitted[metric["name"]]["value"])
            # The readable report names each metric with its unit and direction.
            suffix = f"{metric['unit']}  ({metric['better']} is better)"
            assert any(
                line.split()[0] == metric["name"] and line.endswith(suffix)
                for line in lines
                if line.strip()
            )


def test_missing_program_source_fails_without_result(tmp_path):
    copy = tmp_path / "checkout"
    (copy / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (copy / "perfbench" / path.name).write_text(path.read_text())
    (copy / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hw_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.fixture(scope="module")
def swept():
    from repro import BatchSimulator, NASBenchDataset, get_config

    dataset = NASBenchDataset.generate(12, seed=5)
    configs = [get_config(name) for name in ("V1", "V2", "V3")]
    return dataset, configs, BatchSimulator().evaluate(dataset, configs=configs)


def altered(measurements, config_name: str, index: int, latency_factor=1.0, energy=None):
    from repro import MeasurementSet

    latencies = {name: measurements.latencies(name).copy() for name in measurements.config_names}
    energies = {name: measurements.energies(name).copy() for name in measurements.config_names}
    latencies[config_name][index] *= latency_factor
    if energy is not None:
        energies[config_name][index] = energy
    return MeasurementSet(measurements.dataset, latencies, energies)


def test_oracle_check_rejects_an_altered_latency(swept):
    dataset, configs, measurements = swept
    picks = [(index, config) for index in (0, 7) for config in configs]
    assert oracle_mismatches(dataset, measurements, picks) == []
    perturbed = altered(measurements, "V2", 7, latency_factor=1 + 100 * RTOL)
    problems = oracle_mismatches(dataset, perturbed, picks)
    assert len(problems) == 1 and "V2" in problems[0] and "latency" in problems[0]
    # V3 has no energy model: a number where NaN belongs is an error too.
    problems = oracle_mismatches(dataset, altered(measurements, "V3", 0, energy=1.0), picks)
    assert len(problems) == 1 and "NaN" in problems[0]


def test_digests_reject_an_altered_latency(swept):
    _, configs, measurements = swept
    perturbed = altered(measurements, "V1", 3, latency_factor=1 + RTOL)
    digest = grid_digest(measurements, configs, {})
    assert digest == grid_digest(measurements, configs, {})
    assert grid_digest(perturbed, configs, {}) != digest
    assert pinned_mismatch("hw_grid", digest)


def test_served_check_rejects_an_altered_response(swept, tmp_path):
    from repro import (
        MeasurementStore,
        MetricRequest,
        PredictRequest,
        SweepService,
        TopKRequest,
        sample_unique_cells,
    )

    dataset, configs, _ = swept
    store = MeasurementStore(tmp_path / "store")
    store.extend(dataset, configs=configs)
    service = SweepService(store, dataset)
    unseen = [cell for cell in sample_unique_cells(6, seed=99) if cell not in dataset][:2]
    requests = {
        "metric": MetricRequest(dataset[4].fingerprint, "V3", "energy"),
        "top_k": TopKRequest(k=3),
        "predict": PredictRequest(tuple(unseen), "V1"),
    }
    served = {key: (request, service.query(request).result) for key, request in requests.items()}
    assert served_mismatches(served, service) == []

    wrong_metric = dict(served)
    wrong_metric["metric"] = (requests["metric"], {"value": 1.0})
    assert len(served_mismatches(wrong_metric, service)) == 1

    request, result = served["predict"]
    nudged = {"values": [result["values"][0] * (1 + 100 * RTOL), *result["values"][1:]]}
    assert len(served_mismatches({"predict": (request, nudged)}, service)) == 1
    # Within the tolerance a re-batched prediction is accepted.
    close = {"values": [value * (1 + RTOL / 10) for value in result["values"]]}
    assert served_mismatches({"predict": (request, close)}, service) == []


def test_recorder_times_nested_layer_calls_and_restores_them(swept):
    import repro.nasbench.dataset as dataset_module
    from repro import NASBenchDataset, build_network

    dataset, _, _ = swept
    recorder = LayerRecorder()
    with recorder.installed(probes()):
        assert dataset_module.build_network is not build_network
        NASBenchDataset.from_cells([record.cell for record in dataset])
    assert dataset_module.build_network is build_network

    records, expand = recorder.get("nasbench.records"), recorder.get("nasbench.expand")
    assert records.calls == 1 and expand.calls == len(dataset)
    assert records.self_s == pytest.approx(records.wall_s - expand.wall_s, abs=1e-6)
    assert recorder.get("core.fit").calls == 0
    start, end = recorder.intervals[0]
    assert recorder.covered_s(start, end) == pytest.approx(end - start)


def test_host_speed_scales_a_time_by_the_slowdown_sampled_around_it():
    host = HostSpeed()
    host.samples = [NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S]
    assert host.slowdown() == pytest.approx(2.0)
    assert host.scale(1.0, since=1) == pytest.approx(0.5)


def test_serve_figures_follow_the_slowdown_by_their_elasticity():
    raw = {"throughput_per_s": 1000.0, "latency_ms": 0.4, "latency_tail_ms": 8.0}
    assert scaled_serve_figures(raw, 1.0) == raw
    scaled = scaled_serve_figures(raw, 2.0)
    assert scaled["throughput_per_s"] == pytest.approx(1000.0 * 2**0.75)
    assert scaled["latency_ms"] == pytest.approx(0.2)
    assert scaled["latency_tail_ms"] == pytest.approx(8.0 / 2**0.3)
