"""Fused compile-and-time kernel throughput over a wide hardware grid.

The fused kernel (:func:`repro.simulator.fused.compile_and_time_table`) is
the production implementation of mapping → cache planning → timing →
energy.  It keeps the mapping/cache results at their
unique-sub-configuration resolution and streams the config axis in
cache-sized chunks through preallocated scratch buffers, producing latency
and energy for the whole grid in one pass.  Its results are checked against
the scalar :class:`~repro.simulator.PerformanceSimulator` oracle on a few
(model, configuration) cells before timing.

The headline is the machine-normalized rate ``fused_evals_per_calibration``
= (model, config) evaluations/sec × ``calibration_seconds``, so a baseline
measured on one host gates a run on another.  The fused pass with
forward-mode sensitivities enabled is reported as a context row.

Smoke mode (``REPRO_BENCH_FUSION_SMOKE=1``) shrinks the population for CI and
writes its JSON under the ``backend_fusion_smoke`` experiment so the
committed full-scale baseline is never compared against smoke numbers.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro.hwspace import AcceleratorSpace
from repro.nasbench import NASBenchDataset
from repro.nasbench.layer_table import LayerTable
from repro.simulator import PerformanceSimulator, compile_and_time_table

from _reporting import machine_calibration, report, report_json

#: CI smoke mode: small population, separate experiment name.
SMOKE = os.environ.get("REPRO_BENCH_FUSION_SMOKE", "") == "1"

#: Models of the swept population (headline scale: 10k).
FUSION_MODELS = int(os.environ.get("REPRO_BENCH_FUSION_MODELS", "160" if SMOKE else "10000"))
#: Hardware grid size for the fused kernel (headline scale: >= 100).
FUSION_CONFIGS = int(os.environ.get("REPRO_BENCH_FUSION_CONFIGS", "12" if SMOKE else "120"))
#: Timed repetitions (best-of).
FUSION_ROUNDS = int(os.environ.get("REPRO_BENCH_FUSION_ROUNDS", "2"))
#: (model, config) cells checked against the scalar oracle before timing.
ORACLE_CELLS = 8

EXPERIMENT = "backend_fusion_smoke" if SMOKE else "backend_fusion"

#: Grid around V1: clock x PE geometry x cores x lanes x I/O (120 points).
SPACE = AcceleratorSpace(
    {
        "clock_mhz": [600.0, 800.0, 1066.0, 1250.0, 1500.0],
        "pes_x": [2, 4, 8],
        "cores_per_pe": [2, 4],
        "compute_lanes": [32, 64],
        "io_bandwidth_gbps": [8.0, 16.0],
    }
)


def _best_of(rounds, run):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_backend_fusion(benchmark):
    dataset = NASBenchDataset.generate(num_models=FUSION_MODELS, seed=2022)
    networks = [record.build_network(dataset.network_config) for record in dataset]
    table = LayerTable.from_networks(networks)
    configs = list(itertools.islice(SPACE.enumerate(), FUSION_CONFIGS))

    # Equivalence guard (and warm-up): sampled cells of the fused grid must
    # match the scalar oracle.
    fused = compile_and_time_table(table, configs)
    rng = np.random.default_rng(0)
    for _ in range(ORACLE_CELLS):
        model, row = int(rng.integers(len(dataset))), int(rng.integers(len(configs)))
        scalar = PerformanceSimulator(configs[row]).simulate(networks[model])
        np.testing.assert_allclose(fused.latency_ms[row, model], scalar.latency_ms, rtol=1e-9)
        np.testing.assert_allclose(fused.energy_mj[row, model], scalar.energy_mj, rtol=1e-9)
    # The sensitivity columns ride the primal's chunk loop and buffers, so a
    # sensitivity run must leave latency and energy bit-identical.
    duals = compile_and_time_table(table, configs, sensitivities=True)
    np.testing.assert_array_equal(duals.latency_ms, fused.latency_ms)
    np.testing.assert_array_equal(duals.energy_mj, fused.energy_mj)

    fused_elapsed, _ = _best_of(FUSION_ROUNDS, lambda: compile_and_time_table(table, configs))
    dual_elapsed, _ = _best_of(
        FUSION_ROUNDS, lambda: compile_and_time_table(table, configs, sensitivities=True)
    )
    benchmark.pedantic(lambda: compile_and_time_table(table, configs), rounds=1, iterations=1)

    fused_rate = len(dataset) * len(configs) / fused_elapsed
    dual_rate = len(dataset) * len(configs) / dual_elapsed
    dual_overhead = fused_rate / dual_rate

    benchmark.extra_info["models"] = len(dataset)
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["fused_evals_per_sec"] = round(fused_rate, 1)

    lines = [
        "Fused kernel — (model, config) evaluations/sec, "
        f"{len(dataset)} models x {len(configs)} configs ({table.macs.size} layer rows)",
        f"{'engine':<42}{'evals/sec':>12}{'elapsed (s)':>13}",
        f"{f'fused kernel ({len(configs)} configs)':<42}{fused_rate:>12.1f}{fused_elapsed:>13.3f}",
        f"{f'fused + sensitivities ({len(configs)} configs)':<42}"
        f"{dual_rate:>12.1f}{dual_elapsed:>13.3f}",
    ]
    report(EXPERIMENT, lines)
    report_json(
        EXPERIMENT,
        headline={"fused_evals_per_calibration": fused_rate * machine_calibration()},
        population={
            "models": len(dataset),
            "configs": len(configs),
            "layer_rows": int(table.macs.size),
        },
        metrics={
            "fused_evals_per_sec": fused_rate,
            "dual_evals_per_sec": dual_rate,
            "sensitivity_overhead_x": dual_overhead,
        },
    )
