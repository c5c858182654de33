"""Hardware design-space sweep throughput of the config-axis grid path.

A design-space study multiplies the sweep cost by the size of the hardware
grid: the same population is re-simulated on every configuration.  The
config-axis path (:meth:`BatchSimulator.evaluate_table_grid`) broadcasts the
configuration scalars as :class:`~repro.arch.ConfigTable` columns, runs the
fused kernel once over the whole grid, and factorizes the mapping/cache
kernels over the distinct sub-configurations they read (a clock axis is
free).  Sampled (model, configuration) cells are checked against the scalar
:class:`~repro.simulator.PerformanceSimulator` oracle before timing.

The headline is the machine-normalized rate ``grid_evals_per_calibration``
= (model, config) evaluations/sec × ``calibration_seconds``.  The primary
population is generation-scale (tens of models) — the shape the grid path
actually serves in the co-search inner loop, predictor pools and
incremental store extends.  A second, larger population is reported for
context.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro.hwspace import AcceleratorSpace
from repro.nasbench import NASBenchDataset
from repro.nasbench.layer_table import LayerTable
from repro.simulator import BatchSimulator, PerformanceSimulator

from _reporting import machine_calibration, report, report_json

#: Models in the primary (generation-scale) swept population.
HW_MODELS = int(os.environ.get("REPRO_BENCH_HW_MODELS", "48"))
#: Models in the context (population-scale) row; 0 skips it.
HW_LARGE_MODELS = int(os.environ.get("REPRO_BENCH_HW_LARGE_MODELS", "200"))
#: Hardware grid size cap (the full axes give 36 points; smoke mode trims).
HW_CONFIGS = int(os.environ.get("REPRO_BENCH_HW_CONFIGS", "36"))
#: Timed repetitions (best-of).
HW_ROUNDS = int(os.environ.get("REPRO_BENCH_HW_ROUNDS", "3"))
#: (model, config) cells checked against the scalar oracle per population.
ORACLE_CELLS = 8

#: The benchmark grid: clock x PE geometry x cores x lanes around V1.
SPACE = AcceleratorSpace(
    {
        "clock_mhz": [800.0, 1066.0, 1250.0],
        "pes_x": [2, 4, 8],
        "cores_per_pe": [2, 4],
        "compute_lanes": [32, 64],
    }
)


def _best_of(rounds, run):
    timings = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def _measure(num_models, configs, simulator, seed=2022):
    """Best-of grid timing on one population; checks cells against the oracle."""
    dataset = NASBenchDataset.generate(num_models=num_models, seed=seed)
    networks = [record.build_network(dataset.network_config) for record in dataset]
    table = LayerTable.from_networks(networks)

    def grid_sweep():
        return simulator.evaluate_table_grid(table, configs)

    # Warm-up + equivalence guard against the scalar engine.
    grid_latency, grid_energy = grid_sweep()
    rng = np.random.default_rng(seed)
    for _ in range(ORACLE_CELLS):
        model, row = int(rng.integers(num_models)), int(rng.integers(len(configs)))
        scalar = PerformanceSimulator(configs[row]).simulate(networks[model])
        np.testing.assert_allclose(grid_latency[row, model], scalar.latency_ms, rtol=1e-9)
        np.testing.assert_allclose(grid_energy[row, model], scalar.energy_mj, rtol=1e-9)

    grid_elapsed, _ = _best_of(HW_ROUNDS, grid_sweep)
    return grid_sweep, grid_elapsed


def test_hwsweep_throughput(benchmark):
    configs = list(itertools.islice(SPACE.enumerate(), HW_CONFIGS))
    simulator = BatchSimulator()

    grid_sweep, grid_elapsed = _measure(HW_MODELS, configs, simulator)
    benchmark.pedantic(grid_sweep, rounds=1, iterations=1)

    grid_rate = HW_MODELS * len(configs) / grid_elapsed

    benchmark.extra_info["grid_configs"] = len(configs)
    benchmark.extra_info["models"] = HW_MODELS
    benchmark.extra_info["grid_evals_per_sec"] = round(grid_rate, 1)

    lines = [
        "Hardware design-space sweep — (model, config) evaluations/sec over "
        f"a {len(configs)}-configuration grid",
        f"{'engine':<34}{'evals/sec':>14}{'elapsed (s)':>14}",
        f"{f'config-axis grid ({HW_MODELS} models)':<34}{grid_rate:>14.1f}{grid_elapsed:>14.3f}",
    ]

    if HW_LARGE_MODELS:
        _, large_elapsed = _measure(HW_LARGE_MODELS, configs, simulator)
        large_rate = HW_LARGE_MODELS * len(configs) / large_elapsed
        benchmark.extra_info["large_models"] = HW_LARGE_MODELS
        benchmark.extra_info["large_grid_evals_per_sec"] = round(large_rate, 1)
        lines.append(
            f"{f'config-axis grid ({HW_LARGE_MODELS} models)':<34}"
            f"{large_rate:>14.1f}{large_elapsed:>14.3f}"
        )
    report("hwsweep_throughput", lines)
    report_json(
        "hwsweep_throughput",
        headline={"grid_evals_per_calibration": grid_rate * machine_calibration()},
        population={"models": HW_MODELS, "configs": len(configs)},
        metrics={"grid_evals_per_sec": grid_rate},
    )
