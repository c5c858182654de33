"""Sweep throughput: scalar oracle walk vs the vectorized batch engine.

The paper's headline experiment needs ~1.5M latency simulations; this
benchmark tracks how fast the reproduction can sweep its population
(models/sec, counting one model as one model simulated on *all* studied
configurations).  The scalar rate is a per-model
:class:`~repro.simulator.PerformanceSimulator` loop (network expansion
included) measured on a subset, the vectorized rate
:func:`~repro.simulator.evaluate_dataset` on the full shared bench
population; the vectorized engine must beat the scalar walk by at least 5x.
"""

from __future__ import annotations

import os
import time

from repro.simulator import PerformanceSimulator, evaluate_dataset

from _reporting import report, report_json

#: Scalar subset size: big enough for a stable rate, small enough to keep the
#: benchmark turnaround reasonable.
SCALAR_SUBSET_MODELS = int(os.environ.get("REPRO_BENCH_SCALAR_MODELS", "120"))


def _timed_rate(sweep, num_models: int) -> tuple[float, float]:
    """Run *sweep* once and return (models/sec, elapsed seconds)."""
    start = time.perf_counter()
    sweep()
    elapsed = time.perf_counter() - start
    return num_models / elapsed, elapsed


def _scalar_sweep(records, network_config, configs) -> None:
    """The per-model oracle walk: expand each network once, simulate per config."""
    networks = [record.build_network(network_config) for record in records]
    for config in configs:
        simulator = PerformanceSimulator(config)
        for network in networks:
            simulator.simulate(network)


def test_sweep_throughput(benchmark, bench_dataset, bench_configs):
    configs = list(bench_configs.values())
    subset = bench_dataset.records[:SCALAR_SUBSET_MODELS]

    scalar_rate, scalar_elapsed = _timed_rate(
        lambda: _scalar_sweep(subset, bench_dataset.network_config, configs), len(subset)
    )

    def vectorized_sweep():
        evaluate_dataset(bench_dataset, configs=configs)

    # The vectorized sweep is the tracked benchmark metric.
    benchmark.pedantic(vectorized_sweep, rounds=1, iterations=1)
    vectorized_rate, vectorized_elapsed = _timed_rate(vectorized_sweep, len(bench_dataset))

    benchmark.extra_info["scalar_models_per_sec"] = round(scalar_rate, 1)
    benchmark.extra_info["vectorized_models_per_sec"] = round(vectorized_rate, 1)
    benchmark.extra_info["vectorized_speedup"] = round(vectorized_rate / scalar_rate, 1)

    lines = [
        "Sweep throughput — models/sec over the V1/V2/V3 configuration sweep",
        f"(scalar measured on {len(subset)} models, vectorized on "
        f"{len(bench_dataset)} models)",
        f"{'engine':<28}{'models/sec':>12}{'elapsed (s)':>14}{'speedup':>10}",
        f"{'scalar (per-model loop)':<28}{scalar_rate:>12.1f}{scalar_elapsed:>14.3f}"
        f"{1.0:>10.1f}",
        f"{'vectorized':<28}{vectorized_rate:>12.1f}"
        f"{vectorized_elapsed:>14.3f}{vectorized_rate / scalar_rate:>10.1f}",
    ]
    report("sweep_throughput", lines)
    report_json(
        "sweep_throughput",
        headline={"vectorized_speedup": vectorized_rate / scalar_rate},
        population={
            "models": len(bench_dataset),
            "scalar_models": len(subset),
            "configs": len(configs),
        },
        metrics={
            "scalar_models_per_sec": scalar_rate,
            "vectorized_models_per_sec": vectorized_rate,
        },
    )

    assert vectorized_rate >= 5.0 * scalar_rate, (
        f"vectorized sweep only {vectorized_rate / scalar_rate:.1f}x the scalar rate"
    )
