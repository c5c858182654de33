"""Output checks of the benchmark workloads.

Each check returns a list of problems (empty when the output is right), so a
run can report every failed check at once and the benchmark's tests can feed
a deliberately perturbed output to each of them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Relative tolerance of every float comparison (the simulator's and the
#: batched predictor's documented equivalence bound).
RTOL = 1e-9

#: Digests of the full-size outputs at the default seed.  The simulator is
#: meant to produce identical measurements across speed-only changes, so a
#: change of these values is a change of results.
PINNED_DIGESTS = {
    "paper_sweep": "a6321f7eb0b3bc93",
    "hw_grid": "5e9ec400be3bfcd3",
    "serve": "a6321f7eb0b3bc93",
}


def pinned_mismatch(workload: str, digest: str) -> list[str]:
    """The problem of a digest that differs from its pinned value."""
    expected = PINNED_DIGESTS[workload]
    if digest != expected:
        return [f"{workload}: output digest {digest} differs from the pinned {expected}"]
    return []


def oracle_mismatches(dataset, measurements, picks) -> list[str]:
    """Compare swept (model, config) pairs with the scalar simulator.

    *picks* are ``(model index, AcceleratorConfig)`` pairs.  Latency and
    energy must agree within :data:`RTOL`; a configuration without an energy
    model must keep NaN energy.
    """
    from repro import PerformanceSimulator

    problems = []
    for index, config in picks:
        record = dataset[index]
        expected = PerformanceSimulator(config).simulate_cell(
            record.cell, dataset.network_config
        )
        latency = float(measurements.latencies(config.name)[index])
        energy = float(measurements.energies(config.name)[index])
        where = f"model {index} ({record.fingerprint[:12]}) on {config.name}"
        if not math.isclose(latency, expected.latency_ms, rel_tol=RTOL):
            problems.append(f"{where}: latency {latency!r} != oracle {expected.latency_ms!r}")
        if expected.energy_mj is None:
            if not math.isnan(energy):
                problems.append(f"{where}: energy {energy!r} should be NaN")
        elif not math.isclose(energy, expected.energy_mj, rel_tol=RTOL):
            problems.append(f"{where}: energy {energy!r} != oracle {expected.energy_mj!r}")
    return problems


def grid_digest(measurements, configs, fronts) -> str:
    """Digest of a grid sweep's arrays and its hardware Pareto fronts."""
    digest = hashlib.sha256()
    for config in configs:
        digest.update(config.name.encode())
        digest.update(np.ascontiguousarray(measurements.latencies(config.name)).tobytes())
        digest.update(np.ascontiguousarray(measurements.energies(config.name)).tobytes())
    for cost, front in fronts.items():
        digest.update(cost.encode())
        for point in front:
            digest.update(point.digest.encode())
            digest.update(
                np.array(
                    [point.mean_latency_ms, point.median_latency_ms, point.mean_energy_mj]
                ).tobytes()
            )
    return digest.hexdigest()[:16]


def same_result(kind: str, served: dict, expected: dict) -> bool:
    """Whether a served answer matches the expected one (predictions within RTOL)."""
    if kind != "predict":
        return served == expected
    got, want = served.get("values"), expected.get("values")
    if not isinstance(got, list) or len(got) != len(want):
        return False
    return all(math.isclose(a, b, rel_tol=RTOL) for a, b in zip(got, want))


def served_mismatches(served: dict, service) -> list[str]:
    """Compare every distinct served answer with the in-process query.

    *served* maps a request key to ``(request, result payload)`` as the
    client received it.  Answers must be equal; predictions within
    :data:`RTOL`, because a coalesced batch may round differently from a
    single-request forward pass.
    """
    problems = []
    for key, (request, result) in served.items():
        expected = service.query(request).result
        if not same_result(request.kind, result, expected):
            problems.append(f"served {key!r}: {result!r} != in-process {expected!r}")
    return problems

