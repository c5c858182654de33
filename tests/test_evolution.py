"""Pinned fixed-seed trajectories of the two regularized-evolution engines.

:class:`~repro.search.SearchEngine` (cells on fixed hardware) and
:class:`~repro.hwspace.CoSearchEngine` (cell × accelerator pairs) share one
evolution core, so every random draw, dedup probe and per-generation row
must follow the recorded trajectory exactly.  The golden file holds the
history keys in proposal order (12-character fingerprint prefixes, plus an
8-character config-digest prefix for pairs) and the ``GenerationStats`` rows.

Regenerate it (only when a trajectory change is intended) with::

    PYTHONPATH=src python tests/test_evolution.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import obs
from repro.core import TrainingSettings
from repro.hwspace import AcceleratorSpace, CoSearchEngine, CoSearchSpec
from repro.search import SearchEngine, SearchSpec

GOLDEN = Path(__file__).parent / "golden" / "evolution_trajectories.json"

#: The ``bench_search`` smoke spec (``REPRO_BENCH_SEARCH_POP=12``,
#: ``REPRO_BENCH_SEARCH_GENS=5``) of the evolution strategy.
SEARCH_SPEC = SearchSpec(
    strategy="evolution",
    population_size=12,
    generations=5,
    seed=7,
    tournament_size=4,
    pool_factor=3,
    min_accuracy=0.92,
    predictor_settings=TrainingSettings(epochs=4),
)

COSEARCH_SPEC = CoSearchSpec(population_size=16, generations=6, seed=0, min_accuracy=0.92)
COSEARCH_AXES = {
    "clock_mhz": [800.0, 1066.0, 1250.0],
    "pes_x": [2, 4, 8],
    "cores_per_pe": [2, 4],
    "compute_lanes": [32, 64],
}


def _short_pair_key(key: str) -> str:
    fingerprint, digest = key.split("@")
    return f"{fingerprint[:12]}@{digest[:8]}"


def observed() -> dict:
    """The trajectories both engines produce."""
    search = SearchEngine(SEARCH_SPEC).run()
    cosearch = CoSearchEngine(COSEARCH_SPEC, AcceleratorSpace(COSEARCH_AXES)).run()
    return {
        "search": {
            "history": [record.fingerprint[:12] for record in search.dataset],
            "generations": [dataclasses.asdict(row) for row in search.generations],
        },
        "cosearch": {
            "history": [_short_pair_key(record.key) for record in cosearch.pairs],
            "generations": [dataclasses.asdict(row) for row in cosearch.generations],
        },
    }


@pytest.fixture(scope="module")
def trajectories():
    return observed(), json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine", ["search", "cosearch"])
def test_history_matches_the_golden_order(trajectories, engine):
    actual, golden = trajectories
    assert actual[engine]["history"] == golden[engine]["history"]


@pytest.mark.parametrize("engine", ["search", "cosearch"])
def test_generation_rows_match_the_golden_rows(trajectories, engine):
    actual, golden = trajectories
    assert len(actual[engine]["generations"]) == len(golden[engine]["generations"])
    for row, expected in zip(actual[engine]["generations"], golden[engine]["generations"]):
        assert row == pytest.approx(expected, rel=1e-9)


# A crowded sub-space (4 vertices, 3 edges) so mutation neighborhoods run dry
# and both engines take the random fallback; the exact counts pin every
# dedup probe of the shared core.
TINY_SPACE = AcceleratorSpace(
    {"clock_mhz": [800.0, 1066.0], "pes_x": [2, 4], "compute_lanes": [32, 64]}
)
TINY = dict(population_size=4, generations=4, seed=1, max_vertices=4, max_edges=3)


@pytest.mark.parametrize(
    "prefix, run, expected",
    [
        (
            "search",
            lambda: SearchEngine(SearchSpec(**TINY)).run(),
            {"candidates_checked": 250, "dedup_rejects": 246, "random_fallbacks": 8},
        ),
        (
            "cosearch",
            lambda: CoSearchEngine(CoSearchSpec(**TINY), TINY_SPACE).run(),
            {"candidates_checked": 101, "dedup_rejects": 95, "random_fallbacks": 3},
        ),
    ],
)
def test_engines_emit_their_dedup_counters(tmp_path, prefix, run, expected):
    with obs.capture(tmp_path / "trace") as tracer:
        run()
    counters = {name: tracer.metrics.counter_value(f"{prefix}.{name}") for name in expected}
    assert counters == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(observed(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
