"""Fused compile-and-time kernel: parity with the scalar oracle, duals vs FD.

Two layers of guarantees:

* **scalar-oracle parity** — the fused kernel, the production
  implementation of mapping → cache → timing → energy, must reproduce the
  scalar :class:`~repro.simulator.PerformanceSimulator` within 1e-9
  relative in both parameter-caching modes, on the studied classes plus
  mutated designs and on random cells × random accelerator grids (including
  batch size and bit-widths); energy is NaN exactly where the configuration
  has no energy model;
* **forward-mode sensitivities vs central finite differences** — the clock
  tangent against the fused primal re-run at perturbed clocks, the SRAM
  tangent against :func:`relaxed_latency_ms`, the relaxed frozen-plan model
  it differentiates, both at 1e-6 relative tolerance; the sensitivity run
  shares the primal's chunk loop, so its latency/energy must be bit-equal;
* **metamorphic properties** — isomorphic cells time alike, and a faster
  clock never makes a design slower.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import EDGE_TPU_V1, EDGE_TPU_V2, EDGE_TPU_V3, STUDIED_CONFIGS
from repro.arch.config_table import ConfigTable
from repro.arch.energy import energy_parameters_for
from repro.arch.interconnect import on_chip_bytes_per_cycle, sustained_bytes_per_cycle
from repro.hwspace import AcceleratorSpace
from repro.nasbench import (
    NASBenchDataset,
    NetworkConfig,
    build_network,
    compute_vertex_channels,
    random_cell,
)
from repro.nasbench.hashing import permute_cell
from repro.nasbench.layer_table import LayerTable
from repro.simulator import BatchSimulator, PerformanceSimulator, compile_and_time_table
from repro.simulator.fused import _unique_level_arrays

RTOL = 1e-9

#: Studied classes plus three mutated designs (clock, geometry, cache axes).
MUTATED_CONFIGS = [
    EDGE_TPU_V1.with_overrides(name="hw-fast-clock", clock_mhz=1250.0),
    EDGE_TPU_V1.with_overrides(name="hw-wide-grid", pes_x=8, pes_y=2, compute_lanes=32),
    EDGE_TPU_V2.with_overrides(
        name="hw-small-cache", pe_memory_cache_fraction=0.25, cores_per_pe=2
    ),
]
PARITY_CONFIGS = list(STUDIED_CONFIGS.values()) + MUTATED_CONFIGS

#: Candidate values per grid axis for the random-grid property.
GRID_AXES = {
    "clock_mhz": [600.0, 800.0, 1250.0],
    "pes_x": [2, 4, 8],
    "cores_per_pe": [2, 4],
    "compute_lanes": [32, 64],
    "pe_memory_cache_fraction": [0.0, 0.25, 0.75],
    "io_bandwidth_gbps": [4.0, 16.0],
    "batch_size": [1, 2, 8],
    "weight_bits": [4, 8, 16],
    "activation_bits": [4, 8, 16],
}


@pytest.fixture(scope="module")
def fused_dataset():
    return NASBenchDataset.generate(num_models=24, seed=17)


@pytest.fixture(scope="module")
def fused_networks(fused_dataset):
    return [record.build_network(fused_dataset.network_config) for record in fused_dataset]


@pytest.fixture(scope="module")
def fused_table(fused_networks):
    return LayerTable.from_networks(fused_networks)


def assert_matches_scalar(result, networks, configs, caching=True):
    """Every (config, model) cell of a fused result against the scalar engine."""
    for index, config in enumerate(configs):
        simulator = PerformanceSimulator(config, enable_parameter_caching=caching)
        scalar = [simulator.simulate(network) for network in networks]
        np.testing.assert_allclose(
            result.latency_ms[index], [run.latency_ms for run in scalar], rtol=RTOL
        )
        if energy_parameters_for(config).available:
            np.testing.assert_allclose(
                result.energy_mj[index], [run.energy_mj for run in scalar], rtol=RTOL
            )
        else:
            assert all(run.energy_mj is None for run in scalar)
            assert np.isnan(result.energy_mj[index]).all()


def relaxed_latency_ms(table, configs, caching, sram_scale):
    """Latency (C, M) of the relaxed frozen-plan cache model at a scaled SRAM size.

    The model the SRAM tangent differentiates: branch masks stay at the
    planned (scale 1) operating point, streamed bytes move linearly with the
    scale and refill bytes opposite, so the latency is linear in the scale.
    """
    config_table = ConfigTable.from_configs(configs)
    unique = _unique_level_arrays(table, config_table, caching, need_slope=True)
    rows_m, rows_c = unique.inverse_mapping, unique.inverse_cache
    batch = config_table.batch_size
    compute = batch * unique.compute_cycles[rows_m]
    dram = unique.stream_bytes[rows_c] + batch * unique.act_dram_bytes[rows_c]
    refill = unique.refill_bytes[rows_c]
    sustained = sustained_bytes_per_cycle(config_table)
    on_chip = on_chip_bytes_per_cycle(config_table)
    dram_mask = dram / sustained >= refill / on_chip
    memory_mask = np.maximum(dram / sustained, refill / on_chip) > compute
    shift = unique.dstreamed_dscale[rows_c] * (sram_scale - 1.0)
    memory = np.where(dram_mask, (dram + shift) / sustained, (refill - shift) / on_chip)
    total = np.where(memory_mask, memory, compute) + config_table.layer_overhead_cycles
    cycles = config_table.inference_overhead_cycles + np.add.reduceat(
        total, table.segment_starts, axis=-1
    )
    return cycles / config_table.clock_hz * 1e3


class TestFusedParity:
    @pytest.mark.parametrize("caching", [True, False])
    def test_fused_matches_scalar_oracle(self, fused_networks, fused_table, caching):
        result = compile_and_time_table(
            fused_table, PARITY_CONFIGS, enable_parameter_caching=caching
        )
        assert_matches_scalar(result, fused_networks, PARITY_CONFIGS, caching)

    @settings(max_examples=15, deadline=None)
    @given(
        cell_seed=st.integers(min_value=0, max_value=10**6),
        axes=st.lists(st.sampled_from(sorted(GRID_AXES)), min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def test_random_cells_on_random_grids_match_scalar(self, cell_seed, axes, data):
        rng = np.random.default_rng(cell_seed)
        networks = [build_network(random_cell(rng)) for _ in range(3)]
        grid = {
            name: data.draw(
                st.lists(st.sampled_from(GRID_AXES[name]), min_size=1, max_size=2, unique=True)
            )
            for name in axes
        }
        # The studied V3 has no published energy model; every grid point does.
        configs = list(AcceleratorSpace(grid).enumerate()) + [EDGE_TPU_V3]
        result = compile_and_time_table(LayerTable.from_networks(networks), configs)
        assert_matches_scalar(result, networks, configs)

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_chunking_does_not_change_results(self, fused_table, chunk):
        baseline = compile_and_time_table(fused_table, PARITY_CONFIGS)
        duals = compile_and_time_table(fused_table, PARITY_CONFIGS, sensitivities=True)
        for sensitivities in (False, True):
            chunked = compile_and_time_table(
                fused_table, PARITY_CONFIGS, config_chunk=chunk, sensitivities=sensitivities
            )
            # The sensitivity run shares the primal's buffers: same bits.
            np.testing.assert_array_equal(chunked.latency_ms, baseline.latency_ms)
            np.testing.assert_array_equal(chunked.energy_mj, baseline.energy_mj)
        np.testing.assert_array_equal(chunked.dlatency_dclock_ghz, duals.dlatency_dclock_ghz)
        np.testing.assert_array_equal(chunked.dlatency_dsram_byte, duals.dlatency_dsram_byte)

    def test_batch_simulator_routes_grid_through_fused_by_default(self, fused_table):
        latency, energy = BatchSimulator().evaluate_table_grid(fused_table, PARITY_CONFIGS)
        result = compile_and_time_table(fused_table, PARITY_CONFIGS)
        np.testing.assert_array_equal(latency, result.latency_ms)
        np.testing.assert_array_equal(energy, result.energy_mj)


class TestSensitivities:
    def test_disabled_by_default(self, fused_table):
        result = compile_and_time_table(fused_table, PARITY_CONFIGS)
        assert result.dlatency_dclock_ghz is None
        assert result.dlatency_dsram_byte is None

    def test_clock_dual_matches_fused_finite_difference(self, fused_table):
        result = compile_and_time_table(fused_table, MUTATED_CONFIGS, sensitivities=True)
        h_mhz = 0.05  # +- 50 kHz around each design's clock

        def shifted(delta_mhz):
            configs = [
                config.with_overrides(clock_mhz=config.clock_mhz + delta_mhz)
                for config in MUTATED_CONFIGS
            ]
            return compile_and_time_table(fused_table, configs).latency_ms

        fd = (shifted(h_mhz) - shifted(-h_mhz)) / (2.0 * h_mhz * 1e-3)  # per GHz
        np.testing.assert_allclose(result.dlatency_dclock_ghz, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("caching", [True, False])
    def test_sram_dual_matches_relaxed_model_finite_difference(self, fused_table, caching):
        result = compile_and_time_table(
            fused_table, MUTATED_CONFIGS, enable_parameter_caching=caching, sensitivities=True
        )
        # At the operating point the relaxed model is the kernel's primal.
        np.testing.assert_allclose(
            relaxed_latency_ms(fused_table, MUTATED_CONFIGS, caching, 1.0),
            result.latency_ms,
            rtol=1e-12,
        )
        h = 1e-4
        plus = relaxed_latency_ms(fused_table, MUTATED_CONFIGS, caching, 1.0 + h)
        minus = relaxed_latency_ms(fused_table, MUTATED_CONFIGS, caching, 1.0 - h)
        fd_per_scale = (plus - minus) / (2.0 * h)
        total_bytes = np.array(
            [config.total_on_chip_memory_bytes for config in MUTATED_CONFIGS], dtype=np.float64
        )
        analytic_per_scale = result.dlatency_dsram_byte * total_bytes[:, None]
        np.testing.assert_allclose(analytic_per_scale, fd_per_scale, rtol=1e-6, atol=1e-12)
        if not caching:
            # With caching disabled the streamed plan is frozen: the relaxed
            # model must report zero SRAM response, not a phantom gradient.
            assert not analytic_per_scale.any()

    def test_clock_dual_is_nonpositive_and_sram_dual_mostly_zero_or_negative(self, fused_table):
        # More clock or more SRAM never makes a frozen-plan design slower.
        result = compile_and_time_table(fused_table, PARITY_CONFIGS, sensitivities=True)
        assert (result.dlatency_dclock_ghz <= 0.0).all()
        assert (result.dlatency_dsram_byte <= 0.0).all()

    def test_frontier_sensitivity_report(self, fused_dataset):
        from repro.hwspace import HardwareFrontier, SensitivityPoint

        frontier = HardwareFrontier(fused_dataset)
        points = frontier.sensitivity_report(MUTATED_CONFIGS)
        assert len(points) == len(MUTATED_CONFIGS)
        summaries = frontier.summarize(MUTATED_CONFIGS)
        for point, summary in zip(points, summaries):
            assert isinstance(point, SensitivityPoint)
            assert point.digest == summary.digest
            assert point.num_models == summary.num_models
            np.testing.assert_allclose(point.mean_latency_ms, summary.mean_latency_ms, rtol=1e-12)
            assert point.mean_dlatency_dclock_ghz <= 0.0
            assert point.mean_dlatency_dsram_mib <= 0.0
            assert 0.0 <= point.sram_sensitive_fraction <= 1.0


def random_topological_order(cell, rng):
    """A random vertex relabeling that :func:`permute_cell` accepts."""
    matrix = cell.numpy_matrix()
    order, left = [0], list(range(1, cell.num_vertices))
    while left:
        ready = [vertex for vertex in left if not matrix[left, vertex].any()]
        order.append(ready[rng.integers(len(ready))])
        left.remove(order[-1])
    return order


def keeps_channel_split(cell, order, config=NetworkConfig()):
    """Whether relabeling by *order* leaves every vertex its NASBench-101 width.

    NASBench-101 hands the remainder of an uneven output channel split (three
    or five output feeders) to the *earliest* feeders, so a relabeling that
    reorders those feeders expands the same fingerprint to a different network.
    """
    matrix = cell.numpy_matrix()
    permuted = matrix[np.ix_(order, order)]
    for stack in range(config.num_stacks):
        width = config.stem_channels * 2**stack
        before = compute_vertex_channels(width, width, matrix)
        if [before[vertex] for vertex in order] != compute_vertex_channels(width, width, permuted):
            return False
    return True


class TestMetamorphic:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_isomorphic_cells_time_alike(self, seed):
        rng = np.random.default_rng(seed)
        cells = [random_cell(rng) for _ in range(8)]
        orders = [random_topological_order(cell, rng) for cell in cells]
        permuted = [permute_cell(cell, order) for cell, order in zip(cells, orders)]
        assert permuted == cells  # one fingerprint per pair
        same = [keeps_channel_split(cell, order) for cell, order in zip(cells, orders)]
        table = LayerTable.from_networks([build_network(cell) for cell in cells + permuted])
        for caching in (True, False):
            result = compile_and_time_table(table, PARITY_CONFIGS, enable_parameter_caching=caching)
            for column in (result.latency_ms, result.energy_mj):
                original, relabeled = column[:, : len(cells)], column[:, len(cells) :]
                np.testing.assert_allclose(relabeled[:, same], original[:, same], rtol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        cell_seed=st.integers(min_value=0, max_value=10**6),
        clocks=st.lists(
            st.integers(min_value=100, max_value=2000), min_size=2, max_size=4, unique=True
        ),
        data=st.data(),
    )
    def test_faster_clock_never_raises_latency(self, cell_seed, clocks, data):
        rng = np.random.default_rng(cell_seed)
        networks = [build_network(random_cell(rng)) for _ in range(3)]
        design = {
            name: [data.draw(st.sampled_from(values))]
            for name, values in GRID_AXES.items()
            if name != "clock_mhz"
        }
        space = AcceleratorSpace({**design, "clock_mhz": [float(mhz) for mhz in clocks]})
        configs = sorted(space.enumerate(), key=lambda config: config.clock_mhz)
        for caching in (True, False):
            latency = compile_and_time_table(
                LayerTable.from_networks(networks), configs, enable_parameter_caching=caching
            ).latency_ms
            assert (np.diff(latency, axis=0) <= 0.0).all()
