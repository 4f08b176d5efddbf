"""Heat diffusion (iterative MapOverlap) tests."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.apps.heat import HeatDiffusion, hot_spot_grid, jacobi_reference
from repro.skelcl import Matrix


class TestSweeps:
    def test_single_sweep_matches_reference(self, runtime_2gpu):
        grid = hot_spot_grid(24)
        heat = HeatDiffusion(alpha=0.8)
        result = heat.step(Matrix(data=grid)).to_numpy()
        np.testing.assert_allclose(result, jacobi_reference(grid, 1, 0.8), rtol=1e-5, atol=1e-5)

    def test_ten_sweeps_match_reference(self, runtime_2gpu):
        grid = hot_spot_grid(16)
        heat = HeatDiffusion(alpha=1.0)
        current = Matrix(data=grid)
        for _ in range(10):
            current = heat.step(current)
        np.testing.assert_allclose(
            current.to_numpy(), jacobi_reference(grid, 10, 1.0), rtol=1e-4, atol=1e-4
        )

    def test_uniform_grid_is_fixed_point(self, runtime_1gpu):
        grid = np.full((12, 12), 42.0, np.float32)
        result = HeatDiffusion().step(Matrix(data=grid)).to_numpy()
        np.testing.assert_allclose(result, grid, rtol=1e-6)

    def test_insulated_boundaries_conserve_heat(self, runtime_1gpu):
        # NEAREST boundaries insulate: total heat is conserved up to
        # float error... Jacobi averaging with edge replication is not
        # exactly conservative, but the mean must stay within the
        # initial min/max envelope (maximum principle).
        grid = hot_spot_grid(16)
        heat = HeatDiffusion()
        current = Matrix(data=grid)
        for _ in range(20):
            current = heat.step(current)
        values = current.to_numpy()
        assert values.min() >= grid.min() - 1e-4
        assert values.max() <= grid.max() + 1e-4

    def test_diffusion_smooths(self, runtime_1gpu):
        grid = hot_spot_grid(16)
        result = HeatDiffusion().run(grid, max_iterations=30).grid
        assert result.std() < grid.std()
        assert result.max() < grid.max()


class TestConvergence:
    def test_run_reports_residual_and_iterations(self, runtime_1gpu):
        result = HeatDiffusion().run(hot_spot_grid(12), max_iterations=40, tolerance=1e-3)
        assert 0 < result.iterations <= 40
        assert result.residual >= 0.0

    def test_converges_on_tiny_grid(self, runtime_1gpu):
        result = HeatDiffusion().run(hot_spot_grid(8), max_iterations=500, tolerance=1e-5)
        assert result.residual < 1e-5
        assert result.iterations < 500

    def test_invalid_alpha_rejected(self, runtime_1gpu):
        with pytest.raises(ValueError):
            HeatDiffusion(alpha=0.0)
        with pytest.raises(ValueError):
            HeatDiffusion(alpha=1.5)

    def test_multi_gpu_identical(self):
        grid = hot_spot_grid(20)
        results = []
        for devices in (1, 3):
            skelcl.init(devices, ocl.TEST_DEVICE)
            results.append(HeatDiffusion().run(grid, max_iterations=12).grid)
            skelcl.terminate()
        np.testing.assert_allclose(results[0], results[1], rtol=1e-6)

    def test_intermediate_grids_stay_on_device(self, runtime_1gpu):
        # Between sweeps nothing should be downloaded: the output of one
        # MapOverlap feeds the next via a device-side redistribution
        # (block -> overlap), never through numpy.
        runtime = runtime_1gpu
        heat = HeatDiffusion()
        grid = Matrix(data=hot_spot_grid(16))
        grid = heat.step(grid)
        read_before = sum(
            e.info.get("bytes", 0)
            for q in runtime.queues
            for e in q.events
            if e.command_type == "read_buffer"
        )
        for _ in range(3):
            grid = heat.step(grid)
        read_after = sum(
            e.info.get("bytes", 0)
            for q in runtime.queues
            for e in q.events
            if e.command_type == "read_buffer"
        )
        # Single GPU: block == overlap chunk contents, no halo refresh
        # needed, so no reads at all.
        assert read_after == read_before


class TestMultiGpuHaloTraffic:
    def test_sweeps_exchange_only_halos(self, runtime_2gpu):
        # On 2 GPUs, each sweep's block->overlap(1) refresh must move
        # exactly the interior-border rows (1 row each side of the
        # device boundary, down + up), not the whole grid.
        runtime = runtime_2gpu
        heat = HeatDiffusion()
        size = 32
        grid = Matrix(data=hot_spot_grid(size))
        grid = heat.step(grid)  # warm-up: initial upload happens here
        runtime.finish_all()  # raw queue counters below: no SkelCL-level read
        # PCIe traffic only: the in-place halo refresh also issues
        # device-local copy_buffer commands, which count into
        # total_transfer_bytes but never cross the host link.
        before = sum(q.total_pcie_bytes for q in runtime.queues)
        sweeps = 4
        for _ in range(sweeps):
            grid = heat.step(grid)
        runtime.finish_all()
        moved = sum(q.total_pcie_bytes for q in runtime.queues) - before
        row_bytes = size * 4
        per_sweep = 2 * (2 * row_bytes)  # 2 halo rows, each down+up
        assert moved == sweeps * per_sweep
