"""Redistribution fast paths: layout relabeling and halo-only exchange."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl import Block, Copy, MapOverlap, Matrix, Overlap, SCL_NEUTRAL, Single, Vector


def pcie_bytes(runtime) -> int:
    return sum(q.total_pcie_bytes for q in runtime.queues)


def copy_buffer_bytes(runtime) -> int:
    return sum(
        int(e.info.get("bytes", 0))
        for q in runtime.queues
        for e in q.events
        if e.command_type == "copy_buffer"
    )


class TestRelabel:
    def test_single_gpu_block_to_overlap_is_free(self, runtime_1gpu):
        runtime = runtime_1gpu
        vec = Vector(data=np.arange(64, dtype=np.float32))
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        before = pcie_bytes(runtime)
        vec.ensure_on_devices(Overlap(3))
        assert pcie_bytes(runtime) == before
        assert vec.distribution == Overlap(3)
        np.testing.assert_array_equal(vec.to_numpy()[:5], np.arange(5, dtype=np.float32))

    def test_single_gpu_anything_to_anything_is_free(self, runtime_1gpu):
        runtime = runtime_1gpu
        vec = Vector(data=np.arange(32, dtype=np.float32))
        vec.ensure_on_devices(Single())
        vec.mark_written_on_devices()
        before = pcie_bytes(runtime)
        for distribution in (Copy(), Block(), Overlap(2), Single()):
            vec.ensure_on_devices(distribution)
        assert pcie_bytes(runtime) == before

    def test_overlap_to_block_keeps_buffers(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.arange(100, dtype=np.float32))
        vec.ensure_on_devices(Overlap(5))
        vec.mark_written_on_devices()
        before = pcie_bytes(runtime)
        vec.ensure_on_devices(Block())  # shrinking stored range: relabel
        assert pcie_bytes(runtime) == before
        np.testing.assert_array_equal(vec.to_numpy(), np.arange(100, dtype=np.float32))


class TestHaloExchange:
    def test_block_to_overlap_moves_only_halos(self, runtime_4gpu):
        runtime = runtime_4gpu
        n, d = 1 << 12, 16
        vec = Vector(data=np.arange(n, dtype=np.float32))
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        before = pcie_bytes(runtime)
        vec.set_distribution(Overlap(d))
        moved = pcie_bytes(runtime) - before
        halo_units = sum(c.stored_size for c in Overlap(d).chunks(n, runtime.partition)) - n
        assert moved == 2 * halo_units * 4  # each halo unit: download + upload
        assert moved < n  # far less than a full round trip
        # The owned data moved device-locally.
        assert copy_buffer_bytes(runtime) >= n * 4

    def test_halo_exchange_preserves_data(self, runtime_4gpu):
        data = np.random.RandomState(5).rand(500).astype(np.float32)
        vec = Vector(data=data)
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        vec.set_distribution(Overlap(7))
        np.testing.assert_array_equal(vec.to_numpy(), data)

    def test_halo_contents_correct_for_stencil(self, runtime_4gpu):
        # After a block-resident compute, a MapOverlap must see correct
        # neighbour values across the chunk borders (the halos were
        # fetched from the neighbouring devices, not stale memory).
        data = np.arange(256, dtype=np.float32)
        doubled = skelcl.Map("float f(float x) { return 2.0f * x; }")(Vector(data=data))
        blur = MapOverlap(
            "float f(float* v) { return get(v, -1) + get(v, 0) + get(v, 1); }",
            1, SCL_NEUTRAL, 0.0,
        )
        result = blur(doubled).to_numpy()
        padded = np.pad(2 * data, 1)
        expected = padded[:-2] + padded[1:-1] + padded[2:]
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    def test_matrix_halo_exchange(self, runtime_2gpu):
        runtime = runtime_2gpu
        data = np.random.RandomState(1).rand(32, 8).astype(np.float32)
        mat = Matrix(data=data)
        mat.ensure_on_devices(Block())
        mat.mark_written_on_devices()
        before = pcie_bytes(runtime)
        mat.set_distribution(Overlap(2))
        moved = pcie_bytes(runtime) - before
        # 2 interior borders x 2 halo rows x 8 cols x 4 bytes, x2 (down+up)
        assert moved == 2 * (2 * 2 * 8 * 4)
        np.testing.assert_array_equal(mat.to_numpy(), data)

    def test_growing_overlap_fetches_only_increment(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.arange(200, dtype=np.float32))
        vec.ensure_on_devices(Overlap(2))
        vec.mark_written_on_devices()
        before = pcie_bytes(runtime)
        vec.set_distribution(Overlap(6))
        moved = pcie_bytes(runtime) - before
        # Each of the two chunks is missing 4 more halo units.
        assert moved == 2 * (2 * 4 * 4)
        np.testing.assert_array_equal(vec.to_numpy(), np.arange(200, dtype=np.float32))


class TestCopyBufferCommand:
    def test_copy_buffer_roundtrip(self):
        ctx = ocl.Context.create(ocl.TEST_DEVICE)
        queue = ctx.queues[0]
        src = ctx.create_buffer(64)
        dst = ctx.create_buffer(64)
        data = np.arange(16, dtype=np.float32)
        queue.enqueue_write_buffer(src, data)
        event = queue.enqueue_copy_buffer(src, dst, 32, src_offset_bytes=0, dst_offset_bytes=32)
        out, _ = queue.enqueue_read_buffer(dst, np.float32, 8, offset_bytes=32)
        np.testing.assert_array_equal(out, data[:8])
        assert event.command_type == "copy_buffer"
        assert event.duration_ns > 0
        ctx.release()

    def test_copy_buffer_cross_device_rejected(self):
        ctx = ocl.Context.create(ocl.TEST_DEVICE, 2)
        a = ctx.create_buffer(16, ctx.devices[0])
        b = ctx.create_buffer(16, ctx.devices[1])
        with pytest.raises(ocl.InvalidValue):
            ctx.queues[0].enqueue_copy_buffer(a, b, 16)
        ctx.release()

    def test_copy_counts_as_transfer_but_not_pcie(self):
        ctx = ocl.Context.create(ocl.TEST_DEVICE)
        queue = ctx.queues[0]
        src = ctx.create_buffer(64)
        dst = ctx.create_buffer(64)
        pcie_before = queue.total_pcie_bytes
        transfer_before = queue.total_transfer_bytes
        transfer_ns_before = queue.total_transfer_ns
        queue.enqueue_copy_buffer(src, dst, 64)
        # Device-local: redistribution traffic shows up in the queue's
        # transfer statistics like every other transfer command...
        assert queue.total_transfer_bytes == transfer_before + 64
        assert queue.total_transfer_ns > transfer_ns_before
        # ...but never on the host link.
        assert queue.total_pcie_bytes == pcie_before
        ctx.release()
