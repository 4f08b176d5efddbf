"""Vector/Matrix container tests: host access, coherence, redistribution."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro.skelcl import Block, Copy, Matrix, Overlap, Single, Vector
from repro.skelcl.runtime import SkelCLError


class TestVectorHostAccess:
    def test_create_and_fill_like_the_paper(self, runtime_1gpu):
        vec = Vector(16, dtype=np.int32)
        for i in range(vec.size):
            vec[i] = i
        assert list(vec.to_numpy()) == list(range(16))

    def test_from_numpy_copies(self, runtime_1gpu):
        data = np.arange(4, dtype=np.float32)
        vec = Vector(data=data)
        data[0] = 99
        assert vec[0] == 0

    def test_iteration(self, runtime_1gpu):
        vec = Vector(data=np.arange(5, dtype=np.float32))
        assert [float(x) for x in vec] == [0, 1, 2, 3, 4]

    def test_len_and_size(self, runtime_1gpu):
        vec = Vector(7)
        assert len(vec) == vec.size == 7

    def test_fill_and_assign(self, runtime_1gpu):
        vec = Vector(4, dtype=np.int32).fill(3)
        assert list(vec.to_numpy()) == [3, 3, 3, 3]
        vec.assign([1, 2, 3, 4])
        assert list(vec.to_numpy()) == [1, 2, 3, 4]

    def test_assign_wrong_size_rejected(self, runtime_1gpu):
        with pytest.raises(ValueError):
            Vector(4).assign([1, 2])

    def test_needs_size_or_data(self, runtime_1gpu):
        with pytest.raises(ValueError):
            Vector()


class TestMatrixHostAccess:
    def test_indexing(self, runtime_1gpu):
        mat = Matrix((3, 4), dtype=np.int32)
        mat[1, 2] = 9
        assert mat[1, 2] == 9

    def test_row_access(self, runtime_1gpu):
        mat = Matrix(data=np.arange(12, dtype=np.int32).reshape(3, 4))
        assert list(mat[1]) == [4, 5, 6, 7]

    def test_out_of_range_rejected(self, runtime_1gpu):
        mat = Matrix((2, 2))
        with pytest.raises(IndexError):
            mat[2, 0]

    def test_shape_properties(self, runtime_1gpu):
        mat = Matrix((3, 5))
        assert mat.shape == (3, 5) and mat.rows == 3 and mat.cols == 5 and mat.size == 15

    def test_requires_2d_data(self, runtime_1gpu):
        with pytest.raises(ValueError):
            Matrix(data=np.arange(4))

    def test_to_numpy_shape(self, runtime_1gpu):
        array = np.random.RandomState(0).rand(4, 6).astype(np.float32)
        assert np.array_equal(Matrix(data=array).to_numpy(), array)


class TestCoherence:
    def test_upload_then_host_read_roundtrip(self, runtime_2gpu):
        vec = Vector(data=np.arange(64, dtype=np.float32))
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()  # pretend a kernel wrote it
        np.testing.assert_array_equal(vec.to_numpy(), np.arange(64, dtype=np.float32))

    def test_host_write_invalidates_devices(self, runtime_2gpu):
        vec = Vector(data=np.zeros(8, np.float32))
        vec.ensure_on_devices(Block())
        assert vec.is_on_devices
        vec[0] = 5
        assert not vec.is_on_devices

    def test_upload_counts_transfer_bytes(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(1024, np.float32))
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        vec.ensure_on_devices(Block())
        after = sum(q.total_transfer_bytes for q in runtime.queues)
        assert after - before == 1024 * 4

    def test_copy_distribution_uploads_to_all_devices(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(256, np.float32))
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        vec.ensure_on_devices(Copy())
        after = sum(q.total_transfer_bytes for q in runtime.queues)
        assert after - before == 2 * 256 * 4

    def test_overlap_uploads_halo_too(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(100, np.float32))
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        vec.ensure_on_devices(Overlap(5))
        after = sum(q.total_transfer_bytes for q in runtime.queues)
        assert after - before == (55 + 55) * 4

    def test_single_uses_one_device(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(64, np.float32))
        vec.ensure_on_devices(Single(1))
        assert runtime.queues[1].total_transfer_bytes > 0
        assert runtime.queues[0].total_transfer_bytes == 0

    def test_no_reupload_when_clean(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(64, np.float32))
        vec.ensure_on_devices(Block())
        bytes_after_first = sum(q.total_transfer_bytes for q in runtime.queues)
        vec.ensure_on_devices(Block())
        assert sum(q.total_transfer_bytes for q in runtime.queues) == bytes_after_first


class TestRedistribution:
    def test_set_distribution_moves_data(self, runtime_2gpu):
        data = np.arange(32, dtype=np.float32)
        vec = Vector(data=data)
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        vec.set_distribution(Copy())
        np.testing.assert_array_equal(vec.to_numpy(), data)

    def test_redistribution_transfers_counted(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(128, np.float32))
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        vec.set_distribution(Copy())
        after = sum(q.total_transfer_bytes for q in runtime.queues)
        # download (128 elements) + upload to both devices (2 * 128)
        assert after - before == 3 * 128 * 4

    def test_same_distribution_is_noop(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(128, np.float32))
        vec.ensure_on_devices(Block())
        before = sum(q.total_transfer_bytes for q in runtime.queues)
        vec.set_distribution(Block())
        assert sum(q.total_transfer_bytes for q in runtime.queues) == before

    def test_lazy_when_host_only(self, runtime_2gpu):
        runtime = runtime_2gpu
        vec = Vector(data=np.zeros(128, np.float32))
        vec.set_distribution(Copy())
        assert sum(q.total_transfer_bytes for q in runtime.queues) == 0
        assert vec.distribution == Copy()

    def test_matrix_block_distributes_rows(self, runtime_2gpu):
        mat = Matrix(data=np.arange(24, dtype=np.float32).reshape(6, 4))
        chunk_buffers = mat.ensure_on_devices(Block())
        assert [c.owned_size for c, _b in chunk_buffers] == [3, 3]
        # Buffer sizes are rows * cols * 4 bytes.
        assert all(b.nbytes == 3 * 4 * 4 for _c, b in chunk_buffers)


class TestRuntimeGuards:
    def test_container_requires_init(self):
        skelcl.terminate()
        with pytest.raises(SkelCLError):
            Vector(4).ensure_on_devices()

    def test_scalar_wrapper(self, runtime_1gpu):
        scalar = skelcl.Scalar(2.5, np.float32)
        assert scalar.get_value() == 2.5
        assert float(scalar) == 2.5
        assert int(skelcl.Scalar(3, np.int32)) == 3


class TestDroppedContainersFreeDeviceMemory:
    """The context's buffer registry is weak: a container nothing refers
    to any more gives its device buffers back (it used to hold every
    buffer until ``Context.release()``, so the 129th call below ran the
    64 MiB test device out of memory)."""

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_three_hundred_calls_on_fresh_vectors(self, lazy):
        import gc

        session = skelcl.init(devices=["test"], lazy=lazy)
        try:
            double = skelcl.Map("float func(float x) { return 2.0f * x; }")
            data = np.ones(64 * 1024, np.float32)
            for _ in range(300):
                out = double(Vector(data=data))
                assert out[0] == 2.0  # forces a deferred call
            gc.collect()
            device = session.context.devices[0]
            assert 0 < device.allocated_bytes <= 4 * data.nbytes
            session.context.release()
            assert device.allocated_bytes == 0
        finally:
            skelcl.terminate()
