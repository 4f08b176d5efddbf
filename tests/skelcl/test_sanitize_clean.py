"""Every skeleton, halo exchange, and redistribution runs race-free
under the strict SkelSan sanitizer.

These tests initialize the runtime with ``detect_races="strict"``, so
any conflicting command pair the library enqueues without a wait-list
ordering raises :class:`RaceError` on the spot — the transparent
whole-library check the sanitizer is for (also exercised suite-wide by
the CI ``sanitize`` job via ``SKELCL_SANITIZE=strict``).
"""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl import (
    AllPairs,
    Block,
    Copy,
    Map,
    MapOverlap,
    Matrix,
    Overlap,
    Reduce,
    Scan,
    Vector,
    Zip,
)


@pytest.fixture(params=[1, 2, 3])
def strict_runtime(request):
    runtime = skelcl.init(num_devices=request.param, spec=ocl.TEST_DEVICE,
                          detect_races="strict")
    yield runtime
    skelcl.terminate()


def assert_clean(runtime):
    runtime.finish_all()
    assert runtime.context.check_races() == []


class TestSkeletonsUnderStrictSanitizer:
    def test_map(self, strict_runtime):
        data = np.arange(512, dtype=np.float32)
        result = Map("float func(float x) { return -x; }")(Vector(data=data))
        np.testing.assert_array_equal(result.to_numpy(), -data)
        assert_clean(strict_runtime)

    def test_zip(self, strict_runtime):
        a = np.arange(512, dtype=np.float32)
        b = np.ones(512, dtype=np.float32)
        result = Zip("float func(float x, float y) { return x + y; }")(
            Vector(data=a), Vector(data=b)
        )
        np.testing.assert_array_equal(result.to_numpy(), a + b)
        assert_clean(strict_runtime)

    def test_reduce(self, strict_runtime):
        data = np.arange(1024, dtype=np.float32)
        total = Reduce("float func(float x, float y) { return x + y; }")(
            Vector(data=data)
        )
        assert float(total) == pytest.approx(data.sum())
        assert_clean(strict_runtime)

    def test_scan(self, strict_runtime):
        data = np.arange(700, dtype=np.float32)
        result = Scan("float func(float x, float y) { return x + y; }")(
            Vector(data=data)
        )
        np.testing.assert_allclose(result.to_numpy(), np.cumsum(data), rtol=1e-5)
        assert_clean(strict_runtime)

    def test_mapoverlap_halo_exchange(self, strict_runtime):
        data = np.arange(600, dtype=np.float32)
        blur = MapOverlap(
            "float func(__local float* v) { return (v[-1] + v[0] + v[1]) / 3.0f; }",
            1,
        )
        result = blur(Vector(data=data)).to_numpy()
        expected = (data[:-2] + data[1:-1] + data[2:]) / 3.0
        np.testing.assert_allclose(result[1:-1], expected, rtol=1e-5)
        assert_clean(strict_runtime)

    @pytest.mark.parametrize("make", [
        lambda data: Vector(data=data), lambda data: Matrix(data=data.reshape(30, 10))],
        ids=["vector", "matrix"])
    def test_map_in_place_waits_for_the_upload_of_its_overlap_input(self, strict_runtime,
                                                                     make):
        # out= the input: staged under Overlap(1), the container is
        # written under Block, so preparing the output drops its chunks
        # — the launch must still wait for the upload it reads.
        data = np.arange(300, dtype=np.float32)
        container = make(data)
        container.set_distribution(Overlap(1))
        Map("float func(float x) { return x + 1.0f; }")(container, out=container)
        np.testing.assert_array_equal(container.to_numpy().ravel(), data + 1)
        for queue in strict_runtime.queues:
            (upload, *_), (kernel,) = queue.engine_events("transfer"), queue.kernel_events()
            assert upload.command_type == "write_buffer" and upload in kernel.wait_for
        assert_clean(strict_runtime)

    def test_mapoverlap_iterated_reuses_output(self, strict_runtime):
        # Back-to-back stencils on the same containers: the second
        # launch writes chunks the first is still reading (WAR) unless
        # the library inserts the closure edges the detector checks.
        data = np.arange(300, dtype=np.float32)
        blur = MapOverlap(
            "float func(__local float* v) { return (v[-1] + v[0] + v[1]) / 3.0f; }",
            1,
        )
        vec = Vector(data=data)
        for _ in range(3):
            vec = blur(vec)
        assert_clean(strict_runtime)

    def test_allpairs(self, strict_runtime):
        a = np.arange(24, dtype=np.float32).reshape(4, 6)
        b = np.ones((3, 6), dtype=np.float32)
        mult = Zip("float func(float x, float y) { return x * y; }")
        plus = Reduce("float func(float x, float y) { return x + y; }")
        result = AllPairs(plus, mult)(Matrix(data=a), Matrix(data=b))
        np.testing.assert_allclose(result.to_numpy(), a @ b.T, rtol=1e-5)
        assert_clean(strict_runtime)

    def test_allpairs_aliased_inputs(self, strict_runtime):
        # allpairs(P, P): A wants Block, B wants Copy — the library must
        # not tear down one side's chunks while the other still reads
        # them (caught by the sanitizer as a missing-edge race).
        p = np.arange(20, dtype=np.float32).reshape(5, 4)
        mult = Zip("float func(float x, float y) { return x * y; }")
        plus = Reduce("float func(float x, float y) { return x + y; }")
        matrix = Matrix(data=p)
        result = AllPairs(plus, mult)(matrix, matrix)
        np.testing.assert_allclose(result.to_numpy(), p @ p.T, rtol=1e-5)
        assert_clean(strict_runtime)


class TestRedistributionUnderStrictSanitizer:
    def test_block_to_overlap_halo_refresh(self, strict_runtime):
        data = np.arange(256, dtype=np.float32)
        vec = Vector(data=data)
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        vec.ensure_on_devices(Overlap(2))
        np.testing.assert_array_equal(vec.to_numpy(), data)
        assert_clean(strict_runtime)

    def test_block_to_copy_roundtrip(self, strict_runtime):
        data = np.arange(128, dtype=np.float32)
        vec = Vector(data=data)
        vec.ensure_on_devices(Block())
        vec.mark_written_on_devices()
        vec.ensure_on_devices(Copy())
        vec.ensure_on_devices(Block())
        np.testing.assert_array_equal(vec.to_numpy(), data)
        assert_clean(strict_runtime)

    def test_compute_then_redistribute_then_compute(self, strict_runtime):
        data = np.arange(512, dtype=np.float32)
        double = Map("float func(float x) { return 2.0f * x; }")
        vec = double(Vector(data=data))
        vec.ensure_on_devices(Overlap(1))
        blur = MapOverlap(
            "float func(__local float* v) { return v[-1] + v[0] + v[1]; }", 1
        )
        result = blur(vec)
        assert result.to_numpy().shape == data.shape
        assert_clean(strict_runtime)
