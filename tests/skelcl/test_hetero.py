"""Heterogeneous-pool behaviour: uneven partitions are bit-exact across
all six skeletons, zero-weight devices enqueue nothing, uneven halo
exchange and redistribution are race-free, and the adaptive partitioner
converges near the oracle split on a skewed CPU+GPU pool."""

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl import Partition

RNG_SEED = 1234

UNEVEN_PARTITIONS = [
    Partition.of(5, 1, 2),
    Partition.of(1, 0, 3),
    Partition.of(0, 1, 0),
]


def _run(partition, workload):
    with skelcl.init(num_devices=3, spec=ocl.TEST_DEVICE, partition=partition):
        return workload()


def _map_workload():
    neg = skelcl.Map("float func(float x) { return -x * 0.5f; }")
    data = np.random.default_rng(RNG_SEED).random(613, dtype=np.float32)
    return neg(skelcl.Vector(data=data)).to_numpy()


def _zip_workload():
    rng = np.random.default_rng(RNG_SEED)
    mult = skelcl.Zip("float func(float x, float y) { return x * y + 1.0f; }")
    a = skelcl.Vector(data=rng.random(613, dtype=np.float32))
    b = skelcl.Vector(data=rng.random(613, dtype=np.float32))
    return mult(a, b).to_numpy()


def _reduce_workload():
    rng = np.random.default_rng(RNG_SEED)
    add = skelcl.Reduce("int func(int x, int y) { return x + y; }")
    data = rng.integers(-1000, 1000, size=613, dtype=np.int32)
    return add(skelcl.Vector(data=data)).get_value()


def _scan_workload():
    rng = np.random.default_rng(RNG_SEED)
    prefix = skelcl.Scan("int func(int x, int y) { return x + y; }")
    data = rng.integers(-50, 50, size=613, dtype=np.int32)
    return prefix(skelcl.Vector(data=data)).to_numpy()


def _mapoverlap_vector_workload():
    rng = np.random.default_rng(RNG_SEED)
    stencil = skelcl.MapOverlap(
        """float func(float* v) {
            return get(v, -2) + get(v, -1) + get(v, 0) + get(v, 1) + get(v, 2);
        }""",
        2, skelcl.SCL_NEUTRAL, 0.0)
    data = rng.random(613, dtype=np.float32)
    return stencil(skelcl.Vector(data=data)).to_numpy()


def _mapoverlap_matrix_workload():
    rng = np.random.default_rng(RNG_SEED)
    blur = skelcl.MapOverlap(
        """float func(float* m) {
            float s = 0.0f;
            for (int dy = -1; dy <= 1; ++dy)
                for (int dx = -1; dx <= 1; ++dx)
                    s += get(m, dx, dy);
            return s;
        }""",
        1, skelcl.SCL_NEAREST)
    data = rng.random((37, 23), dtype=np.float32)
    return blur(skelcl.Matrix(data=data)).to_numpy()


def _allpairs_workload():
    rng = np.random.default_rng(RNG_SEED)
    add = skelcl.Reduce("float func(float x, float y) { return x + y; }")
    mult = skelcl.Zip("float func(float x, float y) { return x * y; }")
    matmul = skelcl.AllPairs(add, mult)
    a = skelcl.Matrix(data=rng.random((23, 17), dtype=np.float32))
    b = skelcl.Matrix(data=rng.random((11, 17), dtype=np.float32))
    return matmul(a, b).to_numpy()


WORKLOADS = {
    "map": _map_workload,
    "zip": _zip_workload,
    "reduce": _reduce_workload,
    "scan": _scan_workload,
    "mapoverlap_vector": _mapoverlap_vector_workload,
    "mapoverlap_matrix": _mapoverlap_matrix_workload,
    "allpairs": _allpairs_workload,
}


class TestUnevenBitExact:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("partition", UNEVEN_PARTITIONS, ids=str)
    def test_uneven_matches_even_baseline(self, name, partition):
        workload = WORKLOADS[name]
        baseline = _run(None, workload)
        uneven = _run(partition, workload)
        assert np.array_equal(np.asarray(baseline), np.asarray(uneven))


class TestZeroWeightDeviceIsSilent:
    @pytest.mark.parametrize(
        "name", ["map", "zip", "scan", "mapoverlap_vector", "mapoverlap_matrix"]
    )
    def test_no_commands_enqueued_on_zero_weight_device(self, name):
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE,
                         partition=Partition.of(1, 0)) as session:
            workload = {
                "map": _map_workload,
                "zip": _zip_workload,
                "scan": _scan_workload,
                "mapoverlap_vector": _mapoverlap_vector_workload,
                "mapoverlap_matrix": _mapoverlap_matrix_workload,
            }[name]
            workload()
            session.finish_all()
            assert len(session.queue(0).events) > 0
            assert len(session.queue(1).events) == 0
            assert session.metrics.value("skelcl_kernel_ns_total", device=1) == 0


class TestUnevenHaloExchangeStrict:
    def test_uneven_halo_exchange_and_redistribution_are_race_free(self):
        # strict SkelSan raises at the first unordered conflicting pair,
        # so simply completing this sequence is the assertion.
        rng = np.random.default_rng(RNG_SEED)
        data = rng.random(521, dtype=np.float32)
        stencil = skelcl.MapOverlap(
            "float func(float* v) { return get(v, -1) + get(v, 1); }",
            1, skelcl.SCL_NEUTRAL, 0.0)
        scale = skelcl.Map("float func(float x) { return x * 2.0f; }")
        with skelcl.init(num_devices=3, spec=ocl.TEST_DEVICE,
                         detect_races="strict",
                         partition=Partition.of(3, 1, 2)) as session:
            v = skelcl.Vector(data=data)
            blocked = scale(v)                  # Block(3,1,2) output
            first = stencil(blocked)            # halo grow around uneven split
            # Re-partition mid-flight: stale containers must redistribute
            # through the command graph on their next use.
            session.partition = Partition.of(1, 4, 1)
            second = stencil(blocked)
            third = stencil(second)             # chained stencil, fresh halos
            session.finish_all()
            assert session.context.check_races() == []
            expected = np.zeros_like(data)
            expected[:-1] += data[1:] * 2.0
            expected[1:] += data[:-1] * 2.0
            np.testing.assert_allclose(first.to_numpy(), expected, rtol=1e-6)
            np.testing.assert_array_equal(first.to_numpy(), second.to_numpy())


_HEAVY_MAP = """\
float func(float x) {
    float a = x;
    for (int i = 0; i < 64; ++i) {
        a = a * 1.000001f + 0.25f;
    }
    return a;
}"""


def _kernel_ns_by_device(session):
    return [session.metrics.value("skelcl_kernel_ns_total", device=index)
            for index in range(session.num_devices)]


def _iteration(session, skel, vec):
    """One skeleton call; returns (per-device kernel ns, output)."""
    before = _kernel_ns_by_device(session)
    out = skel(vec)
    session.finish_all()
    after = _kernel_ns_by_device(session)
    return [a - b for a, b in zip(after, before)], out


class TestAdaptiveConvergence:
    def test_converges_within_three_repartitions_and_nears_oracle(self):
        n = 3 * 32768
        data = np.random.default_rng(RNG_SEED).random(n, dtype=np.float32)
        with skelcl.init(devices=["tesla", "tesla", "cpu-8core"]) as session:
            skel = skelcl.Map(_HEAVY_MAP)
            vec = skelcl.Vector(data=data)

            even_times, even_out = _iteration(session, skel, vec)
            even_cp = max(even_times)
            baseline = even_out.to_numpy()

            # Adapt from the even split; ~4:1 throughput skew to discover.
            partitioner = session.use_adaptive(initial="even")
            steady_cp = None
            for _ in range(6):
                times, out = _iteration(session, skel, vec)
                steady_cp = max(times)
                assert np.array_equal(out.to_numpy(), baseline)
            assert partitioner.repartitions <= 3
            assert partitioner.history[-1] == session.partition
            assert even_cp >= 2.0 * steady_cp

            # Oracle: fit the (linear) per-device cost model from two
            # measured splits, scan all CPU shares at work-group
            # granularity, then *run* the best split and compare.
            session.partitioner = None
            session.partition = Partition.of(1, 1, 2)
            probe_times, _out = _iteration(session, skel, vec)
            fits = []
            for index in range(3):
                u1 = Partition.even(3).counts(n)[index]
                u2 = Partition.of(1, 1, 2).counts(n)[index]
                slope = (probe_times[index] - even_times[index]) / (u2 - u1)
                fits.append((even_times[index] - slope * u1, slope))
            best_cpu, best_model = 0, float("inf")
            for cpu_units in range(0, n + 1, 256):
                gpu_units = -(-(n - cpu_units) // 2)  # ceil: worst GPU chunk
                model = max(
                    fits[0][0] + fits[0][1] * gpu_units,
                    fits[1][0] + fits[1][1] * gpu_units,
                    fits[2][0] + fits[2][1] * cpu_units,
                )
                if model < best_model:
                    best_cpu, best_model = cpu_units, model
            gpu_units = n - best_cpu
            session.partition = Partition.of(
                gpu_units - gpu_units // 2, gpu_units // 2, best_cpu
            )
            oracle_times, oracle_out = _iteration(session, skel, vec)
            oracle_cp = max(oracle_times)
            assert np.array_equal(oracle_out.to_numpy(), baseline)
            assert steady_cp <= 1.10 * oracle_cp
