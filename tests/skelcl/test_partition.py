"""Partition abstraction unit tests: apportionment, distribution
integration, and the adaptive partitioner's bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl.distribution import Block, Copy, Overlap, Single
from repro.skelcl.partition import (AdaptivePartitioner, Partition,
                                    modeled_throughput)


class TestPartitionMath:
    def test_even_gives_the_first_remainder_devices_one_more(self):
        for size in (0, 1, 7, 8, 10, 1000):
            for devices in (1, 2, 3, 4, 7):
                ranges = Partition.even(devices).ranges(size)
                assert [end - start for start, end in ranges] == [
                    size // devices + (index < size % devices) for index in range(devices)]
                assert [start for start, _ in ranges] == [0] + [end for _, end in ranges[:-1]]

    def test_weighted_counts(self):
        assert Partition.of(4, 4, 1).counts(9000) == [4000, 4000, 1000]
        assert Partition.of(3, 1).counts(8) == [6, 2]

    def test_zero_weight_gets_empty_range(self):
        assert Partition.of(1, 0).ranges(6) == [(0, 6), (6, 6)]
        assert Partition.of(0, 1, 0).ranges(5) == [(0, 0), (0, 5), (5, 5)]

    def test_largest_remainder_breaks_ties_by_index(self):
        # Equal fractional remainders: the earlier device wins, matching
        # the historic even-split behaviour.
        assert Partition.even(3).counts(5) == [2, 2, 1]
        assert Partition.of(1, 1, 1, 1).counts(6) == [2, 2, 1, 1]

    def test_weights_need_not_be_normalized(self):
        assert Partition.of(2, 2).ranges(10) == Partition.of(0.5, 0.5).ranges(10)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition.of(1, -1)
        with pytest.raises(ValueError):
            Partition.of(0, 0)
        with pytest.raises(ValueError):
            Partition.even(0)

    def test_quantized_is_a_fixed_point(self):
        part = Partition.of(3.14159, 2.71828, 1.41421).quantized()
        assert part.quantized() == part

    def test_value_equality_and_hash(self):
        assert Partition.of(1, 2) == Partition.of(1, 2)
        assert Partition.of(1, 2) != Partition.of(2, 1)
        assert hash(Partition.of(1, 2)) == hash(Partition.of(1, 2))

    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
        size=st.integers(0, 5000),
    )
    @settings(max_examples=150, deadline=None)
    def test_ranges_cover_exactly(self, weights, size):
        if not any(w > 0 for w in weights):
            weights = weights + [1.0]
        part = Partition.proportional(weights)
        ranges = part.ranges(size)
        assert len(ranges) == len(part.weights)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == size
        for (_s1, e1), (s2, _e2) in zip(ranges, ranges[1:]):
            assert e1 == s2
        assert all(end >= start for start, end in ranges)


class TestDistributionIntegration:
    def test_block_with_partition(self):
        chunks = Block().chunks(8, Partition.of(3, 1))
        assert [(c.owned_start, c.owned_end) for c in chunks] == [(0, 6), (6, 8)]
        assert [(c.stored_start, c.stored_end) for c in chunks] == [(0, 6), (6, 8)]

    def test_block_without_partition_unchanged(self):
        assert [(c.owned_start, c.owned_end)
                for c in Block().chunks(8, Partition.even(2))] == [(0, 4), (4, 8)]

    def test_overlap_with_partition_grows_halo_around_owned(self):
        chunks = Overlap(2).chunks(12, Partition.of(1, 3))
        assert [(c.owned_start, c.owned_end) for c in chunks] == [(0, 3), (3, 12)]
        assert [(c.stored_start, c.stored_end) for c in chunks] == [(0, 5), (1, 12)]

    def test_overlap_zero_owned_chunk_stores_nothing(self):
        chunks = Overlap(2).chunks(10, Partition.of(1, 0))
        assert chunks[1].owned_size == 0
        assert chunks[1].stored_size == 0

    def test_a_distribution_takes_no_partition(self):
        """The split belongs to the session: a distribution is one of
        the paper's four and carries no weights."""
        with pytest.raises(TypeError):
            Block(Partition.of(1, 1))
        with pytest.raises(TypeError):
            Overlap(1, Partition.of(1, 1))
        for distribution in (Single(1), Copy(), Block(), Overlap(2)):
            assert not hasattr(distribution, "partition")
            assert not hasattr(distribution, "with_partition")

    def test_single_and_copy_read_only_the_device_count(self):
        for split in (Partition.of(2, 1, 0), Partition.even(3)):
            assert [c.device_index for c in Copy().chunks(5, split)] == [0, 1, 2]
            (chunk,) = Single(2).chunks(5, split)
            assert (chunk.device_index, chunk.owned_size) == (2, 5)
        with pytest.raises(ValueError, match="only 3 device"):
            Single(3).chunks(5, Partition.of(2, 1, 0))

    def test_block_equals_block_whatever_session_staged_it(self):
        double = skelcl.Map("float f(float x) { return 2.0f * x; }")
        labels = []
        for partition in (None, Partition.of(3, 1), "throughput"):
            with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, partition=partition):
                result = double(skelcl.Vector(data=np.ones(8, np.float32)))
                labels.append(result.distribution)
        assert labels == [Block()] * 3
        assert len(set(labels)) == 1 and repr(labels[1]) == "Block()"
        assert Overlap(2) == Overlap(2) != Overlap(1)


class TestModeledThroughput:
    def test_gpu_vs_cpu_skew(self):
        gpu = modeled_throughput(ocl.TESLA_T10)
        cpu = modeled_throughput(ocl.CPU_8CORE)
        assert gpu == pytest.approx(345.6)
        assert cpu == pytest.approx(86.4)
        assert gpu / cpu == pytest.approx(4.0)

    def test_from_specs_seed(self):
        part = Partition.from_specs([ocl.TESLA_T10, ocl.TESLA_T10, ocl.CPU_8CORE])
        assert part.counts(9000) == [4000, 4000, 1000]


class TestDevicePresets:
    def test_named_presets_resolve(self):
        assert ocl.resolve_device_spec("tesla") is ocl.TESLA_T10
        assert ocl.resolve_device_spec("CPU-8core") is ocl.CPU_8CORE
        assert ocl.resolve_device_spec(ocl.TEST_DEVICE) is ocl.TEST_DEVICE

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown device preset"):
            ocl.resolve_device_spec("abacus")

    def test_mixed_platform(self):
        platform = ocl.Platform([ocl.TESLA_T10, ocl.CPU_8CORE])
        assert [d.index for d in platform.devices] == [0, 1]
        assert platform.devices[0].spec is ocl.TESLA_T10
        assert platform.devices[1].spec is ocl.CPU_8CORE
        assert "mixed" in platform.name

    def test_homogeneous_platform_unchanged(self):
        platform = ocl.Platform(ocl.TEST_DEVICE, 3)
        assert len(platform.devices) == 3
        assert "mixed" not in platform.name


class TestSessionPartitionPolicy:
    def test_init_with_device_names(self):
        with skelcl.init(devices=["tesla", "tesla", "cpu-8core"]) as session:
            assert session.num_devices == 3
            assert session.specs[2] is ocl.CPU_8CORE
            assert session.spec is ocl.TESLA_T10  # compat: first spec
            assert session.partition == Partition.even(3)

    def test_throughput_policy_sets_static_partition(self):
        with skelcl.init(devices=["tesla", "cpu-8core"],
                         partition="throughput") as session:
            assert session.partition is not None
            assert session.partition.counts(1000) == [800, 200]
            assert session.partitioner is None

    def test_adaptive_policy_installs_partitioner(self):
        with skelcl.init(devices=["tesla", "cpu-8core"],
                         partition="adaptive") as session:
            assert isinstance(session.partitioner, AdaptivePartitioner)
            assert session.partition == session.partitioner.partition

    def test_explicit_partition(self):
        part = Partition.of(1, 3)
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE,
                         partition=part) as session:
            assert session.partition == part

    def test_partition_device_count_mismatch_rejected(self):
        with pytest.raises(skelcl.SkelCLError):
            skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE,
                        partition=Partition.of(1, 1, 1))

    def test_unknown_policy_rejected(self):
        with pytest.raises(skelcl.SkelCLError):
            skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE, partition="magic")

    def test_devices_and_spec_mutually_exclusive(self):
        with pytest.raises(skelcl.SkelCLError):
            skelcl.init(devices=["tesla"], spec=ocl.TEST_DEVICE)

    def test_env_var_policy(self, monkeypatch):
        monkeypatch.setenv("SKELCL_PARTITION", "throughput")
        with skelcl.init(devices=["tesla", "cpu-8core"]) as session:
            assert session.partition is not None
            assert session.partition.counts(10) == [8, 2]

    def test_rebalance_without_partitioner_is_noop(self):
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE) as session:
            assert session.rebalance() is False

    def test_session_partition_is_always_a_partition(self):
        from repro import serve

        with skelcl.init(num_devices=3, spec=ocl.TEST_DEVICE) as session:
            assert session.partition == Partition.even(3)
            assert session.settings.partition is None  # the policy, not the split
        with serve.Server(devices=("test", "test")) as server:
            assert server.session.partition == Partition.even(2)

    @pytest.mark.parametrize("bad, message", [
        (Partition.of(1, 1, 1), "3 weights for 2 device"),
        (None, "must be a Partition"),
        ("even", "must be a Partition"),
        ((1.0, 1.0), "must be a Partition"),
    ], ids=["wrong-size", "none", "policy-name", "bare-weights"])
    def test_assignment_is_validated_where_it_is_made(self, bad, message):
        double = skelcl.Map("float f(float x) { return 2.0f * x; }")
        with skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE,
                         partition=Partition.of(3, 1)) as session:
            x = skelcl.Vector(data=np.ones(8, np.float32))
            double(x).to_numpy()
            with pytest.raises(skelcl.SkelCLError, match=message):
                session.partition = bad
            # The previous split is still in force and the session usable.
            assert session.partition == Partition.of(3, 1)
            result = double(x)
            assert result.to_numpy().tolist() == [2.0] * 8
            assert [c.owned_size for c in result._chunks] == [6, 2]


# -- the invariant the per-distribution label used to approximate ---------------

INC = "int f(int x) { return x + 1; }"
ADD = "int f(int x, int y) { return x + y; }"
MUL = "int f(int x, int y) { return x * y; }"
AROUND = "int func(int* v) { return get(v, -1) + get(v, 0) + get(v, 2); }"

# One weight per device of the largest pool; a smaller pool takes a
# prefix, so device 0 always holds data (no all-zero partition).
_weights = st.tuples(st.integers(1, 3), *[st.integers(0, 3)] * 3)
_distribution = st.one_of(
    st.builds(skelcl.Single, st.integers(0, 3)), st.just(skelcl.Copy()),
    st.just(skelcl.Block()), st.builds(skelcl.Overlap, st.integers(0, 3)))
_action = st.one_of(
    st.tuples(st.just("assign"), _weights),
    st.tuples(st.just("adapt"), _weights),
    st.tuples(st.just("rebalance"), st.none()),
    st.tuples(st.just("distribute"), _distribution),
    st.tuples(st.sampled_from(["map", "zip", "scan", "overlap", "reduce", "allpairs"]),
              st.booleans()),
)
SPLIT_ACTIONS = ("assign", "adapt", "rebalance")


def _owned(chunks):
    return [(c.device_index, c.owned_start, c.owned_end) for c in chunks]


def _assert_staged_under_the_sessions_partition(container, session):
    """What a call left on the devices is what the container's
    distribution means under the session's partition *now*: the same
    owned ranges on the same devices, stored ranges at least as large
    (a relabel keeps the larger buffers)."""
    distribution = container.distribution  # a force point in a lazy session
    if not container._chunks:  # a Scalar-like or fused-away intermediate
        return
    assert container._session is session
    assert container._split == session.partition
    expected = distribution.chunks(container._units, session.partition)
    assert _owned(container._chunks) == _owned(expected)
    for have, want in zip(container._chunks, expected):
        assert have.stored_start <= want.stored_start
        assert want.stored_end <= have.stored_end


def _drive(devices, lazy, n, actions, follow_split_actions):
    """Run ``actions`` on a fresh strict session; returns every result
    as host data.  With ``follow_split_actions`` off the session keeps
    its even split — the run the other one must equal."""
    inc, add, prefix = skelcl.Map(INC), skelcl.Zip(ADD), skelcl.Scan(ADD)
    total = skelcl.Reduce(ADD)
    around = skelcl.MapOverlap(AROUND, 2, skelcl.SCL_NEUTRAL, 0)
    pairs = skelcl.AllPairs(skelcl.Reduce(ADD), skelcl.Zip(MUL))
    results = []
    with skelcl.init(num_devices=devices, spec=ocl.TEST_DEVICE, lazy=lazy,
                     detect_races="strict") as session:
        x = skelcl.Vector(data=np.arange(n, dtype=np.int32) % 5)
        y = skelcl.Vector(data=np.arange(n, dtype=np.int32) % 3)
        a = skelcl.Matrix(data=np.arange(n * 3, dtype=np.int32).reshape(n, 3) % 4)
        b = skelcl.Matrix(data=np.arange(15, dtype=np.int32).reshape(5, 3) % 3)
        calls = {  # on the current `x`: each returns (result, inputs)
            "map": lambda: (inc(x), (x,)), "zip": lambda: (add(x, y), (x, y)),
            "scan": lambda: (prefix(x), (x,)), "overlap": lambda: (around(x), (x,)),
            "reduce": lambda: (total(x), (x,)), "allpairs": lambda: (pairs(a, b), (a, b)),
        }
        for kind, argument in actions:
            if kind in SPLIT_ACTIONS:
                if not follow_split_actions:
                    continue
                if kind == "rebalance":
                    session.rebalance()
                    continue
                split = Partition.of(*argument[:devices])
                if kind == "adapt":  # re-sizes only when asked (`rebalance`)
                    session.use_adaptive(initial=split, threshold=1e9)
                else:
                    session.partitioner = None  # or its split returns at the next flush
                    session.partition = split
                continue
            if kind == "distribute":
                if getattr(argument, "device_index", 0) < devices:
                    x.set_distribution(argument)
                    if follow_split_actions:
                        _assert_staged_under_the_sessions_partition(x, session)
                continue
            out, inputs = calls[kind]()
            if follow_split_actions and (argument or not lazy):
                # Eager: after every call.  Lazy: where the example says
                # so, or the calls between would never meet the planner.
                for container in (out, *inputs):
                    if isinstance(container, skelcl.Container):
                        _assert_staged_under_the_sessions_partition(container, session)
            results.append(out)
            if isinstance(out, skelcl.Vector):
                x = out
        arrays = [r.get_value() if isinstance(r, skelcl.Scalar) else r.to_numpy().copy()
                  for r in results]
        session.finish_all()
        assert session.context.check_races() == []
    return arrays


class TestTheSplitHasOneOwner:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    @given(devices=st.integers(1, 4), n=st.integers(4, 40),
           actions=st.lists(_action, min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_staged_chunks_follow_the_sessions_partition(self, lazy, devices, n, actions):
        followed = _drive(devices, lazy, n, actions, True)
        even = _drive(devices, lazy, n, actions, False)
        assert len(followed) == len(even)
        for got, want in zip(followed, even):
            assert np.array_equal(got, want)
