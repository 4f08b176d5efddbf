"""Distribution unit tests (including hypothesis invariants)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.skelcl.distribution import Block, Copy, Overlap, Single
from repro.skelcl.partition import Partition


class TestEvenRanges:
    def test_even_split(self):
        assert Partition.even(2).ranges(8) == [(0, 4), (4, 8)]

    def test_uneven_split_front_loads_extra(self):
        assert Partition.even(3).ranges(10) == [(0, 4), (4, 7), (7, 10)]

    def test_more_devices_than_elements(self):
        ranges = Partition.even(4).ranges(2)
        sizes = [e - s for s, e in ranges]
        assert sizes == [1, 1, 0, 0]

    def test_zero_size(self):
        assert Partition.even(3).ranges(0) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid_devices(self):
        with pytest.raises(ValueError):
            Partition.even(0)

    @given(size=st.integers(0, 10000), devices=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_partition_invariants(self, size, devices):
        ranges = Partition.even(devices).ranges(size)
        assert len(ranges) == devices
        # Contiguous cover with no gaps or overlap.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == size
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 == s2
        # Near-equal: sizes differ by at most 1.
        sizes = [e - s for s, e in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestSingle:
    def test_default_device(self):
        (chunk,) = Single().chunks(10, Partition.even(4))
        assert chunk.device_index == 0
        assert chunk.owned_start == 0 and chunk.owned_end == 10

    def test_explicit_device(self):
        (chunk,) = Single(2).chunks(10, Partition.even(4))
        assert chunk.device_index == 2

    def test_invalid_device_rejected(self):
        with pytest.raises(ValueError):
            Single(5).chunks(10, Partition.even(2))


class TestCopy:
    def test_every_device_holds_everything(self):
        chunks = Copy().chunks(7, Partition.even(3))
        assert len(chunks) == 3
        for chunk in chunks:
            assert (chunk.owned_start, chunk.owned_end) == (0, 7)
            assert (chunk.stored_start, chunk.stored_end) == (0, 7)


class TestOverlap:
    def test_halo_extends_into_neighbors(self):
        chunks = Overlap(2).chunks(10, Partition.even(2))
        first, second = chunks
        assert (first.owned_start, first.owned_end) == (0, 5)
        assert (first.stored_start, first.stored_end) == (0, 7)
        assert first.halo_before == 0 and first.halo_after == 2
        assert (second.stored_start, second.stored_end) == (3, 10)
        assert second.halo_before == 2 and second.halo_after == 0

    def test_halo_clipped_at_edges(self):
        chunks = Overlap(100).chunks(10, Partition.even(2))
        for chunk in chunks:
            assert chunk.stored_start >= 0
            assert chunk.stored_end <= 10

    def test_zero_overlap_is_block(self):
        assert Overlap(0).chunks(9, Partition.even(3)) == Block().chunks(9, Partition.even(3))

    def test_negative_overlap_rejected(self):
        with pytest.raises(ValueError):
            Overlap(-1)

    @given(size=st.integers(1, 500), devices=st.integers(1, 6), overlap=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_overlap_invariants(self, size, devices, overlap):
        chunks = Overlap(overlap).chunks(size, Partition.even(devices))
        for chunk in chunks:
            assert chunk.stored_start <= chunk.owned_start <= chunk.owned_end <= chunk.stored_end
            assert chunk.halo_before <= overlap
            assert chunk.halo_after <= overlap
            if chunk.owned_size > 0:
                if chunk.owned_start > 0:
                    assert chunk.halo_before == min(overlap, chunk.owned_start)
                if chunk.owned_end < size:
                    assert chunk.halo_after == min(overlap, size - chunk.owned_end)


class TestEquality:
    def test_same_kind_equal(self):
        assert Block() == Block()
        assert Copy() == Copy()
        assert Single(1) == Single(1)
        assert Overlap(3) == Overlap(3)

    def test_different_parameters_unequal(self):
        assert Single(0) != Single(1)
        assert Overlap(1) != Overlap(2)

    def test_different_kinds_unequal(self):
        assert Block() != Copy()
        assert Block() != Overlap(0)

    def test_hashable(self):
        assert len({Block(), Block(), Copy(), Overlap(1), Overlap(1)}) == 3
