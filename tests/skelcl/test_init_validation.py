"""Strict, eager ``skelcl.init()`` validation: every bad argument fails
before any device state exists, with an error naming the valid
choices."""

from __future__ import annotations

import pytest

import repro.skelcl as skelcl
from repro import ocl
from repro.skelcl import SkelCLError


@pytest.fixture(autouse=True)
def _teardown():
    yield
    skelcl.terminate()


class TestUnknownArguments:
    def test_unknown_kwarg_is_a_type_error_listing_keywords(self):
        with pytest.raises(TypeError) as err:
            skelcl.init(num_devices=1, devcies=["test"])
        message = str(err.value)
        assert "devcies" in message
        assert "num_devices" in message and "partition" in message

    def test_multiple_unknown_kwargs_all_reported(self):
        with pytest.raises(TypeError) as err:
            skelcl.init(foo=1, bar=2)
        assert "bar, foo" in str(err.value)

    def test_nothing_initialized_after_failed_init(self):
        with pytest.raises(TypeError):
            skelcl.init(num_devices=1, turbo=True)
        assert not skelcl.is_initialized()


class TestDeviceArguments:
    def test_unknown_preset_lists_valid_presets(self):
        with pytest.raises(SkelCLError) as err:
            skelcl.init(devices=["test", "gtx-9000"])
        message = str(err.value)
        assert "gtx-9000" in message
        assert "tesla" in message and "cpu-8core" in message

    def test_unknown_spec_preset_same_error(self):
        with pytest.raises(SkelCLError, match="known presets"):
            skelcl.init(num_devices=1, spec="quantum")

    def test_devices_and_num_devices_conflict(self):
        with pytest.raises(SkelCLError, match="not both"):
            skelcl.init(num_devices=2, devices=["test"])

    def test_devices_and_spec_conflict(self):
        with pytest.raises(SkelCLError, match="not both"):
            skelcl.init(spec=ocl.TEST_DEVICE, devices=["test"])

    def test_empty_devices_rejected(self):
        with pytest.raises(SkelCLError, match="at least one"):
            skelcl.init(devices=[])

    def test_num_devices_must_be_positive_int(self):
        for bad in (0, -1, 2.5, "2", True):
            with pytest.raises(SkelCLError, match="positive integer"):
                skelcl.init(num_devices=bad)

    def test_spec_accepts_preset_names(self):
        session = skelcl.init(num_devices=2, spec="test")
        assert session.num_devices == 2
        assert session.devices[0].name.startswith(ocl.TEST_DEVICE.name)


class TestPolicyArguments:
    def test_unknown_partition_policy_lists_choices(self):
        with pytest.raises(SkelCLError) as err:
            skelcl.init(num_devices=2, partition="magic")
        message = str(err.value)
        assert "magic" in message and "throughput" in message

    def test_there_is_no_engine_to_choose(self):
        with pytest.raises(TypeError, match="backend"):
            skelcl.init(num_devices=1, backend="vector")

    def test_unknown_sanitize_mode_rejected(self):
        with pytest.raises(SkelCLError, match="off/report/strict"):
            skelcl.init(num_devices=1, detect_races="sometimes")

    def test_valid_combination_still_works(self):
        session = skelcl.init(devices=["test", "cpu-8core"],
                              partition="throughput", lazy=True,
                              detect_races="report")
        assert session.num_devices == 2
        assert session.lazy and session.partition is not None
