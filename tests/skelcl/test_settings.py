"""The unified configuration chain: explicit kwarg >
``skelcl.configure()`` > ``SKELCL_*`` environment > default."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

import repro.skelcl as skelcl
from repro import ocl, settings


@pytest.fixture(autouse=True)
def _clean_config(monkeypatch):
    """Each test starts from a pristine chain: no configure() overrides,
    no SKELCL_* environment."""
    env_vars = ("SKELCL_CACHE", "SKELCL_DIR", "SKELCL_LAZY",
                "SKELCL_METRICS", "SKELCL_PARTITION", "SKELCL_SANITIZE", "SKELCL_TRACE")
    settings.configure(reset=True)
    for var in env_vars:
        monkeypatch.delenv(var, raising=False)
    yield
    # Drop any env a test set *before* re-resolving: configure()
    # returns the current chain, which must not trip on leftovers.
    for var in env_vars:
        monkeypatch.delenv(var, raising=False)
    settings.configure(reset=True)
    skelcl.terminate()


class TestPrecedence:
    def test_defaults(self):
        resolved = skelcl.current_settings()
        assert resolved.cache is True
        assert resolved.lazy is False
        assert resolved.sanitize == "off"
        assert resolved.partition is None
        assert resolved.trace is None

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "report")
        monkeypatch.setenv("SKELCL_LAZY", "1")
        resolved = skelcl.current_settings()
        assert resolved.sanitize == "report"
        assert resolved.lazy is True

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        skelcl.configure(sanitize="off")
        assert skelcl.current_settings().sanitize == "off"

    def test_explicit_kwarg_beats_configure(self, monkeypatch):
        monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        skelcl.configure(sanitize="report")
        session = skelcl.init(num_devices=1, detect_races="off")
        assert session.settings.sanitize == "off"

    def test_none_kwarg_defers_down_the_chain(self):
        skelcl.configure(lazy=True)
        session = skelcl.init(num_devices=1, lazy=None)
        assert session.settings.lazy is True
        assert session.lazy

    def test_configure_none_clears_one_override(self):
        skelcl.configure(sanitize="report")
        skelcl.configure(sanitize=None)
        assert skelcl.current_settings().sanitize == "off"

    def test_configure_reset_drops_all_overrides(self):
        skelcl.configure(sanitize="report", lazy=True)
        skelcl.configure(reset=True)
        resolved = skelcl.current_settings()
        assert resolved.sanitize == "off" and resolved.lazy is False


class TestSessionSettings:
    def test_session_exposes_resolved_settings(self):
        session = skelcl.init(num_devices=2, lazy=True, detect_races="report")
        assert isinstance(session.settings, skelcl.Settings)
        assert session.settings.lazy is True
        assert session.settings.sanitize == "report"
        assert session.settings.lazy is session.lazy

    def test_configure_shapes_later_sessions_only(self):
        first = skelcl.init(num_devices=1)
        assert first.settings.lazy is False
        skelcl.configure(lazy=True)
        second = skelcl.init(num_devices=1)
        assert second.settings.lazy is True
        assert first.settings.lazy is False  # frozen snapshot

    def test_settings_are_frozen(self):
        session = skelcl.init(num_devices=1)
        with pytest.raises(Exception):
            session.settings.lazy = True


class TestValidation:
    def test_unknown_setting_is_a_type_error(self):
        with pytest.raises(TypeError, match="valid settings"):
            skelcl.configure(torbo_mode=True)

    def test_seven_settings_and_no_engine_choice(self):
        assert [field.name for field in dataclasses.fields(skelcl.Settings)] == [
            "cache", "dir", "lazy", "metrics", "partition", "sanitize", "trace"]
        with pytest.raises(TypeError, match="valid settings"):
            skelcl.configure(backend="vector")

    def test_invalid_sanitize_rejected(self):
        with pytest.raises(ValueError, match="off/report/strict"):
            skelcl.configure(sanitize="sometimes")

    def test_invalid_partition_policy_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            skelcl.configure(partition="magic")

    def test_bool_parsing(self, monkeypatch):
        for text, expect in (("1", True), ("on", True), ("true", True),
                             ("0", False), ("off", False), ("no", False)):
            monkeypatch.setenv("SKELCL_LAZY", text)
            assert skelcl.current_settings().lazy is expect, text

    def test_empty_env_string_means_default(self, monkeypatch):
        monkeypatch.setenv("SKELCL_CACHE", "")
        monkeypatch.setenv("SKELCL_PARTITION", "")
        resolved = skelcl.current_settings()
        assert resolved.cache is True  # not False: empty = unset
        assert resolved.partition is None

    def test_bad_env_value_raises_at_resolution(self, monkeypatch):
        monkeypatch.setenv("SKELCL_LAZY", "maybe")
        with pytest.raises(ValueError, match="lazy"):
            skelcl.current_settings()

    def test_sanitize_boolean_coercion(self):
        assert settings.resolve(sanitize=True).sanitize == "strict"
        skelcl.configure(reset=True, sanitize="warn")
        assert skelcl.current_settings().sanitize == "report"


class TestDerivedPaths:
    def test_cache_directory_default_under_dir(self):
        skelcl.configure(dir="/tmp/skelcl-test-home")
        assert settings.cache_directory() == "/tmp/skelcl-test-home/programs"

    def test_dir_is_the_one_location_setting(self, monkeypatch):
        monkeypatch.setenv("SKELCL_DIR", "/tmp/skelcl-env-home")
        monkeypatch.setenv("SKELCL_CACHE_DIR", "/tmp/elsewhere")  # not a setting
        assert settings.cache_directory() == "/tmp/skelcl-env-home/programs"
        with pytest.raises(TypeError, match="valid settings"):
            skelcl.configure(cache_dir="/tmp/elsewhere")

    def test_env_mapping_round_trips(self):
        skelcl.configure(partition="throughput", lazy=True, sanitize="strict")
        env = skelcl.current_settings().env
        assert env["SKELCL_PARTITION"] == "throughput"
        assert env["SKELCL_LAZY"] == "1"
        assert env["SKELCL_SANITIZE"] == "strict"
        assert "SKELCL_TRACE" not in env  # unset switches omitted


class TestSubsystemsReadTheChain:
    def test_sanitize_setting_arms_the_detector(self):
        skelcl.configure(sanitize="report")
        session = skelcl.init(num_devices=1)
        assert session.context.race_detector is not None

    @pytest.mark.parametrize("link", ["kwarg", "configure", "env"])
    def test_strict_sanitize_fails_a_build_with_a_lint_error(self, link, monkeypatch):
        """Whichever link of the chain says ``strict``, a skeleton whose
        kernel has a lint *error* fails to build — same text, nothing
        enqueued — instead of faulting at run time."""
        kwargs = {}
        if link == "kwarg":
            kwargs["detect_races"] = "strict"
        elif link == "configure":
            skelcl.configure(sanitize="strict")
        else:
            monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        ocl.clear_build_cache()
        session = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, **kwargs)
        out_of_bounds = skelcl.Map("float f(float x) { float a[4]; a[0] = x; return a[7]; }")
        with pytest.raises(ocl.BuildError) as failure:
            out_of_bounds(skelcl.Vector(data=np.ones(8, np.float32))).to_numpy()
        assert str(failure.value) == (
            "program build failed:\n"
            "skelcl_map_f:1:49: error: index 7 is out of bounds for array of "
            "length 4 [constant-index-oob]\n"
            "float f(float x) { float a[4]; a[0] = x; return a[7]; }\n"
            "                                                ^^^^"
            f" [in {failure.value.call_label}]")  # the call that failed
        assert failure.value.call_label.startswith("Map(f)@test_settings.py:")
        assert sum(len(queue.events) for queue in session.queues) == 0

    @pytest.mark.parametrize("link", ["configure", "env"])
    def test_explicit_off_beats_a_strict_link_at_build_time_too(self, link, monkeypatch):
        """The session's resolved mode — not the process-wide links —
        decides whether a lint error fails its builds."""
        if link == "configure":
            skelcl.configure(sanitize="strict")
        else:
            monkeypatch.setenv("SKELCL_SANITIZE", "strict")
        ocl.clear_build_cache()
        guarded = skelcl.Map("float f(float x) { float a[2]; a[0] = x; "
                             "if (x < -1.0f) { return a[3]; } return a[0]; }")
        data = skelcl.Vector(data=np.ones(8, np.float32))
        with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE, detect_races="off") as session:
            assert session.settings.sanitize == "off"
            assert guarded(data).to_numpy().tolist() == [1.0] * 8
        # The skeleton's built program is shared; a strict session still refuses it.
        with skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE):
            with pytest.raises(ocl.BuildError, match="constant-index-oob"):
                guarded(data).to_numpy()

    def test_lazy_setting_installs_the_planner(self):
        skelcl.configure(lazy=True)
        session = skelcl.init(num_devices=1)
        assert session.planner is not None

    def test_partition_setting_installs_a_partition(self):
        skelcl.configure(partition="even")
        session = skelcl.init(num_devices=2)
        assert session.settings.partition == "even"
        assert session.partition == skelcl.Partition.even(2)

    def test_cache_setting_reaches_progcache(self):
        from repro.kernelc import progcache

        skelcl.configure(cache=False)
        assert progcache.enabled() is False
        skelcl.configure(cache=True)
        assert progcache.enabled() is True
