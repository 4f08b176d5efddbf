"""Unit tests of the benchmark harness itself (``pytest bench/ -q``; not
part of tier-1's ``testpaths``)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run as runner  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

# -- spans --------------------------------------------------------------------


def test_self_time_nested_sibling_and_zero_length():
    recorded = [
        ["outer", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],       # nested in outer
        ["grandchild", 2.0, 3.0, 1, 0],  # nested in child
        ["child", 5.0, 7.0, 0, 0],       # sibling of the first child
        ["empty", 8.0, 8.0, 0, 0],       # zero-length
    ]
    times = spans.self_times(recorded)
    assert times["outer"] == (10.0 - 3.0 - 2.0 - 0.0, 1, 10.0)
    assert times["child"] == ((3.0 - 1.0) + 2.0, 2, 5.0)
    assert times["grandchild"] == (1.0, 1, 1.0)
    assert times["empty"] == (0.0, 1, 0.0)
    assert sum(self_s for self_s, _, _ in times.values()) == pytest.approx(10.0)
    assert spans.root_time(recorded) == 10.0


def test_window_keeps_parents_valid():
    recorded = [
        ["setup", 0.0, 1.0, -1, -1],
        ["a", 1.0, 3.0, -1, 5],
        ["b", 1.5, 2.0, 1, 5],
        ["a", 3.0, 4.0, -1, 6],
    ]
    win = spans.window(recorded, 5, 6)
    assert [span[0] for span in win] == ["a", "b"]
    assert win[1][3] == 0 and win[0][3] == -1
    assert spans.self_times(win)["a"][0] == pytest.approx(1.5)


def test_tracer_records_nesting_restores_bindings_and_survives_missing_targets():
    import repro.ocl.program as program_module

    original = program_module.preprocess_source
    tracer = spans.Tracer()
    tracer.install((
        ("kernelc.preprocess", "repro.ocl.program", "preprocess_source"),
        ("gone", "repro.ocl.program", "no_such_function"),
        ("gone", "repro.no_such_module", "anything"),
        ("gone", "repro.ocl.program", "Program.no_such_method"),
    ))
    assert program_module.preprocess_source is not original
    assert len(tracer.unresolved) == 3
    tracer.op = 7
    program_module.preprocess_source("int x;", "<t>", {})
    tracer.uninstall()
    assert program_module.preprocess_source is original
    (span,) = tracer.spans
    assert span[0] == "kernelc.preprocess" and span[3] == -1 and span[4] == 7
    assert span[2] >= span[1]


def test_entry_point_table_resolves_on_this_tree():
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.unresolved == []
    finally:
        tracer.uninstall()


# -- stats --------------------------------------------------------------------


def test_percentiles_and_sample_counts():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile([3.0], 90) == 3.0
    summary = stats.latency_summary([v / 1e3 for v in values])
    assert summary == {"samples": 100, "p50_ms": 50.0, "p90_ms": 90.0, "beyond_p90": 10}
    assert stats.latency_summary([0.001] * 99)["beyond_p90"] == 9
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_iqr_over_median():
    one_outlier_each_side = [9.0] + [10.0] * 8 + [11.0]
    assert stats.spread(one_outlier_each_side) == 0.0
    two_each_side = [8.0, 9.0] + [10.0] * 6 + [11.0, 12.0]
    assert stats.spread(two_each_side) == pytest.approx(0.05)


def test_speed_factors_are_per_segment_medians():
    reference = 0.001
    calibrations = [0.001] * 10 + [0.002] * 9 + [0.050]   # a slow half with one spike
    factors = stats.speed_factors(calibrations, segments=2, reference=reference)
    assert factors == [1.0] * 10 + [2.0] * 10
    assert stats.speed_factors([0.003], segments=10, reference=reference) == [3.0]
    assert 0.0 < stats.calibrate() < 0.1


def test_drift_needs_two_whole_groups():
    assert layers.drift_ratio([1.0] * 19) == 0.0
    assert layers.drift_ratio([1.0] * 10 + [2.0] * 10) == 2.0
    assert layers.drift_ratio([1.0] * 16 + [3.0] * 16, period=16) == 3.0
    assert layers.drift_ratio([1.0] * 96, period=96) == 0.0


# -- oracles ------------------------------------------------------------------


def test_comparison_rules():
    x = np.arange(8, dtype=np.float32)
    assert oracles.compare(x, x.copy())
    assert not oracles.compare(x, x.astype(np.float64))      # dtype is part of equality
    assert not oracles.compare(x[:-1], x)
    wrong = x.copy()
    wrong[3] += 1
    assert not oracles.compare(wrong, x)


def test_reduction_tolerance_still_detects_a_dropped_average_element():
    rng = np.random.RandomState(0)
    x = (rng.randint(-128, 129, 32768) / 64.0).astype(np.float32)
    total = x.astype(np.float64).sum()
    tolerance = oracles.reduction_tolerance(np.float32, np.abs(x).sum())
    assert oracles.compare(np.float32(total), total, tolerance)
    assert tolerance < np.abs(x).mean() / 2
    assert not oracles.compare(total - np.abs(x).mean(), total, tolerance)


def test_stencil_oracles_agree_with_the_apps_references():
    """``repro.apps`` references are only a cross-check here: the
    oracles are written independently in NumPy."""
    from repro.apps.gaussian import gaussian_reference
    from repro.apps.images import sobel_reference_uchar

    image = np.random.RandomState(3).randint(0, 256, (32, 40)).astype(np.uint8)
    assert np.array_equal(oracles.gaussian3x3(image), gaussian_reference(image))
    assert np.array_equal(oracles.sobel3x3(image), sobel_reference_uchar(image))


# -- corpus -------------------------------------------------------------------


def test_corpus_is_deterministic_and_seeded():
    first, again = corpus.sources(11), corpus.sources(11)
    assert len(first) >= corpus.DEFAULT_PROGRAMS
    assert "\0".join(first).encode() == "\0".join(again).encode()
    assert corpus.sources(12) != first
    assert len(set(first)) == len(first), "every program must be a new source"
    for a, b in zip(corpus.program(11, 5).inputs, corpus.program(11, 5).inputs):
        assert np.array_equal(a, b)


def test_every_template_has_an_oracle_and_cycles_its_types():
    shapes = {template.shape for template in corpus.TEMPLATES}
    assert shapes == set(oracles.BODY_ORACLES)
    seen = {(p.shape, p.ctype) for p in (corpus.program(0, i) for i in range(
        4 * len(corpus.TEMPLATES)))}
    assert seen == {(t.shape, c) for t in corpus.TEMPLATES for c in t.ctypes}


def test_all_default_programs_build_and_match_their_oracles(tmp_path, monkeypatch):
    monkeypatch.setenv("SKELCL_DIR", str(tmp_path))
    for name in [key for key in os.environ if key.startswith("SKELCL_") and key != "SKELCL_DIR"]:
        monkeypatch.delenv(name)
    import workloads

    workload = workloads.BuildLifecycle(seed=21)
    workload.setup()
    try:
        for index in range(corpus.DEFAULT_PROGRAMS):
            payload = workload.prepare(index)
            assert workload.check(payload, workload.step(payload)) == 0, payload[0]
    finally:
        workload.close()
    assert any(tmp_path.rglob("*.pkl")), "the disk cache must live under SKELCL_DIR"


# -- manifest and result shape ------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_matches_the_contract_and_the_code():
    import workloads

    spec = runner.manifest()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(_NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in workloads.WORKLOADS.values():
        assert workload.window_steps % workload.period == 0


def test_contract_line_has_exactly_the_declared_metrics():
    spec = runner.manifest()
    untraced = {"trace": 0, "attempted": 10, "failed": 1, "warmup_failed": 0,
                "metrics": {m["name"]: 1.5 for m in spec["end_to_end"]}}
    line = json.loads(runner.contract_line(untraced, spec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False and line["failed"] == 1
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    traced = {"trace": 1, "attempted": 10, "failed": 0, "warmup_failed": 0,
              "metrics": {m["name"]: None for m in spec["per_layer"]}}
    line = json.loads(runner.contract_line(traced, spec))
    assert line["correct"] is True
    assert all(entry == {"value": 0.0, "unit": m["unit"]}
               for entry, m in zip(line["metrics"].values(), spec["per_layer"]))


# -- environment isolation ----------------------------------------------------


def _tree(path: str):
    return sorted(os.path.join(base, name) for base, _, names in os.walk(path)
                  for name in names)


def _git_status():
    try:
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def test_a_run_leaves_no_trace_outside_bench_out(monkeypatch):
    monkeypatch.setenv("SKELCL_BACKEND", "interp")   # must not reach the child
    monkeypatch.setenv("SKELCL_LAZY", "1")
    user_cache = os.path.expanduser(os.path.join("~", ".cache", "skelcl"))
    cache_before, status_before = _tree(user_cache), _git_status()
    for trace in (0, 1):
        result = runner.measure("build_lifecycle", seed=5, seconds=0.5, trace=trace)
        assert result["failed"] == result["warmup_failed"] == 0
        # Cold builds happened, so the disk cache was written somewhere...
        assert result["exact"]["ocl.program.builds_compiled"] > 0
        assert result["exact"]["plan.deferred"] == 0, "SKELCL_LAZY leaked into the child"
    # ...but not into the user's cache, and not into any tracked or unignored file.
    assert _tree(user_cache) == cache_before
    assert _git_status() == status_before
    leftovers = [name for name in os.listdir(runner.OUT_DIR)
                 if os.path.isdir(os.path.join(runner.OUT_DIR, name))]
    assert leftovers == [], "per-run SKELCL_DIR directories must be removed"
    env = runner.child_env("/somewhere")
    assert [key for key in env if key.startswith("SKELCL_")] == ["SKELCL_DIR"]
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"
