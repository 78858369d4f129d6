"""Tests for the benchmark's own arithmetic: span self times, counters, checks.

Not part of the package suite. Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def _span(sid, start, end, parent=None, layer="x", name="x"):
    return Span(sid, name, layer, start, end, parent)


def test_self_time_subtracts_nested_children():
    tree = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, parent=0), _span(2, 3.0, 4.0, parent=1)]
    assert spans.self_times(tree) == pytest.approx({0: 6.0, 1: 3.0, 2: 1.0})


def test_self_time_counts_overlapping_thread_children_once():
    # two workers overlap on [3, 5]; a third child runs past the parent's end
    tree = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, parent=0), _span(2, 3.0, 8.0, parent=0),
            _span(3, 9.5, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_worker_thread_spans_attach_to_the_active_job():
    tracer = spans.Tracer()
    work = tracer.wrap(lambda: time.sleep(0.05), "bcrb.closed_form", "bcrb")
    with tracer.job("cli.sweep", "cli") as job:
        with ThreadPoolExecutor(max_workers=2) as ex:
            for fut in [ex.submit(work) for _ in range(4)]:
                fut.result()
    children = [s for s in tracer.spans if s.name == "bcrb.closed_form"]
    assert len(children) == 4
    assert {s.parent for s in children} == {job.sid}
    assert {s.job for s in tracer.spans} == {job.sid}
    covered = spans._union_length([(s.start, s.end) for s in children])
    assert spans.self_times(tracer.spans)[job.sid] == pytest.approx(job.duration - covered)
    m = spans.layer_metrics(tracer.spans, job.duration)
    assert m["cli.sweep.concurrency"] == pytest.approx(
        sum(s.duration for s in children) / job.duration)
    assert m["trace.unaccounted_s"] == pytest.approx(0.0)


def test_nested_spans_on_one_thread_take_the_innermost_parent():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "expectations.kernel_means", "expectations")
    outer = tracer.wrap(lambda: inner(), "bcrb.closed_form", "bcrb")
    with tracer.job("cli.sweep", "cli"):
        outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["expectations.kernel_means"].parent == by_name["bcrb.closed_form"].sid
    assert by_name["bcrb.closed_form"].parent == by_name["cli.sweep"].sid
    assert by_name["cli.sweep"].parent is None


def test_busy_time_counts_nested_spans_of_one_layer_once():
    tree = [_span(0, 0.0, 10.0, layer="bcrb"),
            _span(1, 1.0, 5.0, parent=0, layer="expectations"),
            _span(2, 2.0, 4.0, parent=1, layer="expectations"),
            _span(3, 6.0, 7.0, parent=0, layer="expectations")]
    assert spans.busy_time(tree, "expectations") == pytest.approx(5.0)


def test_repeat_share_counts_tones_whose_key_occurred_before():
    calls = [(np.array([0.0, 1.0, 2.0]), 1.0), (np.array([0.0, 1.0, 2.0]), 1.0),
             (np.array([0.0, 1.0]), 2.0)]
    # 8 tone integrations, 5 distinct (x0, s) keys
    assert spans.repeat_share(calls) == pytest.approx(3 / 8)
    assert spans.repeat_share([]) == 0.0


def test_narrow_share_uses_the_seed_routing_threshold():
    calls = [(np.zeros(3), 1.0 / 0.3), (np.zeros(1), 1.0 / 0.4)]
    assert spans.narrow_share(calls) == pytest.approx(3 / 4)


def test_detuning_stats_match_the_package():
    from metabcrb import SensingPrior, SensorModel
    from metabcrb.expectations import detuning_stats
    sensor = SensorModel(absorption_depth=0.5, half_width=0.3, shift_rate=-2.0, center_offset=0.7)
    prior = SensingPrior(mean=0.4, std=1.5)
    f = np.linspace(-3.0, 3.0, 7)
    x0, s = spans.detuning_stats(sensor, f, prior)
    ref_x0, ref_s = detuning_stats(sensor, f, prior)
    np.testing.assert_array_equal(x0, ref_x0)
    assert s == ref_s


def test_install_and_uninstall_restore_every_name():
    import metabcrb.cli
    import metabcrb.sensor
    before = metabcrb.cli.bcrb_closed_form, metabcrb.sensor.SensorModel.reflection
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert metabcrb.cli.bcrb_closed_form is not before[0]
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert (metabcrb.cli.bcrb_closed_form, metabcrb.sensor.SensorModel.reflection) == before


def test_names_a_later_commit_removed_are_reported_not_measured():
    tracer = spans.Tracer()
    tracer.install([("metabcrb.cli", "no_such_function", "x", "x", None),
                    ("metabcrb.no_such_module", "f", "x", "x", None),
                    ("metabcrb.sensor:NoSuchClass", "f", "x", "x", None)])
    tracer.uninstall()
    assert tracer.missing == ["metabcrb.cli.no_such_function", "metabcrb.no_such_module.f",
                              "metabcrb.sensor:NoSuchClass.f"]


CSV = ("scenario_label,closed_form,schur_from_blocks,dense_inverse,mc_estimate,mc_std_err,z_score\n"
       "configured,2.0e-04,2.0e-04,,2.1e-04,1.0e-05,1.0e+00\n"
       "det_los,1.0e-04,,,1.0e-04,0.0e+00,0.0e+00\n")
COLUMNS = ("closed_form", "schur_from_blocks", "dense_inverse")


def _write(tmp_path, text):
    path = tmp_path / "out.csv"
    path.write_text(text)
    return str(path)


def test_checker_accepts_the_reference_itself(tmp_path):
    path = _write(tmp_path, CSV)
    ref = checks.reference_entry(checks.read_csv(path), COLUMNS)
    assert checks.check_cli(0, path, ref) == []


def test_checker_flags_a_perturbed_value(tmp_path):
    ref = checks.reference_entry(checks.read_csv(_write(tmp_path, CSV)), COLUMNS)
    path = _write(tmp_path, CSV.replace("configured,2.0e-04,2.0e-04", "configured,2.0e-04,2.000001e-04"))
    problems = checks.check_cli(0, path, ref)
    assert len(problems) == 1 and "schur_from_blocks" in problems[0]
    # a change far below the tolerance passes
    path = _write(tmp_path, CSV.replace("2.0e-04,2.0e-04", "2.0e-04,2.0000000000001e-04"))
    assert checks.check_cli(0, path, ref) == []


def test_checker_flags_nonzero_exit_and_large_z(tmp_path):
    path = _write(tmp_path, CSV)
    ref = checks.reference_entry(checks.read_csv(path), COLUMNS)
    assert checks.check_cli(2, path, ref) == ["exit code 2"]
    assert checks.check_cli(3, path, ref) == ["exit code 3"]
    path = _write(tmp_path, CSV.replace("1.0e-05,1.0e+00", "1.0e-05,4.5e+00"))
    assert any("|z|" in p for p in checks.check_cli(0, path, ref))
    assert checks.check_cli(0, str(tmp_path / "missing.csv"), ref)


def test_library_checks():
    ok = {"closed_form": 1.0, "estimate": 1.03, "std_err": 0.01}
    assert checks.check_mc_narrow(ok, {"closed_form": 1.0}) == []
    assert checks.check_mc_narrow(dict(ok, estimate=1.05), {"closed_form": 1.0})
    post = {"bound": 1.0, "estimate": 0.99, "std_err": 0.01}
    assert checks.check_posterior(post, {"bound": 1.0}) == []
    assert checks.check_posterior(dict(post, estimate=0.97), {"bound": 1.0})


def test_benchmark_json_names_the_metrics_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    names = set(spans.layer_metrics([], 1.0)) | {
        "cli.csv_bytes_changed", "setup.scipy_integrate_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert m["unit"] == harness.per_layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
