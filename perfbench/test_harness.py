"""Self-test of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q

It checks that every named metric is emitted with its unit, that every
percentile of a full run rests on at least 100 samples, and that the
harness refuses to compute a percentile from fewer.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PERCENTILES = [name for name in run.END_TO_END if name.endswith(("_p50_ms", "_p90_ms"))]


def tiny_samples(n_ops: int) -> workloads.Samples:
    samples = workloads.Samples()
    first = samples.begin()
    for _ in range(n_ops):
        samples.record(True, samples.end(samples.begin()), None)
        samples.record(False, samples.end(samples.begin()), None)
    samples.unit_span = samples.end(first)
    samples.cold_states = 10 * n_ops
    samples.unit_ops = samples.attempted
    return samples


def tiny_unit(n_ops: int) -> dict:
    return dict(tiny_samples(n_ops).as_dict(), peak_rss_mb=30.0)


def test_nominal_seconds_scale_by_the_reference():
    clock = speed.SpeedClock()
    reference = 2 * speed.NOMINAL_S  # a host at half the nominal speed
    clock.starts = [0.0, 1.0, 3.0]
    clock.ends = [start + reference for start in clock.starts]
    factors = clock.factors()
    assert clock.raw(0, 2) == pytest.approx(3.0 - 2 * reference)
    assert clock.nominal(0, 2, factors) == pytest.approx((3.0 - 2 * reference) / 2)
    samples = tiny_samples(3)
    report = samples.as_dict()
    assert len(report["cold_s"]) == len(report["raw"]["warm_s"]) == 3
    assert report["unit_wall_s"] > 0 and report["reference_ms"] > 0


def test_percentile_needs_min_samples():
    with pytest.raises(run.TooFewSamples):
        run.percentile([1.0] * (run.MIN_SAMPLES - 1), 50)
    values = [float(i) for i in range(1, run.MIN_SAMPLES + 1)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0


def test_no_percentile_from_a_tiny_input():
    with pytest.raises(run.TooFewSamples):
        run.end_to_end([tiny_unit(5), tiny_unit(5)], [0.5, 0.4, 0.6])


def test_every_metric_is_named_with_its_unit():
    metrics = run.end_to_end([tiny_unit(run.MIN_SAMPLES // 2)] * 2, [0.5, 0.4, 0.6])
    assert list(metrics) == run.END_TO_END
    for name in PERCENTILES:
        assert metrics[name][1] >= run.MIN_SAMPLES
    layers = run.per_layer(tracing.Tracer(), tiny_samples(1), 1.5, 1.0)
    assert list(layers) == run.PER_LAYER
    assert all(name in run.UNITS for name in run.END_TO_END + run.PER_LAYER)


@pytest.mark.parametrize("workload", ["table1", "sweep", "service"])
def test_full_run_reports_every_metric(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    ).stdout.strip().splitlines()
    result = json.loads(out[-1])
    counts = json.loads(out[-2])["samples"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_SAMPLES
    assert list(result["metrics"]) == run.END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert metric["value"] > 0
    assert list(counts) == run.END_TO_END
    for name in PERCENTILES:
        assert counts[name] >= run.MIN_SAMPLES


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
