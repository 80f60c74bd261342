"""Tests of the benchmark itself, on the quick sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import run

run.prepare()

import harness  # noqa: E402  (needs run.prepare's path)
from omplab import cli, ripcheck  # noqa: E402
from tracing import Tracer, check_spans, pass_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, load_references, run_call  # noqa: E402

ROOT = run.BENCH.parent


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_run_is_correct_and_reports_declared_metrics(name, trace):
    proc, lines = _bench("--workload", name, "--seed", "37", "--seconds", "0.2",
                         "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not list((ROOT / ".bench_work").glob(f"{name}-*"))


def test_flipped_output_byte_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["phase_omp"](5, quick=True)
    ledger = harness.Ledger()
    calls = workload.calls()
    results = [run_call(c) for c in calls]
    assert ledger.record("clean", workload, calls, results) == workload.items
    assert ledger.failed == 0

    data = bytearray(results[0].output)
    data[-3] ^= 1
    corrupted = [replace(results[0], output=bytes(data))]
    assert ledger.record("corrupted", workload, calls, corrupted) == 0
    assert ledger.failed == workload.items
    assert ledger.failed / ledger.attempted == 0.5


def test_reference_mismatch_fails_even_on_the_first_pass(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["ric_stream"](2, quick=True)
    workload.reference = load_references("quick", workload.name, 3)
    ledger = harness.Ledger()
    ledger.record("first", workload, workload.calls(),
                  [run_call(c) for c in workload.calls()])
    assert ledger.failed == workload.items


def test_probe_samples_inside_a_call_and_takes_its_time_off():
    probe = harness.SpeedProbe(interval=0.05)
    t0 = time.perf_counter()
    with probe.sampling():
        while time.perf_counter() < t0 + 0.4:
            pass
    wall = time.perf_counter() - t0
    inside = probe.times[1:]
    assert len(inside) >= 3
    scaled = probe.scale(wall)
    samples = probe.times
    assert scaled == pytest.approx((wall - sum(inside)) * probe.REFERENCE_S * len(samples)
                                   / sum(samples))
    assert probe.scale(1.0) == pytest.approx(probe.REFERENCE_S * 2 / sum(probe.times[-2:]))


def test_traced_pass_spans_nest_and_cover_the_pass(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    originals = (cli.main, ripcheck.exact_ric)
    workload = WORKLOADS["theorem1"](4, quick=True)
    tracer = Tracer()
    tracer.pass_id = 0
    untraced = harness.run_pass(workload.calls())[0]
    traced = harness.run_pass(workload.calls(), tracer)[0]
    assert (cli.main, ripcheck.exact_ric) == originals
    assert traced[0].output == untraced[0].output

    spans = tracer.pass_spans(0)
    assert check_spans(spans) == []
    root = spans[0]
    assert root.name == "bench:pass" and root.parent is None
    assert sum(self_times(spans).values()) == pytest.approx(root.duration, rel=1e-9)
    metrics = pass_metrics(spans)
    assert metrics["ripcheck.exact_ric.calls"] == workload.items
    assert metrics["linalg.eig.calls"] >= metrics["ripcheck.exact_ric.calls"]
    assert metrics["linalg.eig.busy_s"] < metrics["ripcheck.exact_ric.busy_s"]
    assert metrics["experiments.pool.count"] == 0


def test_parallel_pass_records_one_pool_per_cell(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["phase_omp"](6, quick=True)
    tracer = Tracer()
    tracer.pass_id = 0
    harness.run_pass(workload.calls(), tracer)
    spans = tracer.pass_spans(0)
    assert check_spans(spans) == []
    metrics = pass_metrics(spans)
    assert metrics["experiments.pool.count"] == workload.cells
    assert metrics["experiments.pool.spawn_s"] > 0
    assert metrics["ripcheck.exact_ric.calls"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _bench("--workload", "theorem1", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
