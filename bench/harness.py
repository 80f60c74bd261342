"""Measurement, output checking and reporting behind ``run.py``.

Import this only after ``run.py`` has pinned the BLAS thread count and put
the checkout's ``src`` on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import scipy

import omplab
from tracing import WORKER_LAYERS, Tracer, check_spans, combine, pass_metrics
from workloads import WORKLOADS, run_call, run_call_in_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up samples per run, spread over the measuring window.
SETUP_REPEATS = 15

#: Seconds between speed samples inside a serial call.
PROBE_INTERVAL_S = 1.0


def declared_metrics():
    """Names and units of the end-to-end and per-layer metrics, as declared
    in the checkout's BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env():
    """Environment of the interpreters the benchmark starts: this checkout's
    sources and the pinned BLAS threads."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup():
    """Wall time of a fresh interpreter importing omplab: the cost every CLI
    call pays before doing any work."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import omplab"], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    quotas = [p for p in (Path("/sys/fs/cgroup/cpu.max"),
                          Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")) if p.is_file()]
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True)
        sha = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quotas[0].read_text().strip() if quotas else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
    }


class Ledger:
    """Checks every pass, counts attempted and failed work units, and keeps
    each family's first outputs, which every later pass of that family must
    repeat byte for byte (across tracing and parallelism too)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._expected = {}

    def record(self, label, workload, calls, results):
        """Check one pass; return the number of verified work units."""
        expected = self._expected.setdefault(workload.family, [r.output for r in results])
        verified = 0
        for i, (call, result) in enumerate(zip(calls, results)):
            problems = workload.check(i, result)
            if result.output != expected[i]:
                problems.append("output differs from the first pass")
            self.attempted += call.items
            if problems:
                self.failed += call.items
                self.problems += [f"{label} pass, {' '.join(call.argv)}: {p}" for p in problems]
            else:
                verified += call.items
        return verified


class SpeedProbe:
    """Follows the machine's speed by timing a fixed kernel between calls
    and, given an interval, inside them too.

    On a shared 2-core Xeon virtual machine, speed alternates between phases
    that last tens of seconds and differ by up to 2x, while CPU time tracks
    wall time: the slowdown is contention for the core and its caches, not
    waiting. The kernel, an elementwise chain on a stack of small matrices
    (like the batched eigen kernel) and a loop of small numpy calls (like
    the solver and the lemma checks), slows down with the program and is
    untouched by any change to it.

    Samples between calls alone miss the phases that begin and end inside a
    long call: on ric_stream, whose calls take about 5 s, ten runs spread
    0.117 (quartile distance over median) with them, and three sets of ten
    spread 0.054 to 0.074 with samples every second inside the calls too.
    """

    #: the kernel's time at the reference machine speed
    REFERENCE_S = 0.04

    def __init__(self, interval=None):
        self.interval = interval
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((20000, 4, 4))
        self._y = rng.standard_normal((20000, 4, 4))
        self._z = np.empty_like(self._x)
        self._t = np.empty_like(self._x)
        self.times = [self._time()]
        self._last = 0  # index of the sample taken just before the current call

    # In place throughout: how fast fresh arrays come from the allocator
    # depends on what the program allocated before, so it would let the
    # program move the probe.
    def _time(self):
        t0 = time.perf_counter()
        z, t = self._z, self._t
        np.copyto(z, self._x)
        for _ in range(10):
            np.multiply(z, 0.5, out=z)
            np.multiply(self._y, 0.25, out=t)
            np.add(z, t, out=z)
            np.subtract(z, z.mean(axis=0), out=z)
        v = np.ones(8)
        for _ in range(3000):
            v = np.abs(v - 0.5 * v.mean())
        return time.perf_counter() - t0

    def _sample(self, *_):
        self.times.append(self._time())

    @contextmanager
    def sampling(self):
        """Time the kernel every ``interval`` seconds while the block runs,
        from a timer signal, whose handler runs between bytecodes."""
        if self.interval is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds):
        """Wall time just measured, in seconds at the reference speed: less
        the kernel's time inside it, scaled by the kernel's reference time
        over its mean time before, inside and after."""
        inside = self.times[self._last + 1:]
        self._sample()
        samples = self.times[self._last:]
        self._last = len(self.times) - 1
        return (seconds - sum(inside)) * self.REFERENCE_S * len(samples) / sum(samples)


def run_pass(calls, tracer=None, probe=None):
    """Run one pass; return its results, its wall time and that time at the
    reference speed when a probe is given (else the wall time again). With a
    tracer, the pass runs under a root span of the tracer's pass id."""
    if tracer is not None:
        tracer.install()
        root = tracer.begin("bench:pass", "bench")
    try:
        results, wall, scaled = [], 0.0, 0.0
        for call in calls:
            t0 = time.perf_counter()
            with probe.sampling() if probe else nullcontext():
                results.append(run_call(call))
            elapsed = time.perf_counter() - t0
            wall += elapsed
            scaled += probe.scale(elapsed) if probe else elapsed
        if tracer is not None:
            tracer.end(root)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, wall, scaled


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(cycle, ledger, seconds, setup_repeats):
    """Untraced passes for ``seconds``, with set-up samples between them.

    Consecutive passes cycle through the input families in ``cycle``, so
    the work a run measures hardly depends on its seed. Every call and
    set-up sample is timed between two runs of a ``SpeedProbe``, serial
    calls with more runs inside them, and scaled to the reference speed. Throughput is verified work units over the
    summed scaled time of the timed passes; a mean over the window follows
    the mix of machine phases, where a median of passes jumps between them.
    Set-up samples are spread over the window for the same reason.

    Peak memory is that of a fresh interpreter running the first family's
    calls through the CLI, as a user would, with its pool workers: the
    benchmark's own state (probe arrays, references, other families'
    inputs) stays out of it. Its outputs are checked like any other pass.
    """
    first = cycle[0]
    if first.warmup:
        calls = first.calls()
        ledger.record("warm-up", first, calls, run_pass(calls)[0])
    # At parallelism 2 the kernel would compete with the pool workers for the
    # two cores and so measure the program: sample between those calls only.
    probe = SpeedProbe(PROBE_INTERVAL_S if first.parallelism == 1 else None)
    verified, walls, scaled, setups = 0, [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() < start + seconds:
        workload = cycle[len(walls) % len(cycle)]
        calls = workload.calls()
        results, wall, spent = run_pass(calls, probe=probe)
        verified += ledger.record("timed", workload, calls, results)
        walls.append(wall)
        scaled.append(spent)
        if len(setups) < setup_repeats * min(1.0, (time.perf_counter() - start) / seconds):
            setups.append(probe.scale(time_setup()))
    while len(setups) < setup_repeats:
        setups.append(probe.scale(time_setup()))
    if first.parallelism > 1:
        serial = first.calls(1)
        ledger.record("serial cross-check", first, serial, run_pass(serial)[0])
    peak_kib = 0
    calls, results = first.calls(), []
    for call in calls:
        result, kib = run_call_in_child(call, child_env())
        results.append(result)
        peak_kib = max(peak_kib, kib)
    ledger.record("separate process", first, calls, results)
    q1, q3 = _quartiles(probe.times)
    print(f"items_per_s ({first.item}s/s at reference speed): {verified / sum(scaled):.6g} "
          f"over {len(walls)} timed passes; {verified / sum(walls):.6g} per wall second "
          f"({sum(walls):.3f} s); probe median {statistics.median(probe.times):.6g} s "
          f"of {len(probe.times)}, quartiles {q1:.6g} .. {q3:.6g}")
    q1, q3 = _quartiles(setups)
    print(f"setup_s at reference speed: median {statistics.median(setups):.6g} of "
          f"{len(setups)}, quartiles {q1:.6g} .. {q3:.6g}")
    return {"items_per_s": verified / sum(scaled), "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kib / 1024.0}


def measure_traced(workload, ledger, seconds, counts):
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics.

    Pool workers' spans are invisible from the parent, so a workload that
    runs in parallel also gets a traced serial pass of the same inputs, and
    the worker-side layers are read from that one.
    """
    calls = workload.calls()
    serial = workload.calls(1) if workload.parallelism > 1 else None
    if workload.warmup:
        ledger.record("warm-up", workload, calls, run_pass(calls)[0])
    tracer = Tracer()
    untraced, traced, main_ids, serial_ids = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        results, wall, _ = run_pass(calls)
        ledger.record("untraced", workload, calls, results)
        untraced.append(wall)
        tracer.pass_id = len(main_ids) + len(serial_ids)
        results, wall, _ = run_pass(calls, tracer)
        ledger.record("traced", workload, calls, results)
        main_ids.append(tracer.pass_id)
        traced.append(wall)
        if serial:
            tracer.pass_id += 1
            ledger.record("traced serial", workload, serial, run_pass(serial, tracer)[0])
            serial_ids.append(tracer.pass_id)

    for pid in main_ids + serial_ids:
        spans = tracer.pass_spans(pid)
        roots = [s for s in spans if s.parent is None]
        if len(roots) != 1 or roots[0].name != "bench:pass":
            ledger.problems.append(f"traced pass {pid} has roots {[s.name for s in roots]}")
        ledger.problems += [f"traced pass {pid}: {p}" for p in check_spans(spans)]
    metrics, problems = combine([pass_metrics(tracer.pass_spans(p)) for p in main_ids], counts)
    ledger.problems += problems
    if serial_ids:
        worker, problems = combine([pass_metrics(tracer.pass_spans(p)) for p in serial_ids],
                                   counts)
        ledger.problems += problems
        metrics.update({k: v for k, v in worker.items() if k.startswith(WORKER_LAYERS)})
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    print(f"traced passes: {len(main_ids)} (+{len(serial_ids)} serial), untraced: "
          f"{len(untraced)}; medians {statistics.median(traced):.6g} s traced, "
          f"{statistics.median(untraced):.6g} s untraced")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for smoke tests")
    args = parser.parse_args(argv)

    if Path(omplab.__file__).resolve().parent != SRC / "omplab":
        sys.exit(f"error: imported omplab from {omplab.__file__}, not {SRC}")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    end_to_end, per_layer = declared_metrics()
    print(json.dumps({"env": environment()}))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        ledger = Ledger()
        # Traced passes repeat one family, so their exact counts must agree.
        kind = WORKLOADS[args.workload]
        cycle = [kind(args.seed + i, quick=args.quick)
                 for i in range(1 if args.trace else kind.cycle)]
        workload = cycle[0]
        if args.trace:
            units = per_layer
            counts = {name for name, unit in units.items() if unit == "count"}
            metrics = measure_traced(workload, ledger, args.seconds, counts)
        else:
            units = end_to_end
            metrics = measure(cycle, ledger, args.seconds, 1 if args.quick else SETUP_REPEATS)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for problem in ledger.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{workload.name} from family {workload.family}: failed_frac "
        f"{ledger.failed / ledger.attempted} ({ledger.failed} of {ledger.attempted} "
        f"{workload.item}s)")
    print(json.dumps({
        "correct": not ledger.problems and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0

