"""Print the sha256 of every output the benchmark's input families produce.

For each of the 32 input families of ``bench/workloads.py``, the theorem1 and
phase_omp calls run at parallelism 1 and 2, and the lemma_sweep call and the
two ric_stream calls once, each in-process through ``omplab.cli.main`` with
the argv the benchmark uses. One line per output (224 in all):

    workload family parallelism call sha256

``call`` is the call's index within its workload's pass. Two checkouts that
print the same lines produced the same bytes. Everything is written in a
temporary directory; nothing is written into the checkout. BLAS threads are
pinned to 1 before numpy loads, as the benchmark pins them. The exit status
is 1 if any call failed (its error goes to stderr), else 0.

Run from the root of a checkout: ``python3 tools/digests.py > digests.txt``.
"""

import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: The parallelisms each workload's calls run at (lemmas and ric run serially).
RUNS = (("theorem1", (1, 2)), ("phase_omp", (1, 2)), ("lemma_sweep", (1,)),
        ("ric_stream", (1,)))


def main():
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # no .pyc files, pool workers included
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import run

    run.prepare()  # pins BLAS threads and puts this checkout's sources first
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for family in range(workloads.FAMILIES):
            for name, parallelisms in RUNS:
                workload = workloads.WORKLOADS[name](family)
                for p in parallelisms:
                    for index, call in enumerate(workload.calls(p)):
                        result = workloads.run_call(call)
                        if result.rc or result.error:
                            failed += 1
                            print(f"{name} {family} {p} {index}: "
                                  f"{result.error or f'exit {result.rc}'}", file=sys.stderr)
                        print(f"{name} {family} {p} {index} {workloads.sha256(result.output)}",
                              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
