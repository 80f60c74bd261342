"""omplab benchmark: four CLI workloads with verified outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload theorem1 --seed 1 --seconds 20 --trace 0

Each pass calls ``omplab.cli.main`` in-process with the argv a user would
type, inside a scratch directory ``.bench_work/`` of the checkout that is
removed at exit. The inputs come from ``--seed``: seed s names input
family s mod 32, and untraced passes cycle through families s .. s+7 (only
family s on ric_stream, whose passes are long). Every output is checked
against the reference recorded at the seed commit and against invariants
that hold on any seed.

With ``--trace 0`` passes run untraced for ``--seconds`` and the end-to-end
metrics are printed. Times are scaled to a reference machine speed by a
fixed probe kernel timed between calls and every second inside serial calls
(see ``harness.SpeedProbe``); the log lines also give the unscaled
throughput. Peak memory comes from one more pass in a fresh interpreter
running the CLI. With ``--trace 1`` untraced and traced passes of one family
alternate and the per-layer metrics, which are not scaled, are printed.
``--quick`` shrinks every workload so a run takes seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed / attempted
is the failed fraction of work units. The lines before it give the
environment and the sample counts and quartiles behind each median.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Pinned before numpy loads: on a 2-core machine, P=2 pool workers times the
# default BLAS thread count would oversubscribe the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare():
    """Pin BLAS threads and put this checkout's sources first on the path.
    Refuses to run, rather than fall back to some other installed omplab."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "omplab" / "__init__.py").is_file():
        sys.exit(f"error: no omplab sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]


def main():
    prepare()
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
