"""Print every field of the exact-RIC reports on a fixed set of matrices,
then the certified fields of every theorem1 benchmark trial.

One line per ``RicReport``, each float in hex (``float.hex``), so two
checkouts that print the same lines computed the same bits:

    label order delta witness lambda_min lambda_max examined eigensolved

The set covers every path of the exact-RIC search:

* ``exact_ric`` on the 64 ric_stream matrices of ``bench/workloads.py``
  (20 x 32 and 128 x 32 per input family, order 5): streamed enumerations;
* ``exact_ric`` on ``gaussian_sensing_matrix`` draws, 20 x 40 at order 5
  and 24 x 34 and 200 x 34 at order 6 (seeds 0-2): streamed, with more
  prefixes and a tall, well-conditioned design;
* ``_gram_rics`` on one stack of the three 20 x 40 Grams at order 5, which
  streams each Gram and reads the witnesses' extremes in one round;
* ``_gram_rics`` on the first chunk of every ``lemma_sweep`` shape (seeds 0
  and 77, 150 instances), at every order 1..K+1: whole enumerations of at
  most 64 subsets and cached, bounded ones.

Then one line per trial record of the theorem1 workload's config, for each
of the 32 input families of ``bench/workloads.py`` (written in a temporary
directory), run serially through ``experiments._run_cells``:

    label delta floor witness settled

with the delta (``None`` where the floor is +inf) and the floor in hex, the
witness subset that decided the trial's verdict, and whether the witness
pass settled it.

BLAS threads are pinned to 1 before numpy loads, as the benchmark pins
them. Run from the root of a checkout:
``python3 tools/ricdigest.py > ricdigest.txt``.
"""

import math
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def line(label, report):
    return " ".join([label, str(report.order), report.delta.hex(),
                     ",".join(str(int(i)) for i in report.witness_subset),
                     report.lambda_min.hex(), report.lambda_max.hex(),
                     str(report.subsets_examined), str(report.subsets_eigensolved)])


def record_line(label, record):
    delta = "None" if record.delta is None else record.delta.hex()
    return " ".join([label, delta, record.floor.hex(),
                     ",".join(str(i) for i in record.witness), str(record.settled)])


def ric_stream_matrices(family):
    """The two matrices of ric_stream family ``family`` (bench/workloads.py)."""
    import numpy as np

    rng = np.random.default_rng([0x51C5, family])
    for m in (20, 128):
        A = rng.standard_normal((m, 32)) / math.sqrt(m)
        A /= np.linalg.norm(A, axis=0)
        yield m, A


def main():
    sys.path.insert(0, str(BENCH))
    import run

    run.prepare()  # pins BLAS threads and puts this checkout's sources first
    import numpy as np

    from omplab import experiments, ripcheck
    from omplab.sensing import gaussian_sensing_matrix

    for family in range(32):
        for m, A in ric_stream_matrices(family):
            print(line(f"ric_stream/{family}/{m}x32", ripcheck.exact_ric(A, 5)), flush=True)
    for m, n, K in ((20, 40, 5), (24, 34, 6), (200, 34, 6)):
        for seed in range(3):
            report = ripcheck.exact_ric(gaussian_sensing_matrix(m, n, seed), K)
            print(line(f"gaussian/{m}x{n}/seed{seed}", report), flush=True)

    def grams(matrices):  # stacked in Fortran order, as the harnesses stack their draws
        return ripcheck._grams(np.stack([A.T for A in matrices]).swapaxes(1, 2))

    G = grams(gaussian_sensing_matrix(20, 40, seed) for seed in range(3))
    for t, report in enumerate(ripcheck._gram_rics(G, 5)):
        print(line(f"stack/20x40/{t}", report), flush=True)
    shapes = experiments._SWEEP_SHAPES
    for seed in (0, 77):
        for s, (_, m, n, K) in enumerate(shapes):
            cap = max(1, experiments._UNIT_ENTRIES // math.comb(n, K + 1))
            chunk = range(s, 150, len(shapes))[:cap]
            G = grams(experiments._sweep_instance(seed, i)[0] for i in chunk)
            for order in range(1, K + 2):
                for i, report in zip(chunk, ripcheck._gram_rics(G, order)):
                    print(line(f"lemma_sweep/{seed}/{i}", report))
    import workloads

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for family in range(workloads.FAMILIES):
                config = experiments.read_config(workloads.Theorem1(family).path("theorem1.cfg"))
                for (m, n, k, eps), _, outcomes in experiments._run_cells(config, "theorem1"):
                    for j, record in enumerate(outcomes):
                        label = f"theorem1/{family}/m{m}_n{n}_K{k}_eps{eps}/{j}"
                        print(record_line(label, record), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
