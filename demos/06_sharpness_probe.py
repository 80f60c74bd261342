"""Greedy-failure instances built right at a prescribed RIC.

The sufficient condition RIC < 1/sqrt(K+1) cannot be weakened: above that
threshold there exist designs where the first greedy selection goes
off-support. The probe builds one in closed form (orthonormal support
columns, one off-support column equally correlated with all of them, global
spectrum scaling) and verifies it end to end with an exact RIC computation
and an actual solver run before accepting it. At the threshold itself the
first selection is an exact tie that rounding would decide, so no instance is
claimed there.
"""

import tempfile

import numpy as np

from omplab import (
    load_failure_instance,
    save_failure_instance,
    sharp_ric_bound,
    sharpness_probe,
)

K = 2
sharp = sharp_ric_bound(K)
print(f"sharp bound at K = {K}: {sharp:.6f}")
print(f"t = sharp bound: {sharpness_probe(K, sharp)} (exact tie, not claimed)")
for t in (0.62, 0.7, 0.9):
    fi = sharpness_probe(K, t)
    first = fi.omp_trace.trace[0].selected_index
    print(f"t = {t}: built. verified RIC = {fi.verified_delta:.9f}, "
          f"true support {fi.signal.support.tolist()}, first greedy pick "
          f"{first}, recovered {fi.omp_trace.recovered_support.tolist()}")
    with tempfile.TemporaryDirectory() as d:
        save_failure_instance(d, fi)
        back = load_failure_instance(d)
        print(f"         round-trip re-verification: {back.verified_delta == fi.verified_delta}")
    print("         Gram of the witnessing design (column 0 is off-support):")
    G = fi.matrix.T @ fi.matrix
    for row in np.round(G, 4) + 0.0:  # + 0.0 turns -0.0 into 0.0
        print(f"           {row.tolist()}")
