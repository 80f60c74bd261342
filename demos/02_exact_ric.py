"""Exact restricted-isometry constants of Gaussian designs, exhaustively.

Enumerates every K-column subset of a normalized Gaussian matrix, reports the
exact RIC with its witnessing subset and how many of the subsets had to be
eigensolved (the rest were ruled out by a norm bound), and shows two
structural facts the test suite relies on: the constant grows with the order, and it concentrates far
above the sharp recovery threshold at desk scale (which is why condition
checking, not wishful thinking, gates the guarantee experiments).
"""

import numpy as np

from omplab import exact_ric, gaussian_sensing_matrix, sharp_ric_bound

m, n = 24, 16
A = gaussian_sensing_matrix(m, n, seed=7)
print(f"normalized Gaussian design, {m} x {n}")
print(f"{'order':>5} {'exact RIC':>12} {'witness':>18} {'subsets':>8} "
      f"{'solved':>8} {'sharp bound':>12}")
for order in range(1, 5):
    rep = exact_ric(A, order)
    bound = sharp_ric_bound(order - 1) if order >= 2 else float("nan")
    witness = ",".join(str(i) for i in rep.witness_subset)
    print(f"{order:>5} {rep.delta:>12.6f} {witness:>18} "
          f"{rep.subsets_examined:>8} {rep.subsets_eigensolved:>8} "
          f"{bound:>12.6f}")

print()
print("RIC distribution at order 3 over 30 seeds:")
deltas = [exact_ric(gaussian_sensing_matrix(m, n, seed=s), 3).delta for s in range(30)]
print(f"  min / median / max = {min(deltas):.4f} / {np.median(deltas):.4f} / "
      f"{max(deltas):.4f}")
print(f"  fraction below the K=2 sharp bound {sharp_ric_bound(2):.4f}: "
      f"{np.mean([d < sharp_ric_bound(2) for d in deltas]):.2f}")
