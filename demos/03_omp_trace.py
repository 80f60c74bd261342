"""A noisy recovery run under the microscope.

Builds a measurement y = A x + v with ||v|| = eps on a design tall enough
for the recovery conditions to verify, runs the solver with the residual
stopping rule, and prints the full iteration trace: selected column, winning
correlation, residual norm. The run also records, per iteration, the best
off-support correlation; beside the winning one it gives the in-support vs
off-support selection margin that the guarantee's proof bounds. Last, the
proof's residual bounds are checked along the trace.
"""

from omplab import (
    StopRule,
    check_theorem1_conditions,
    exact_ric,
    gaussian_sensing_matrix,
    generate_measurement,
    min_magnitude_bound,
    random_sparse_signal,
    residual_bound_probe,
    sharp_ric_bound,
    omp_run,
    trace_csv_text,
)

m, n, K, eps = 64, 16, 2, 0.05
seed = 0
while True:
    A = gaussian_sensing_matrix(m, n, seed=seed)
    delta = exact_ric(A, K + 1).delta
    if delta < sharp_ric_bound(K):
        break
    seed += 1

floor = 1.05 * min_magnitude_bound(delta, K, eps)
x = random_sparse_signal(n, K, max(floor, 0.5), 8.0, seed=seed + 1)
inst = generate_measurement(A, x, eps, seed=seed + 2)
verdict = check_theorem1_conditions(A, x, eps)
print(f"design {m} x {n}, K = {K}, eps = {eps}, exact RIC = {delta:.4f} "
      f"(bound {sharp_ric_bound(K):.4f})")
print(f"conditions hold: {verdict.overall} "
      f"(magnitude floor {verdict.min_mag_bound:.4f}, "
      f"min |x_i| = {x.min_magnitude():.4f})")
print(f"true support: {x.support.tolist()}")
print()

result = omp_run(A, inst.measurement, StopRule.residual_at_most(eps),
                 true_support=x.support)
print(trace_csv_text(result))

print("selection margins per iteration (in-support max vs off-support max):")
for rec in result.trace:
    # every pick is in the support, so the winner is the in-support max
    lhs, rhs = rec.correlation, rec.off_support_correlation
    print(f"  k={rec.iteration}: lhs={lhs:.6f}  rhs={rhs:.6f}  gap={lhs - rhs:.6f}")

print()
print("residual bounds along the trace:")
for rb in residual_bound_probe(inst, result, delta):
    print(f"  k={rb.iteration} ({rb.kind}): ||r|| = {rb.residual_norm:.6f}, "
          f"bound = {rb.bound:.6f}, margin = {rb.margin:.6f}")
