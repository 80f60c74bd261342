from dataclasses import replace

import numpy as np
import pytest

from omplab import (
    GuaranteeViolation,
    SparseSignal,
    StopRule,
    check_theorem1_conditions,
    exact_ric,
    gaussian_sensing_matrix,
    generate_measurement,
    lemma1_example_instance,
    min_magnitude_bound,
    omp_result_json,
    omp_run,
    random_sparse_signal,
    residual_bound_probe,
    sharp_ric_bound,
    trace_csv_text,
)

from _oracles import best_support_exhaustive, omp_reference, omp_run_numpy_loop


def _conditioned_instance(seed, m=64, n=16, K=2, eps=0.05):
    """Draw until the recovery conditions verify true; returns (A, x, inst)."""
    for attempt in range(200):
        A = gaussian_sensing_matrix(m, n, seed=seed + 1000 * attempt)
        delta = exact_ric(A, K + 1).delta
        if delta >= sharp_ric_bound(K):
            continue
        floor = 1.0 if eps == 0.0 else 1.05 * min_magnitude_bound(delta, K, eps)
        x = random_sparse_signal(n, K, max(floor, 1e-6), 10.0, seed=seed + attempt)
        inst = generate_measurement(A, x, eps, seed=seed + attempt)
        verdict = check_theorem1_conditions(A, x, eps)
        if verdict.overall:
            return A, x, inst
    raise AssertionError("could not draw a condition-holding instance")


def test_identity_single_spike():
    A = np.eye(5)
    y = 3.0 * np.eye(5)[:, 2]
    res = omp_run(A, y, StopRule.residual_at_most(0.0))
    assert np.array_equal(res.recovered_support, [2])
    assert res.iterations == 1
    assert res.stopped_by == "rule_met"
    assert np.array_equal(res.estimate.support, [2])
    assert res.estimate.values[0] == pytest.approx(3.0, abs=0)


def test_lemma1_example_noiseless_recovery():
    A, x, _ = lemma1_example_instance(0.5)
    y = A @ x.to_dense()
    res = omp_run(A, y, StopRule.max_iterations(2), true_support=x.support)
    assert np.array_equal(res.recovered_support, [0, 1])
    assert np.allclose(res.estimate.values, [1.0, 1.0], rtol=1e-8)
    assert all(rec.in_true_support for rec in res.trace)


def test_conditioned_instance_matches_exhaustive_oracle():
    A, x, inst = _conditioned_instance(seed=7)
    res = omp_run(
        A, inst.measurement, StopRule.residual_at_most(0.05), true_support=x.support
    )
    assert np.array_equal(res.recovered_support, x.support)
    assert res.iterations == x.sparsity
    best, _ = best_support_exhaustive(A, inst.measurement, x.sparsity)
    assert np.array_equal(best, x.support)


def test_deep_conditioned_instance_matches_exhaustive_oracle():
    # K = 4 needs a very tall design before the RIC condition can verify
    A, x, inst = _conditioned_instance(seed=97, m=256, n=12, K=4, eps=0.05)
    res = omp_run(
        A, inst.measurement, StopRule.residual_at_most(0.05), true_support=x.support
    )
    assert np.array_equal(res.recovered_support, x.support)
    assert res.iterations == 4
    assert all(rec.in_true_support for rec in res.trace)
    best, _ = best_support_exhaustive(A, inst.measurement, 4)
    assert np.array_equal(best, x.support)


def test_matches_reference_implementation():
    rng = np.random.default_rng(40)
    for trial in range(15):
        A = gaussian_sensing_matrix(20, 30, seed=50 + trial)
        y = rng.standard_normal(20)
        k = int(rng.integers(1, 8))
        res = omp_run(A, y, StopRule.max_iterations(k))
        sel, sol, norms = omp_reference(A, y, max_iter=k)
        assert [r.selected_index for r in res.trace] == sel
        for rec, norm in zip(res.trace, norms[1:]):
            assert rec.residual_norm == pytest.approx(norm, abs=1e-9)
        dense = res.estimate.to_dense()
        ref = np.zeros(30)
        ref[sel] = sol
        assert np.allclose(dense, ref, atol=1e-9)


def test_loop_matches_numpy_loop_bit_for_bit():
    """Trace records, trace CSV and result JSON equal the numpy-norm loop's
    bit for bit, across residual stops, budget exhaustion and rank failures."""
    rng = np.random.default_rng(13)
    causes = set()
    for trial in range(60):
        m = int(rng.integers(3, 40))
        n = int(rng.integers(2, 60))
        A = np.array(gaussian_sensing_matrix(m, n, seed=500 + trial))
        if n >= 3 and trial % 3 == 0:
            A[:, n - 1] = A[:, 0]  # a duplicated column
        K = int(rng.integers(1, min(m, n) + 1))
        x = random_sparse_signal(n, K, 0.5, 4.0, seed=600 + trial)
        y = A @ x.to_dense() + 0.01 * rng.standard_normal(m)
        truth = x.support if trial % 2 else None
        rules = [StopRule.residual_at_most(eps) for eps in (0.0, 0.01, 0.5)]
        for rule in rules + [StopRule.max_iterations(K)]:
            got = omp_run(A, y, rule, true_support=truth)
            want = omp_run_numpy_loop(A, y, rule, true_support=truth)
            assert trace_csv_text(got) == trace_csv_text(want)
            assert omp_result_json(got) == omp_result_json(want)
            # the CSV does not carry the off-support correlations
            assert got.trace == want.trace
            causes.add(got.stopped_by)
    assert causes == {"rule_met", "budget_exhausted", "rank_failure"}


def test_residual_rule_matches_reference():
    for trial in range(10):
        A = gaussian_sensing_matrix(16, 24, seed=80 + trial)
        x = random_sparse_signal(24, 3, 1.0, 5.0, seed=90 + trial)
        inst = generate_measurement(A, x, 0.1, seed=trial)
        res = omp_run(A, inst.measurement, StopRule.residual_at_most(0.1))
        sel, _, norms = omp_reference(A, inst.measurement, eps=0.1)
        assert [r.selected_index for r in res.trace] == sel
        assert res.trace[-1].residual_norm <= 0.1


def test_trace_invariants():
    A = gaussian_sensing_matrix(15, 25, seed=4)
    y = np.asarray(
        gaussian_sensing_matrix(15, 1, seed=5, normalize_columns=False)
    )[:, 0]
    res = omp_run(A, y, StopRule.max_iterations(10))
    picks = [r.selected_index for r in res.trace]
    assert len(set(picks)) == len(picks)
    norms = [r.residual_norm for r in res.trace]
    for hi, lo in zip(norms, norms[1:]):
        assert lo <= hi + 1e-12
    assert all(r.correlation >= 0.0 for r in res.trace)
    assert res.iterations == len(res.trace) == res.recovered_support.size
    assert set(res.estimate.support).issubset(set(res.recovered_support.tolist()))
    # final residual orthogonal to the selected columns
    r_fin = y - A @ res.estimate.to_dense()
    A_S = A[:, res.recovered_support]
    assert np.abs(A_S.T @ r_fin).max() <= 1e-9 * np.linalg.norm(y)


def test_determinism_and_tie_break():
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, -1.0, 0.0])
    A = np.column_stack([a / np.linalg.norm(a), a / np.linalg.norm(a),
                         b / np.linalg.norm(b)])
    y = a.copy()
    res = omp_run(A, y, StopRule.max_iterations(1))
    # columns 0 and 1 tie exactly; smallest index wins
    assert res.trace[0].selected_index == 0
    again = omp_run(A, y, StopRule.max_iterations(1))
    assert np.array_equal(res.recovered_support, again.recovered_support)
    assert res.trace == again.trace


def test_rank_failure_outcome():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    A = np.column_stack([a, a, np.ones(4)])  # duplicate columns
    y = a + 0.5
    res = omp_run(A, y, StopRule.max_iterations(3))
    assert res.stopped_by == "rank_failure"
    assert res.iterations < 3
    picks = [r.selected_index for r in res.trace]
    assert len(set(picks)) == len(picks)


def test_budget_exhaustion():
    A = gaussian_sensing_matrix(4, 6, seed=10)
    y = np.array([1.0, -1.0, 0.5, 2.0])
    res = omp_run(A, y, StopRule.residual_at_most(0.0))
    assert res.stopped_by == "budget_exhausted"
    assert res.iterations == 4


def test_trivial_measurement_stops_before_loop():
    A = gaussian_sensing_matrix(5, 8, seed=11)
    res = omp_run(A, np.zeros(5), StopRule.residual_at_most(0.1))
    assert res.iterations == 0
    assert res.stopped_by == "rule_met"
    assert res.recovered_support.size == 0
    assert res.estimate.sparsity == 0


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule.max_iterations(0)
    with pytest.raises(ValueError):
        StopRule.residual_at_most(-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            StopRule.residual_at_most(bad)
    with pytest.raises(ValueError):
        StopRule(kind="until_bored")
    # the constructor checks what the classmethods check, and refuses a
    # non-integral count instead of truncating it
    y = np.ones(4)
    for rule in (lambda: StopRule("max_iterations", k=0),
                 lambda: StopRule("max_iterations"),
                 lambda: StopRule("max_iterations", k=2.7),
                 lambda: StopRule.max_iterations(2.7),
                 lambda: StopRule("max_iterations", k=float("nan")),
                 lambda: StopRule("max_iterations", k=float("inf")),
                 lambda: StopRule("residual_at_most", epsilon=float("nan")),
                 lambda: StopRule("residual_at_most", epsilon=-1.0)):
        with pytest.raises(ValueError):
            omp_run(np.eye(4), y, rule())
    assert StopRule("max_iterations", k=3.0) == StopRule.max_iterations(3)
    assert type(StopRule.max_iterations(np.int64(3)).k) is int
    A = np.eye(3)
    with pytest.raises(ValueError):
        omp_run(A, np.ones(3), StopRule.max_iterations(4))
    with pytest.raises(ValueError):
        omp_run(A, np.ones(2), StopRule.max_iterations(1))


def test_stop_rule_met():
    rule = StopRule.max_iterations(3)
    assert not rule.met(2, 0.0)
    assert rule.met(3, 1e9)
    rule = StopRule.residual_at_most(0.5)
    assert rule.met(0, 0.5)
    assert not rule.met(100, np.nextafter(0.5, 1.0))


def test_selection_margin_zero_residual():
    A = gaussian_sensing_matrix(6, 9, seed=12)
    res = omp_run(A, np.zeros(6), StopRule.max_iterations(1), true_support=[1, 3])
    [rec] = res.trace
    assert rec.correlation == 0.0 and rec.off_support_correlation == 0.0


def test_selection_margin_lemma1():
    A, x, _ = lemma1_example_instance(0.5)
    y = A @ x.to_dense()
    res = omp_run(A, y, StopRule.max_iterations(2), true_support=x.support)
    first = res.trace[0]
    assert first.correlation == pytest.approx(1.5, abs=1e-12)
    assert first.off_support_correlation == 0.0


def test_selection_margin_positive_along_conditioned_run():
    A, x, inst = _conditioned_instance(seed=13)
    res = omp_run(A, inst.measurement, StopRule.max_iterations(x.sparsity),
                  true_support=x.support)
    for rec in res.trace:
        assert rec.correlation > rec.off_support_correlation
    assert np.array_equal(res.recovered_support, x.support)


def test_selection_margin_needs_a_true_support():
    A, x, _ = lemma1_example_instance(0.5)
    res = omp_run(A, A @ x.to_dense(), StopRule.max_iterations(2))
    assert [rec.off_support_correlation for rec in res.trace] == [None, None]


def test_selection_margin_ignores_indices_outside_the_columns():
    """-1 does not wrap to the last column and 7 does not raise: column 3,
    the first pick, stays off the support, so its correlation is the
    off-support best."""
    y = np.array([1.0, 0.0, 0.0, 2.0])
    res = omp_run(np.eye(4), y, StopRule.max_iterations(2), true_support=[-1, 0, 7])
    first, second = res.trace
    assert (first.selected_index, first.in_true_support) == (3, False)
    assert first.off_support_correlation == first.correlation == 2.0
    assert (second.selected_index, second.in_true_support) == (0, True)
    assert second.off_support_correlation == 0.0


def test_residual_probe_identity_instance():
    x = SparseSignal(dimension=5, support=[2], values=[3.0])
    inst = generate_measurement(np.eye(5), x)
    res = omp_run(
        np.eye(5), inst.measurement, StopRule.max_iterations(1),
        true_support=x.support,
    )
    records = residual_bound_probe(inst, res, delta_k1=0.0)
    assert len(records) == 1
    assert records[0].kind == "final"
    assert records[0].residual_norm <= 1e-9


def test_residual_probe_lemma1():
    A, x, _ = lemma1_example_instance(0.5)
    inst = generate_measurement(A, x)
    res = omp_run(
        A, inst.measurement, StopRule.max_iterations(2), true_support=x.support
    )
    records = residual_bound_probe(inst, res, delta_k1=0.5)
    assert records[0].kind == "lower"
    assert records[0].bound == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert records[0].residual_norm >= records[0].bound - 1e-9
    assert records[1].kind == "final"
    assert records[1].residual_norm <= 1e-9


def test_residual_probe_batch_conditioned():
    # 200 condition-verified noisy instances; every bound must hold
    for seed in range(200):
        A, x, inst = _conditioned_instance(seed=7000 + 7 * seed)
        delta = exact_ric(A, x.sparsity + 1).delta
        res = omp_run(
            A, inst.measurement, StopRule.residual_at_most(0.05),
            true_support=x.support,
        )
        records = residual_bound_probe(inst, res, delta_k1=delta)
        assert all(r.holds for r in records)


def test_residual_probe_reports_a_final_residual_above_eps():
    A, x, inst = _conditioned_instance(seed=7000)
    delta = exact_ric(A, x.sparsity + 1).delta
    res = omp_run(A, inst.measurement, StopRule.max_iterations(2), true_support=x.support)
    assert all(r.holds for r in residual_bound_probe(inst, res, delta_k1=delta))
    eps = float(np.linalg.norm(inst.noise))
    final = replace(res.trace[-1], residual_norm=eps + 1.0)
    broken = replace(res, trace=(*res.trace[:-1], final))
    with pytest.raises(GuaranteeViolation, match=r"violated at iterations \[2\]"):
        residual_bound_probe(inst, broken, delta_k1=delta)


def test_residual_probe_validation():
    A, x, _ = lemma1_example_instance(0.3)
    inst = generate_measurement(A, x)
    anonymous = omp_run(A, inst.measurement, StopRule.max_iterations(2))
    with pytest.raises(ValueError):
        residual_bound_probe(inst, anonymous, delta_k1=0.3)
    short = omp_run(
        A, inst.measurement, StopRule.max_iterations(1), true_support=x.support
    )
    with pytest.raises(ValueError):
        residual_bound_probe(inst, short, delta_k1=0.3)


def test_trace_csv_format():
    A, x, _ = lemma1_example_instance(0.4)
    y = A @ x.to_dense()
    res = omp_run(A, y, StopRule.max_iterations(2), true_support=x.support)
    text = trace_csv_text(res)
    lines = text.strip().split("\n")
    assert lines[0] == "k,selected_index,correlation,residual_norm,in_true_support"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert lines[1].endswith("true")
    anonymous = omp_run(A, y, StopRule.max_iterations(2))
    assert trace_csv_text(anonymous).strip().split("\n")[1].endswith(",")
