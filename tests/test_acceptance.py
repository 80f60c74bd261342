"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (run with ``pytest -v -s`` to see them) and
asserts the criterion itself, including its runtime budget.
"""

import hashlib
import math
import time
from collections import Counter

import numpy as np
import pytest

from omplab import (
    ExperimentConfig,
    StopRule,
    chang_wu_ric_bound,
    comparison_report,
    exact_ric,
    gaussian_sensing_matrix,
    lemma1_example_instance,
    lemma_sweep,
    load_failure_instance,
    omp_run,
    random_sparse_signal,
    save_failure_instance,
    sharp_ric_bound,
    sharpness_probe,
    theorem1_validation,
    verify_lemma1,
    write_rows_csv,
)
from omplab.cli import main as cli_main


def test_criterion_1_worked_example_golden():
    start = time.perf_counter()
    for delta in (0.1, 0.25, 0.5):
        A, x, S = lemma1_example_instance(delta)
        report = exact_ric(A, 3)
        assert abs(report.delta - delta) <= 1e-10
        chk = verify_lemma1(A, x, S)
        assert abs(chk.lhs - (1.0 - delta)) <= 1e-12
        assert abs(chk.rhs - (1.0 - math.sqrt(2.0) * delta)) <= 1e-12
        assert chk.holds
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: worked-example golden test ({elapsed:.3f}s)")


def test_criterion_2_theorem1_zero_failures():
    start = time.perf_counter()
    config = ExperimentConfig(
        m_values=(12, 16, 20),
        n_values=(18, 24),
        k_values=(1, 2, 3),
        epsilon_values=(0.0, 0.01, 0.05),
        trials=38,
        min_mag_policy="theorem_bound",
        margin_factor=1.01,
        master_seed=20240817,
        parallelism=1,
    )
    total = config.trials * len(config.cells())
    assert total >= 2000
    rows = theorem1_validation(config)  # raises GuaranteeViolation on failure
    held = sum(r.conditions_held_count for r in rows)
    for row in rows:
        if row.conditions_held_count:
            assert row.conditional_success_rate == 1.0
        else:
            assert row.conditional_success_rate is None
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\n[PASS] criterion 2: {total} trials, {held} condition-holding, "
        f"0 failures ({elapsed:.1f}s single-threaded)"
    )


def test_criterion_10_noisy_theorem1_k2_to_k4(tmp_path):
    # criterion 2's noisy condition-holding trials all have K = 1; taller
    # Gaussian designs hold the noisy conditions at K = 2, 3 and 4 too
    start = time.perf_counter()
    blobs = []
    for parallelism in (1, 2):
        config = ExperimentConfig(
            m_values=(64, 128, 256),
            n_values=(12, 14, 16),
            k_values=(2, 3, 4),
            epsilon_values=(0.0, 0.01, 0.05),
            trials=70,
            min_mag_policy="theorem_bound",
            margin_factor=1.01,
            master_seed=20240817,
            parallelism=parallelism,
        )
        rows = theorem1_validation(config)  # raises GuaranteeViolation on failure
        out = tmp_path / f"criterion10-{parallelism}.csv"
        write_rows_csv(out, rows)
        blobs.append(out.read_bytes())
    held = Counter()  # (K, eps): condition-holding trials
    for row in rows:
        held[row.k, row.epsilon] += row.conditions_held_count
        if row.conditions_held_count:
            assert row.conditional_success_rate == 1.0
        else:
            assert row.conditional_success_rate is None
    noisy = {k: held[k, 0.01] + held[k, 0.05] for k in config.k_values}
    assert min(noisy.values()) >= 500, noisy
    assert hashlib.sha256(blobs[0]).hexdigest() == (
        "45dbac72062b3f89c781e6ac7729659bc718ff0f58fc6d9b8fa5f02bf5938878")
    assert blobs[1] == blobs[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    counts = "; ".join(f"K={k}: " + ", ".join(f"eps={e} {held[k, e]}" for e in config.epsilon_values)
                       for k in config.k_values)
    print(
        f"\n[PASS] criterion 10: {config.trials * len(config.cells())} trials, noisy "
        f"condition-holding per K {noisy}, 0 failures ({counts}; {elapsed:.1f}s for "
        f"P=1 and P=2, same bytes)"
    )


def test_criterion_3_corollary_noiseless_suite():
    start = time.perf_counter()
    shapes = ((20, 18, 1), (64, 16, 2), (128, 14, 3))
    recovered = 0
    attempts = 0
    while recovered < 500:
        m, n, K = shapes[recovered % len(shapes)]
        attempts += 1
        A = gaussian_sensing_matrix(m, n, seed=10_000 + attempts)
        if exact_ric(A, K + 1).delta >= sharp_ric_bound(K):
            continue
        x = random_sparse_signal(n, K, 1.0, 10.0, seed=20_000 + attempts)
        result = omp_run(
            A, A @ x.to_dense(), StopRule.max_iterations(K), true_support=x.support
        )
        assert np.array_equal(result.recovered_support, x.support), (m, n, K, attempts)
        assert np.array_equal(result.estimate.support, x.support)
        rel = np.abs(result.estimate.values - x.values) / np.abs(x.values)
        assert rel.max() <= 1e-8
        recovered += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\n[PASS] criterion 3: 500 noiseless condition-holding trials "
        f"({attempts} drawn), 0 failures ({elapsed:.1f}s)"
    )


def test_criterion_4_ric_oracle_equivalence():
    from _oracles import ric_double_loop

    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        A = gaussian_sensing_matrix(8, 12, seed=30_000 + trial)
        for K in (1, 2, 3):
            mine = exact_ric(A, K).delta
            oracle = ric_double_loop(A, K)
            worst = max(worst, abs(mine - oracle))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 4: 50 matrices x K in (1,2,3), max deviation "
        f"{worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_5_lemma_property_sweep():
    start = time.perf_counter()
    report = lemma_sweep(77, 500)  # raises GuaranteeViolation on violation
    assert report.violations == 0
    assert report.instances == 500
    assert report.lemma1_checks > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(
        f"\n[PASS] criterion 5: 500-instance lemma sweep, 0 violations, "
        f"min margins ({report.min_margin_lemma1:.3e}, "
        f"{report.min_margin_lemma2:.3e}, {report.min_margin_lemma3:.3e}, "
        f"{report.min_margin_lemma4:.3e}) ({elapsed:.1f}s)"
    )


def test_criterion_6_comparison_inequalities():
    start = time.perf_counter()
    for K in range(1, 1001):
        assert sharp_ric_bound(K) - chang_wu_ric_bound(K) > 1e-12
    for K in range(1, 21):
        bound = sharp_ric_bound(K)
        grid = np.linspace(0.0, bound, 102)[1:-1]
        assert grid.size == 100
        for delta in grid:
            rep = comparison_report(K, float(delta), 1.0)
            assert rep.min_mag_strictly_weaker, (K, delta)
        rep0 = comparison_report(K, 0.0, 1.0)
        assert rep0.min_mag_weaker and not rep0.min_mag_strictly_weaker
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 6: comparison inequalities ({elapsed:.3f}s)")


def test_criterion_7_bound_ordering():
    for K in range(1, 21):
        bound = sharp_ric_bound(K)
        for delta in np.linspace(0.0, bound, 101)[:-1]:
            lhs = 2.0 / (1.0 - math.sqrt(K + 1.0) * delta)
            rhs = 2.0 / math.sqrt(1.0 - delta)
            assert lhs >= rhs - 1e-12
    print("\n[PASS] criterion 7: magnitude-bound ordering on the delta grid")


def test_criterion_8_sharpness_probe(tmp_path):
    start = time.perf_counter()
    found_any = False
    outcomes = []
    for i, t in enumerate((1.0 / math.sqrt(3.0), 0.7, 0.9)):
        fi = sharpness_probe(2, t)
        if fi is None:
            outcomes.append(f"t={t:.6f}: not found")
            continue
        found_any = True
        assert abs(fi.verified_delta - t) <= 1e-6
        assert not np.array_equal(
            fi.omp_trace.recovered_support, fi.signal.support
        )
        d = tmp_path / f"failure_{i}"
        save_failure_instance(d, fi)
        back = load_failure_instance(d)
        assert back.verified_delta == fi.verified_delta
        assert not np.array_equal(
            back.omp_trace.recovered_support, back.signal.support
        )
        outcomes.append(f"t={t:.6f}: found delta={fi.verified_delta:.9f}")
    assert found_any
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 8: {'; '.join(outcomes)} ({elapsed:.1f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "m = 10, 12\nn = 12\nk = 1, 2\nepsilon = 0.0, 0.05\n"
        "trials = 6\nmaster_seed = 99\n"
    )
    for command in ("validate-theorem1", "phase"):
        blobs = []
        for par in (1, 4, 8):
            out = tmp_path / f"{command}-{par}.csv"
            code = cli_main(
                [
                    command,
                    "--config", str(cfg),
                    "--out", str(out),
                    "--parallelism", str(par),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], command
    print("\n[PASS] criterion 9: CLI outputs byte-identical for parallelism 1/4/8")
