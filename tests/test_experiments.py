import hashlib
import itertools
import json
import math
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from omplab import experiments, ripcheck, sensing
from omplab import (
    DEFAULT_SUBSET_BUDGET,
    CapacityError,
    ExperimentConfig,
    GuaranteeViolation,
    SparseSignal,
    exact_ric,
    gaussian_sensing_matrix,
    generate_measurement,
    lemma_sweep,
    load_failure_instance,
    parse_config,
    phase_table,
    rows_csv_text,
    save_failure_instance,
    sharp_ric_bound,
    sharpness_probe,
    splitmix64,
    theorem1_validation,
    verify_lemma1,
)
from omplab.experiments import EXPERIMENT_CSV_HEADER
from omplab.linalg import projection_residual
from omplab.omp import STOP_RESIDUAL
from omplab.sensing import MASK64, load_problem_instance, save_problem_instance

from _oracles import gaussian_matrix_one_draw, run_unit_one_at_a_time


def _small_config(**overrides):
    base = dict(
        m_values=(12,),
        n_values=(14,),
        k_values=(1,),
        epsilon_values=(0.0, 0.05),
        trials=6,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parse_config():
    text = """
    # comment
    m = 12, 16
    n = 18
    k = 1, 2
    epsilon = 0.0, 0.05
    trials = 10
    master_seed = 7
    parallelism = 2
    ensemble = gaussian_raw
    min_mag_policy = fixed
    min_mag_fixed = 2.0
    """
    cfg = parse_config(text)
    assert cfg.m_values == (12, 16)
    assert cfg.n_values == (18,)
    assert cfg.k_values == (1, 2)
    assert cfg.epsilon_values == (0.0, 0.05)
    assert cfg.trials == 10
    assert cfg.ensemble == "gaussian_raw"
    assert cfg.min_mag_policy == "fixed"
    assert cfg.min_mag_fixed == 2.0
    assert len(cfg.cells()) == 8


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("m = 12\nn = 14\nk = 1\nepsilon = 0.0\n")  # missing trials
    with pytest.raises(ValueError):
        parse_config("m = 12\nn = 14\nk = 1\nepsilon = 0\ntrials = 5\nfoo = 1\n")
    with pytest.raises(ValueError):
        parse_config("just some words\n")
    base = "m = 12\nn = 14\nk = 1\nepsilon = 0\n"
    for text, match in (
        (base + "trials = ten\n", "config key 'trials' on line 5: invalid literal"),
        ("m = 8, x\nn = 14\nk = 1\nepsilon = 0\ntrials = 5\n",
         "config key 'm' on line 1: invalid literal"),
        (base + "trials = 5\nmaster_seed = 1e3\n", "config key 'master_seed' on line 6: "),
        (base + "trials = 5\n# comment\n\nmargin_factor = big\n",
         "config key 'margin_factor' on line 8: could not convert"),
        ("m =\nn = 14\nk = 1\nepsilon = 0\ntrials = 5\n", "m_values must be non-empty"),
        (base + "trials = 5\nmin_mag_policy = other\n", "min_mag_policy must be one of"),
        (base + "trials = 5\nparallelism = 0\n", "parallelism must be positive"),
        ("m = 0\nn = 14\nk = 1\nepsilon = 0\ntrials = 5\n", "m, n and K must all be positive"),
        ("m = 12\nn = 14\nk = 0\nepsilon = 0\ntrials = 5\n", "m, n and K must all be positive"),
        ("m = 3\nn = 3\nk = 2\nepsilon = 0\ntrials = 5\nensemble = lemma1_family\n"
         "lemma1_deltas = 0.2, 1.5\n", r"lemma1_deltas must lie in \[0, 1\)"),
    ):
        with pytest.raises(ValueError, match=match):
            parse_config(text)


def test_parse_config_rejects_repeated_key():
    text = "m = 12\nn = 14\nk = 1\nepsilon = 0\ntrials = 5\n\ntrials = 6\n"
    with pytest.raises(ValueError, match="'trials' repeated on lines 5 and 7"):
        parse_config(text)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(trials=0)
    with pytest.raises(ValueError):
        _small_config(margin_factor=1.0)
    with pytest.raises(ValueError):
        _small_config(ensemble="bernoulli")
    with pytest.raises(ValueError):
        _small_config(ensemble="lemma1_family")  # wrong cell shape
    with pytest.raises(ValueError):
        _small_config(epsilon_values=(-0.1,))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            _small_config(dynamic_range=bad)
    with pytest.raises(ValueError):
        _small_config(min_mag_policy="fixed", min_mag_fixed=math.inf)
    with pytest.raises(ValueError):
        _small_config(epsilon_values=(0.0, math.inf))
    with pytest.raises(ValueError):
        _small_config(margin_factor=math.nan)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            _small_config(subset_budget=bad)
    # values the signal draw would reject, refused before any trial runs
    with pytest.raises(ValueError, match="sign_pattern must be one of"):
        _small_config(sign_pattern="bogus")
    with pytest.raises(ValueError, match=r"min_mag_fixed \* dynamic_range must be finite"):
        _small_config(min_mag_policy="fixed", min_mag_fixed=1e308)
    _small_config(min_mag_fixed=1e308)  # unused under the theorem_bound policy
    _small_config(min_mag_fixed=5e-324)  # so is a subnormal one
    # the theorem_bound floor is at least margin_factor * 2 eps
    message = r"margin_factor \* 2 \* epsilon \* dynamic_range must be finite"
    for overrides in (dict(epsilon_values=(0.0, 1e307)),
                      dict(epsilon_values=(0.1,), margin_factor=1e308),
                      dict(epsilon_values=(1e300,), dynamic_range=1e10)):
        with pytest.raises(ValueError, match=message):
            _small_config(**overrides)
    _small_config(epsilon_values=(0.0,), margin_factor=1e308)  # a unit floor
    # unused under the fixed policy, whose floor range does not read epsilon
    _small_config(min_mag_policy="fixed", epsilon_values=(1e150,), dynamic_range=1e160)
    # a noisy cell's residual stop squares epsilon, which must stay a normal float
    for eps in (1e307, 1e155, 1e-170):
        message = f"epsilon**2 must be 0 or a normal float, got {eps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _small_config(min_mag_policy="fixed", epsilon_values=(0.0, eps))


def test_theorem1_validation_refuses_k_equal_n_before_any_trial(monkeypatch):
    ran = []
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    with pytest.raises(ValueError, match=r"cell \(m=12, n=14, K=14\) needs K\+1 <= n"):
        theorem1_validation(_small_config(k_values=(1, 14)))
    assert ran == []


def test_theorem1_validation_counts():
    cfg = _small_config()
    rows = theorem1_validation(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.trials == 6
        assert row.conditions_held_count is not None
        if row.conditions_held_count:
            assert row.conditional_success_rate == 1.0
        else:
            assert row.conditional_success_rate is None


def test_theorem1_validation_budget_error(monkeypatch):
    # the cell is refused before any trial runs
    units, run_unit = [], experiments._run_unit
    monkeypatch.setattr(experiments, "_run_unit", lambda ts: units.append(ts) or run_unit(ts))
    cfg = _small_config(subset_budget=10)
    with pytest.raises(CapacityError) as err:
        theorem1_validation(cfg)
    assert str(err.value) == ("C(14, 2) = 91 subsets exceeds the enumeration budget 10 "
                              "(required by cell (m=12, n=14, K=1))")
    assert (err.value.n, err.value.K, err.value.count, err.value.budget) == (14, 2, 91, 10)
    assert units == []


# One grid per refusal, each with several values per key: a harness it is
# handed to (the config itself refuses the first two), and the message, which
# names the grid's first offending cell in (m, n, K, epsilon) product order.
_GRID_REFUSALS = [
    (phase_table, dict(m_values=(12, 20), n_values=(14, 3, 2), k_values=(1, 3, 4)),
     ValueError, "cell (m=12, n=3, K=4) has K > n"),
    (theorem1_validation, dict(m_values=(3,), n_values=(3, 4), k_values=(2, 1),
                               ensemble="lemma1_family"),
     ValueError, "lemma1_family requires m = n = 3 and K = 2 cells"),
    (theorem1_validation, dict(m_values=(12, 8), n_values=(14, 3), k_values=(1, 3)),
     ValueError, "cell (m=12, n=3, K=3) needs K+1 <= n"),
    (theorem1_validation, dict(m_values=(12, 8), n_values=(6, 14), k_values=(1, 2),
                               subset_budget=100),
     CapacityError, "C(14, 3) = 364 subsets exceeds the enumeration budget 100 "
                    "(required by cell (m=12, n=14, K=2))"),
    (phase_table, dict(m_values=(12, 2, 1), n_values=(14, 6), k_values=(1, 3),
                       epsilon_values=(0.05, 0.0)),
     ValueError, "cell (m=2, n=14, K=3, epsilon=0.0) needs K <= min(m, n) for its "
                 "K-iteration run"),
]


@pytest.mark.parametrize("harness, overrides, error, message", _GRID_REFUSALS)
def test_grid_refusals_name_the_first_offending_cell(monkeypatch, harness, overrides, error,
                                                     message):
    ran = []
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    with pytest.raises(error) as err:
        harness(_small_config(**overrides))
    assert str(err.value) == message
    assert ran == []


def _wide_config(m_values=range(20, 120), n_values=range(20, 120), **overrides):
    """A grid of 1,000,000 cells of one trial, the most a run holds."""
    return ExperimentConfig(m_values=m_values, n_values=n_values, k_values=range(1, 11),
                            epsilon_values=[e / 100 for e in range(10)], trials=1, **overrides)


def _no_cells(self):
    raise AssertionError("the cell list was built")


def test_config_checks_a_wide_grid_on_its_value_tuples(monkeypatch):
    # each of the config's rules reads at most two of the four value tuples,
    # so neither the config nor its re-validation by replace (as the CLI's
    # --parallelism does) builds the cell list
    monkeypatch.setattr(ExperimentConfig, "cells", _no_cells)
    config = _wide_config()
    assert replace(config, parallelism=2).parallelism == 2


def test_harnesses_refuse_a_wide_grid_on_its_value_tuples(monkeypatch):
    # theorem1's K + 1 <= n and subset budget, and phase's noiseless
    # K <= min(m, n), refuse before any cell list is built or trial runs
    ran = []
    monkeypatch.setattr(ExperimentConfig, "cells", _no_cells)
    monkeypatch.setattr(experiments, "_run_unit", ran.append)
    for harness, grid, error, message in (
        (theorem1_validation, _wide_config(n_values=range(10, 110)),
         ValueError, "cell (m=20, n=10, K=10) needs K+1 <= n"),
        (theorem1_validation, _wide_config(), CapacityError,
         "C(24, 11) = 2496144 subsets exceeds the enumeration budget 2000000 "
         "(required by cell (m=20, n=24, K=10))"),
        (phase_table, _wide_config(m_values=range(1, 101)), ValueError,
         "cell (m=1, n=20, K=2, epsilon=0.0) needs K <= min(m, n) for its K-iteration run"),
    ):
        with pytest.raises(error) as err:
            harness(grid)
        assert str(err.value) == message
    assert ran == []


def test_theorem1_lemma1_family_nonvacuous():
    cfg = ExperimentConfig(
        m_values=(3,),
        n_values=(3,),
        k_values=(2,),
        epsilon_values=(0.0, 0.01),
        trials=25,
        ensemble="lemma1_family",
        lemma1_deltas=(0.1, 0.2, 0.3, 0.4, 0.5),
        master_seed=5,
    )
    rows = theorem1_validation(cfg)
    for row in rows:
        # the family RIC equals its delta parameter, below the bound always
        assert row.conditions_held_count == 25
        assert row.conditional_success_rate == 1.0
        assert row.exact_support_rate == 1.0


def _mixed_size_config(**overrides):
    """Cells that differ in m*n and in K, so largest-first dispatch reorders
    the trials across cells."""
    return _small_config(
        m_values=(10, 16), n_values=(14, 24), k_values=(1, 3), trials=4,
        **overrides,
    )


def test_phase_table_and_determinism_across_parallelism():
    for cfg in (_small_config(trials=8), _mixed_size_config()):
        serial = rows_csv_text(phase_table(cfg))
        parallel = rows_csv_text(phase_table(replace(cfg, parallelism=2)))
        assert serial == parallel
        assert serial.splitlines()[0] == EXPERIMENT_CSV_HEADER


def test_pool_receives_largest_trials_first(monkeypatch):
    received = []

    class SerialPool:
        """Stands in for the process pool: records the units it is handed
        and their chunk size, runs in-process."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units, chunksize=1):
            received.append((list(units), chunksize))
            return map(fn, received[-1][0])

    # five trials per cell and a budget of 2,000 subsets: the n = 24, K = 3
    # cells check no RIC, and the 20 RIC-checked trials of (n, K + 1) =
    # (14, 4) fit one unit of at most 2**14 // min(14 * 14, C(14, 4)) = 83
    cfg = replace(_mixed_size_config(subset_budget=2000), trials=5)
    serial = rows_csv_text(phase_table(cfg))
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    assert rows_csv_text(phase_table(replace(cfg, parallelism=2))) == serial
    [(units, chunksize)] = received
    assert chunksize == 1
    index = {
        (cfg.master_seed ^ splitmix64(t)) & MASK64: t
        for t in range(cfg.trials * len(cfg.cells()))
    }
    # every trial runs once; inside a unit and across the units' first
    # trials, largest m*n first, then largest K, and equal sizes in trial order
    assert sorted(index[t.trial_seed] for unit in units for t in unit) == sorted(index.values())

    def key(task):
        return (-task.m * task.n, -task.k, index[task.trial_seed])

    for unit in units:
        assert [key(t) for t in unit] == sorted(key(t) for t in unit)
    assert [key(u[0]) for u in units] == sorted(key(u[0]) for u in units)
    assert key(units[0][0])[:2] == (-16 * 24, -3)
    # RIC-checked units share (n, K) within 2**14 entries, n*n or C(n, K + 1)
    # per trial, whichever is fewer; the others hold one cell's trials, cut
    # into units of min(len(tasks) // 32, 2**18 // (m * n)), here 2 (of 5)
    shapes = []
    cuts = {}
    for unit in units:
        n, k = unit[0].n, unit[0].k
        if unit[0].check_conditions:
            assert all((t.n, t.k, t.check_conditions) == (n, k, True) for t in unit)
            assert len(unit) * min(n * n, math.comb(n, k + 1)) <= 2**14
            shapes.append((n, k, len(unit)))
        else:
            cell = (unit[0].m, n, k, unit[0].epsilon)
            assert not any(t.check_conditions for t in unit)
            assert all((t.m, t.n, t.k, t.epsilon) == cell for t in unit)
            assert 1 <= len(unit) <= min(len(index) // 32, 2**18 // (cell[0] * n))
            cuts.setdefault(cell, []).append(len(unit))
    assert sorted(shapes) == [(14, 1, 20), (14, 3, 20), (24, 1, 20)]
    assert cuts == {(m, 24, 3, eps): [2, 2, 1] for m in (10, 16) for eps in (0.0, 0.05)}
    rows = [line.split(",")[:4] for line in serial.splitlines()[1:]]
    assert [tuple(map(float, r)) for r in rows] == [
        tuple(map(float, c)) for c in cfg.cells()
    ]


def test_batched_rics_keep_csv_bytes_at_every_parallelism(monkeypatch):
    # sha256 of both CSVs per config: the mixed-size digests recorded before
    # trial RICs were batched, the others before harness trials formed their
    # own measurements; units of one trial each (the unbatched shape) and
    # pools of 2 and 3 give the same
    golden = [
        (_mixed_size_config(),
         "0cb0fbbfcd45ade1e9c0973904bda85894175ce321a3164aadfdc2188496e04d",
         "e5e28dd2e9d0c0524ad7325e190bb0281ba3a9b1ced619d85f4177cdb0799194"),
        (_mixed_size_config(ensemble="gaussian_raw"),
         "4893dc689d0830cac148855ea73cd526772e2fa5fda0300663502a2e92072426",
         "680fc91673767938f437315118c9bb945ccd9135663a85ffcc343f8695b114a7"),
        (_mixed_size_config(min_mag_policy="fixed", sign_pattern="positive"),
         "ee10c571cc4e1efe768af721cab13c24268ff4cba6392962f5047332f008ac8a",
         "820e2d39ec9737ff1a4c85a546337ed33d509c1c037ede4861f522c86b1f436e"),
        # family RICs on both sides of the bound: theorem1 skips the trials
        # at 0.7, phase runs them on the 2 eps stand-in floor
        (_small_config(m_values=(3,), n_values=(3,), k_values=(2,), trials=10,
                       ensemble="lemma1_family", lemma1_deltas=(0.3, 0.5, 0.7)),
         "4c346b7cce4f74c1e919c893b7a1f8e88718a4ffbacac79573282783b69a59f2",
         "7dabc200b9c341b38bb7fd4ba3ae4347023536bb6446c6aad6196b84b3c612ae"),
    ]
    units, stacks = [], []  # what _run_unit and the kernel get at _UNIT_ENTRIES = 1
    run_unit, ric_search = experiments._run_unit, experiments._ric_search
    for cfg, *digests in golden:
        for run, digest in zip((theorem1_validation, phase_table), digests):
            texts = [rows_csv_text(run(replace(cfg, parallelism=p))) for p in (1, 2, 3)]
            with monkeypatch.context() as mp:
                mp.setattr(experiments, "_UNIT_ENTRIES", 1)
                mp.setattr(experiments, "_run_unit", lambda ts: units.append(ts) or run_unit(ts))
                mp.setattr(experiments, "_ric_search",
                           lambda G, K: stacks.append(len(G)) or ric_search(G, K))
                texts.append(rows_csv_text(run(cfg)))
            # and with no witness settling a verdict: every Gram to the kernel
            for entries in (experiments._UNIT_ENTRIES, 1):
                with monkeypatch.context() as mp:
                    mp.setattr(experiments, "_UNIT_ENTRIES", entries)
                    mp.setattr(experiments, "_witness_deltas", _no_witness)
                    texts.append(rows_csv_text(run(cfg)))
            assert {hashlib.sha256(text.encode()).hexdigest() for text in texts} == {digest}
    # the unbatched shape: one trial per unit, one Gram per kernel call
    assert {len(ts) for ts in units if ts[0].check_conditions} == {1}
    assert set(stacks) == {1}


def _no_witness(G, K):
    return np.full(len(G), -np.inf)


def test_certify_is_exact_below_the_bound_and_the_same_alone(monkeypatch):
    # 12 x 14 Gaussian Grams at K = 1, the _small_config grid, on both sides
    # of 1/sqrt(2): below it every delta is exact_ric's, bit for bit; at or
    # above it a witness delta may stand in, never above the exact RIC; with
    # no witness every delta is exact_ric's; each Gram's delta is the same
    # alone as in the stack; and each floor is _magnitude_floor of its delta
    # at its trial's epsilon, finite exactly below the bound
    cfg = _small_config()
    tasks = [experiments._TrialTask(cfg, "theorem1", 12, 14, 1, 0.0, seed, True)
             for seed in range(40)]
    AT = experiments._draw_stack(tasks)
    G = ripcheck._grams(AT.swapaxes(1, 2))
    exact = [exact_ric(A.T, 2).delta for A in AT]
    bound = sharp_ric_bound(1)
    epsilons = [(0.0, 0.05, 0.3)[t % 3] for t in range(len(G))]
    deltas, floors = experiments._certify(G, 1, epsilons)
    assert 0 < sum(delta < bound for delta in deltas) < len(deltas)
    for delta, ric in zip(deltas, exact):
        assert delta == ric if delta < bound else bound <= delta <= ric
    for delta, floor, eps in zip(deltas, floors, epsilons):
        assert floor == ripcheck._magnitude_floor(delta, 1, eps)
        assert (floor < math.inf) == (delta < bound)
    assert 0.0 in floors and any(0.0 < floor < math.inf for floor in floors)
    assert deltas == [experiments._certify(G[t : t + 1], 1, epsilons[t : t + 1])[0][0]
                      for t in range(len(G))]
    monkeypatch.setattr(experiments, "_witness_deltas", _no_witness)
    assert experiments._certify(G, 1, epsilons)[0] == exact


def _refuse(*args, **kwargs):
    raise AssertionError("built a public-API object the harness discards")


def test_certify_builds_no_ric_report(monkeypatch):
    # the certify stage reads its kernel deltas as arrays: with every Gram
    # sent to the kernel it builds no RicReport, and its deltas are still
    # exact_ric's on each matrix alone
    cfg = _small_config()
    tasks = [experiments._TrialTask(cfg, "theorem1", 12, 14, 1, 0.0, seed, True)
             for seed in range(12)]
    AT = experiments._draw_stack(tasks)
    G = ripcheck._grams(AT.swapaxes(1, 2))
    exact = [exact_ric(A.T, 2).delta for A in AT]
    monkeypatch.setattr(experiments, "_witness_deltas", _no_witness)
    monkeypatch.setattr(ripcheck, "RicReport", _refuse)
    assert experiments._certify(G, 1, [0.0] * len(G))[0] == exact


def test_build_trial_refuses_a_floor_whose_range_overflows():
    # the one draw check a trial's floor needs: the config bounds margin *
    # 2 eps * dynamic_range, but a delta just below the bound makes the
    # guarantee's floor as large as it likes
    cfg = _small_config(epsilon_values=(1e150,), dynamic_range=1e150)
    task = experiments._TrialTask(cfg, "theorem1", 12, 14, 1, 1e150, 5, True)
    A = experiments._draw_stack([task])[0].T
    with pytest.raises(ValueError, match=r"min_mag \* dynamic_range must be finite"):
        experiments._build_trial(task, A, 1e300)
    support, values, _, _ = experiments._build_trial(task, A, 1e150)
    assert support.shape == values.shape == (1,) and np.abs(values).min() > 1e150


def test_held_test_is_strict_at_an_exact_tie():
    # a fixed floor with a unit dynamic range draws every |x_i| equal to it,
    # so a floor set to the trial's guarantee floor ties it exactly: the
    # magnitude condition min |x_i| > floor is strict, and one ulp above holds
    cfg = _small_config(m_values=(20,), n_values=(18,), epsilon_values=(0.05,), trials=1,
                        min_mag_policy="fixed", min_mag_fixed=1.0, dynamic_range=1.0,
                        master_seed=3)
    [(_, _, [record])] = experiments._run_cells(cfg, "theorem1")
    assert record.delta == pytest.approx(0.6690, abs=1e-4)
    assert record.floor == pytest.approx(1.8569, abs=1e-4)
    for magnitude, held in ((record.floor, False), (np.nextafter(record.floor, np.inf), True)):
        tie = replace(cfg, min_mag_fixed=float(magnitude))
        [(_, [task], [outcome])] = experiments._run_cells(tie, "theorem1")
        A = experiments._draw_stack([task])[0].T
        values = experiments._build_trial(task, A, outcome.floor)[1]
        assert np.all(np.abs(values) == magnitude)
        assert (outcome.delta, outcome.floor) == (record.delta, record.floor)
        assert outcome.held is held


def test_theorem1_groups_share_one_gram_stack_and_witness_call(monkeypatch):
    # the theorem1 bench grid (family 3): 6 groups of 18 trials per (n, K + 1),
    # each one unit, where kernel-sized units made 28 (the 18 C(24, 4) trials
    # one per unit), with one stacked Gram product per m (6 trials) and one
    # witness call; kernel stacks keep at most 2**14 // C(n, K + 1) Grams
    cfg = _small_config(m_values=(12, 16, 20), n_values=(18, 24), k_values=(1, 2, 3),
                        epsilon_values=(0.0, 0.01, 0.05), trials=2, master_seed=3)
    grams, witness, kernel = [], [], []
    real_grams, real_witness, real_kernel = (
        experiments._grams, experiments._witness_deltas, experiments._ric_search)
    monkeypatch.setattr(experiments, "_grams", lambda Ms: grams.append(len(Ms)) or real_grams(Ms))
    monkeypatch.setattr(experiments, "_witness_deltas",
                        lambda G, K: witness.append((G.shape[-1], K)) or real_witness(G, K))
    monkeypatch.setattr(experiments, "_ric_search",
                        lambda G, K: kernel.append((G.shape[-1], K, len(G))) or real_kernel(G, K))
    theorem1_validation(cfg)
    groups = [(n, k + 1) for n in cfg.n_values for k in cfg.k_values]
    assert sorted(witness) == groups
    assert grams == [2 * 3] * (len(cfg.m_values) * len(groups))
    assert sum(-(-18 // max(1, experiments._UNIT_ENTRIES // math.comb(n, K)))
               for n, K in groups) == 28
    assert kernel
    for n, K, stack in kernel:
        assert stack <= max(1, experiments._UNIT_ENTRIES // math.comb(n, K))
    # no (n, K + 1) of any shape is cut into more units than kernel-sized units
    for n in range(2, 41):
        for k in range(1, n):
            tasks = [experiments._TrialTask(cfg, "phase", 8, n, k, 0.0, seed, True)
                     for seed in range(100)]
            old = -(-100 // max(1, experiments._UNIT_ENTRIES // math.comb(n, k + 1)))
            assert len(experiments._work_units(tasks, 1)) <= old, (n, k)


@pytest.mark.parametrize("run", [theorem1_validation, phase_table])
def test_stack_entries_bound_every_unit(monkeypatch, run):
    # RIC-checked units as well as the others hold at most
    # _STACK_ENTRIES // (m * n) trials, m * n their first (largest) trial's,
    # and the cut leaves the CSV bytes as they are
    cfg = _mixed_size_config()
    csv = rows_csv_text(run(cfg))
    units, run_unit = [], experiments._run_unit
    monkeypatch.setattr(experiments, "_run_unit", lambda ts: units.append(ts) or run_unit(ts))
    monkeypatch.setattr(experiments, "_STACK_ENTRIES", 500)
    assert rows_csv_text(run(cfg)) == csv
    assert all(t.check_conditions for unit in units for t in unit)
    for unit in units:
        largest = unit[0].m * unit[0].n
        assert max(t.m * t.n for t in unit) == largest
        assert len(unit) <= max(1, 500 // largest)
    # 500 // (16 * 14), where an (n, K)'s 16 trials make one unit uncapped
    assert max(map(len, units)) == 2
    # a tall cell: 20,000 trials of 4,000 x 4 matrices would put 16,384 of
    # them (about 2 GB) in one unit; the cap keeps 2**18 // 16,000 = 16
    monkeypatch.undo()
    tasks = [experiments._TrialTask(cfg, "theorem1", 4000, 4, 3, 0.0, seed, True)
             for seed in range(20_000)]
    assert {len(unit) for unit in experiments._work_units(tasks, 1)} == {16}


def test_kernel_receives_only_grams_the_witness_leaves_open(monkeypatch):
    # n = 24, K = 3: a trial whose witness reaches 1/sqrt(K + 1) is settled
    # above the bound without its C(24, 4) = 10,626 subsets; the kernel gets
    # the others, in stacks of 2**14 // 10,626 = 1 Gram, and still finds some
    # of them above the bound
    received = []
    real = experiments._ric_search
    monkeypatch.setattr(experiments, "_ric_search", lambda G, K: received.append(G) or real(G, K))
    cfg = _small_config(m_values=(16, 120), n_values=(24,), k_values=(3,),
                        epsilon_values=(0.05,), trials=8)
    theorem1_validation(cfg)
    G = np.concatenate(received)
    bound = sharp_ric_bound(3)
    assert (ripcheck._witness_deltas(G, 4) < bound).all()
    deltas = [report.delta for report in ripcheck._gram_rics(G, 4)]
    assert min(deltas) < bound <= max(deltas)
    assert len(G) < cfg.trials * len(cfg.cells())
    assert {len(stack) for stack in received} == {1}


@pytest.mark.parametrize("mode", ["theorem1", "phase"])
def test_overflowing_gram_terms_keep_the_kernel_outcomes(monkeypatch, mode):
    # a column scaled by 1e80 squares its Gram terms to +inf: the witness
    # scores them with no RuntimeWarning (an error here) and no NaN, and
    # each trial ends as it does when the kernel decides every verdict
    real_draw = experiments._draw_stack

    def draw(tasks):
        AT = real_draw(tasks)
        for slot, task in zip(AT, tasks):  # row j of a slot is column j of A
            if task.trial_seed % 2:
                slot[task.trial_seed % task.n] *= 1e80
        return AT

    monkeypatch.setattr(experiments, "_draw_stack", draw)
    cfg = _small_config()
    tasks = [experiments._TrialTask(cfg, mode, 12, 14, k, 0.05, seed, True)
             for k in (1, 2) for seed in range(8)]
    units = [tasks[:8], tasks[8:]]
    outcomes = [experiments._run_unit(unit) for unit in units]
    monkeypatch.setattr(experiments, "_witness_deltas", _no_witness)
    assert outcomes == [experiments._run_unit(unit) for unit in units]
    # theorem1 skips the scaled trials on their witness; phase runs them
    assert [o.attempted for o in outcomes[0][1::2]] == [mode == "phase"] * 4


@pytest.mark.parametrize("ensemble", ["gaussian_raw", "lemma1_family"])
@pytest.mark.parametrize("mode, check", [("theorem1", True), ("phase", True), ("phase", False)])
def test_run_unit_matches_trials_run_one_at_a_time(monkeypatch, ensemble, mode, check):
    # a unit whose trials interleave several (m, epsilon) cells, noiseless
    # ones too: its stacked draws, RIC pass and one lockstep call per cell
    # give every outcome as drawing, checking and solving each trial alone
    # does, whether or not the witness settles verdicts; a theorem1 cell
    # whose trials all skip makes no lockstep call
    if ensemble == "lemma1_family":
        m_values, n = (3,), 3
    else:
        m_values, n = (60, 40, 8), 10
    cfg = _small_config(m_values=m_values, n_values=(n,), k_values=(2,),
                        epsilon_values=(0.05, 0.0), ensemble=ensemble,
                        lemma1_deltas=(0.3, 0.5, 0.7))
    cells = [(m, eps) for m in m_values for eps in cfg.epsilon_values]
    tasks = [experiments._TrialTask(cfg, mode, m, n, 2, eps,
                                    (cfg.master_seed ^ splitmix64(t)) & MASK64, check)
             for t, (_, (m, eps)) in enumerate(itertools.product(range(5), cells))]
    expected = run_unit_one_at_a_time(tasks)
    solves, real_stack = [], experiments._omp_stack
    monkeypatch.setattr(experiments, "_omp_stack",
                        lambda AT, Y, rule: solves.append(AT.shape) or real_stack(AT, Y, rule))
    assert experiments._run_unit(tasks) == expected
    monkeypatch.setattr(experiments, "_witness_deltas", _no_witness)
    assert experiments._run_unit(tasks) == expected
    attempted = [sum(o.attempted for t, o in zip(tasks, expected) if (t.m, t.epsilon) == cell)
                 for cell in cells]
    assert solves == 2 * [(a, n, m) for a, (m, _) in zip(attempted, cells) if a]
    if mode == "phase":
        assert attempted == [5] * len(cells)
    else:  # trials on both sides of the bound, and the m = 8 cells all skip
        assert 0 < sum(attempted) < len(tasks)
        assert ensemble == "lemma1_family" or attempted[-2:] == [0, 0]



@pytest.mark.parametrize("ensemble", ["gaussian_normalized", "gaussian_raw"])
def test_draw_stack_chunks_match_the_one_draw_formula(monkeypatch, ensemble):
    # _draw_stack normalizes _UNIT_ENTRIES // (m * n) matrices at a time (one
    # at least): chunks of many, of 2 and of 1, at and on either side of the
    # boundaries, each slot bit for bit the C-order draw normalized alone
    chunks, real = [], experiments._gaussian_draw
    monkeypatch.setattr(experiments, "_gaussian_draw",
                        lambda out, scratch, seeds, normalize:
                        chunks.append(len(seeds)) or real(out, scratch, seeds, normalize))
    cfg = _small_config(ensemble=ensemble)
    assert experiments._UNIT_ENTRIES == 2**14
    for (m, n), T, expected in [
        ((12, 18), 80, [75, 5]),  # many
        ((1, 1), 3, [3]),
        ((64, 128), 5, [2, 2, 1]),  # 2 * m * n = _UNIT_ENTRIES
        ((63, 130), 3, [2, 1]),
        ((65, 128), 2, [1, 1]),
        ((128, 128), 3, [1, 1, 1]),  # m * n = _UNIT_ENTRIES
        ((129, 128), 2, [1, 1]),
    ]:
        chunks.clear()
        tasks = [experiments._TrialTask(cfg, "phase", m, n, 1, 0.0, splitmix64(t), False)
                 for t in range(T)]
        AT = experiments._draw_stack(tasks)
        assert AT.shape == (T, n, m) and AT.flags.c_contiguous
        assert chunks == expected
        for slot, task in zip(AT, tasks):
            seed = experiments._derived_seed(task.trial_seed, experiments._MATRIX_TAG)
            want = gaussian_matrix_one_draw(m, n, seed, ensemble == "gaussian_normalized")
            assert slot.T.tobytes(order="F") == want.tobytes(order="F")

def test_trials_without_ric_draw_and_solve_in_bounded_stacks(monkeypatch):
    # spies on the draws and the solvers: a unit of trials that check no RIC
    # draws each of its matrices once into one stack of at most
    # min(len(tasks) // 16, _STACK_ENTRIES // (m * n)) of them (one at least)
    # and makes one lockstep call on them; a RIC-checked unit draws all its
    # matrices first, then makes one lockstep call per cell on the cell's
    # trials; no trial is drawn by gaussian_sensing_matrix or solved by
    # omp_run
    events, drawn = [], []
    real_slot, real_stack = experiments._gaussian_draw, experiments._omp_stack
    real_draw, real_omp = sensing.gaussian_sensing_matrix, experiments.omp_run

    def slot_draw(out, scratch, seeds, normalize):
        events.extend(["draw"] * len(seeds))
        drawn.extend(seeds)
        return real_slot(out, scratch, seeds, normalize)

    def solve_stack(AT, Y, rule):
        events.append(("solve", AT.shape))
        return real_stack(AT, Y, rule)

    def draw(m, n, seed, **kwargs):
        events.append("draw")
        return real_draw(m, n, seed, **kwargs)

    def solve(*args, **kwargs):
        events.append("solve")
        return real_omp(*args, **kwargs)

    cfg = _mixed_size_config(subset_budget=1)  # no cell can check its RIC
    csv = rows_csv_text(phase_table(cfg))
    monkeypatch.setattr(experiments, "_gaussian_draw", slot_draw)
    monkeypatch.setattr(experiments, "_omp_stack", solve_stack)
    assert not hasattr(experiments, "gaussian_sensing_matrix")  # reached only through sensing
    monkeypatch.setattr(sensing, "gaussian_sensing_matrix", draw)
    monkeypatch.setattr(experiments, "omp_run", solve)
    stack_entries = experiments._STACK_ENTRIES
    # at 1,000 entries the cap binds for m * n = 384 (2 trials) and the
    # chunk of 64 // 16 = 4 trials, a whole cell, for the other cells
    monkeypatch.setattr(experiments, "_STACK_ENTRIES", 1000)
    assert rows_csv_text(phase_table(cfg)) == csv
    stacks = []
    while events:
        size = events.index(next(e for e in events if e != "draw"))
        assert size >= 1 and events[size][0] == "solve"
        (_, (T, n, m)) = events[size]
        assert T == size  # the stack holds exactly the unit's draws
        stacks.append((m * n, T))
        del events[: size + 1]
    chunk = cfg.trials * len(cfg.cells()) // 16
    assert all(T <= max(1, min(chunk, 1000 // mn)) for mn, T in stacks)
    assert sorted(stacks) == sorted([(140, 4)] * 4 + [(224, 4)] * 4 + [(240, 4)] * 4
                                    + [(384, 2)] * 8)
    seeds = [experiments._derived_seed((cfg.master_seed ^ splitmix64(t)) & MASK64,
                                       experiments._MATRIX_TAG)
             for t in range(cfg.trials * len(cfg.cells()))]
    assert sorted(drawn) == sorted(seeds)  # every trial drawn once
    events.clear()
    units, run_unit = [], experiments._run_unit
    monkeypatch.setattr(experiments, "_run_unit", lambda ts: units.append(ts) or run_unit(ts))
    monkeypatch.setattr(experiments, "_STACK_ENTRIES", stack_entries)
    phase_table(replace(cfg, subset_budget=DEFAULT_SUBSET_BUDGET))
    assert sum(map(len, units)) == cfg.trials * len(cfg.cells())
    assert len(units) == 4  # one per (n, K), each of four cells
    for unit in units:
        assert all(t.check_conditions for t in unit)
        cells = Counter((t.m, t.epsilon) for t in unit)  # in first-trial order
        assert events[: len(unit)] == ["draw"] * len(unit)
        solves = [("solve", (count, unit[0].n, m)) for (m, _), count in cells.items()]
        assert events[len(unit) : len(unit) + len(cells)] == solves
        del events[: len(unit) + len(cells)]
    assert events == []


def test_pool_size_is_bounded_by_tasks_and_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for the process pool: records its size, runs the work
        units in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units, chunksize=1):
            return map(fn, units)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    cfg = _small_config(trials=6)  # two cells of six trials each
    serial = rows_csv_text(phase_table(cfg))
    for cpus, expected in ((4, [4]), (16, [12]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        pooled = rows_csv_text(phase_table(replace(cfg, parallelism=5000)))
        assert sizes == expected
        assert pooled == serial



def test_theorem1_violation_serializes_first_held_trial(monkeypatch, tmp_path):
    class SerialPool:
        """Stands in for the process pool and runs the work units
        in-process."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units, chunksize=1):
            return map(fn, units)

    # the harness solves through the lockstep kernel, the replay through
    # omp_run: both drop the support in the noisy cell
    real_stack, real_omp_run = experiments._omp_stack, experiments.omp_run

    def drop_stack_support_in_noisy_cells(AT, Y, rule):
        runs = real_stack(AT, Y, rule)
        if rule.kind == STOP_RESIDUAL:
            return [run._replace(picks=run.picks[:0]) for run in runs]
        return runs

    def drop_support_in_noisy_cells(A, y, rule, **kwargs):
        result = real_omp_run(A, y, rule, **kwargs)
        if rule.kind == STOP_RESIDUAL:
            return replace(result, recovered_support=result.recovered_support[:0])
        return result

    # trials trust their own draws: only the replayed failure becomes a
    # ProblemInstance, for its record
    instances = []
    real_instance = experiments.ProblemInstance

    def instance(*args):
        instances.append(args)
        return real_instance(*args)

    # every RIC comes from the certify stage of a work unit: the replay
    # reads the failing trial's delta and floor off its record
    callers = []
    real_certify = experiments._certify

    def certify(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_certify(*args)

    def no_exact_ric(*args, **kwargs):
        raise AssertionError("exact_ric was called")

    monkeypatch.setattr(experiments, "_certify", certify)
    monkeypatch.setattr(experiments, "exact_ric", no_exact_ric)
    monkeypatch.setattr(experiments, "_omp_stack", drop_stack_support_in_noisy_cells)
    monkeypatch.setattr(experiments, "omp_run", drop_support_in_noisy_cells)
    monkeypatch.setattr(experiments, "ProblemInstance", instance)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)

    cfg = _small_config()  # cells eps=0.0 (index 0) and eps=0.05 (index 1)
    held = []
    for j in range(cfg.trials):
        seed = (cfg.master_seed ^ splitmix64(cfg.trials + j)) & MASK64
        A = gaussian_sensing_matrix(
            12, 14, experiments._derived_seed(seed, experiments._MATRIX_TAG)
        )
        held.append(exact_ric(A, 2).delta < sharp_ric_bound(1))
    expected = f"cell_m12_n14_K1_eps0.05_trial{held.index(True)}"

    for par in (1, 2):
        failure_dir = tmp_path / f"p{par}"
        instances.clear()
        callers.clear()
        with pytest.raises(GuaranteeViolation, match=expected):
            theorem1_validation(
                replace(cfg, parallelism=par, failure_dir=str(failure_dir))
            )
        assert len(instances) == 1
        assert callers and set(callers) == {"_run_unit"}
        assert [d.name for d in failure_dir.iterdir()] == [expected]
        report = json.loads((failure_dir / expected / "report.json").read_text())
        assert report["delta"] < report["ric_bound"]
        assert report["recovered_support"] == []
        # every file of the record, name and bytes, as first recorded
        digest = hashlib.sha256()
        for path in sorted((failure_dir / expected).iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == "a1abc83b4e8ca8c128d660f6a1d1acf28bcc1285896e60f772d9cf4d9e67cceb"


def test_theorem1_determinism_across_parallelism():
    cfg = _small_config(trials=8)
    a = rows_csv_text(theorem1_validation(cfg))
    b = rows_csv_text(theorem1_validation(replace(cfg, parallelism=3)))
    assert a == b


def test_phase_table_over_budget_cells_report_rate_only():
    cfg = ExperimentConfig(
        m_values=(10,),
        n_values=(24,),
        k_values=(3,),
        epsilon_values=(0.0,),
        trials=4,
        min_mag_policy="fixed",
        subset_budget=100,  # C(24, 4) blows this
        master_seed=3,
    )
    rows = phase_table(cfg)
    assert rows[0].conditions_held_count is None
    assert rows[0].conditional_success_rate is None
    assert 0.0 <= rows[0].exact_support_rate <= 1.0


def test_phase_table_checks_no_conditions_where_k_equals_n(monkeypatch):
    # no order-(K+1) RIC exists at K = n: that cell reports the rate only,
    # and its trials never reach the RIC kernel
    grams = []
    real_grams = experiments._grams
    monkeypatch.setattr(experiments, "_grams", lambda Ms: grams.append(Ms) or real_grams(Ms))
    rows = phase_table(_small_config(k_values=(1, 14), epsilon_values=(0.05,)))
    assert [r.conditions_held_count is None for r in rows] == [False, True]
    assert sum(len(Ms) for Ms in grams) == 6  # the K = 1 cell's trials


def test_csv_rendering_blanks():
    cfg = _small_config(trials=4)
    text = rows_csv_text(theorem1_validation(cfg))
    lines = text.strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.count(",") == EXPERIMENT_CSV_HEADER.count(",")


def test_sharpness_probe_finds_and_roundtrips(tmp_path, monkeypatch):
    fi = sharpness_probe(2, 0.9)
    assert fi is not None
    assert abs(fi.verified_delta - 0.9) <= 1e-6
    assert fi.verified_delta >= fi.sharp_bound - 1e-10
    assert not np.array_equal(fi.omp_trace.recovered_support, fi.signal.support)
    assert fi.omp_trace.trace[0].in_true_support is False

    d = tmp_path / "failure"
    save_failure_instance(d, fi)
    calls = []

    def counted(name):
        real = getattr(experiments, name)
        return lambda *a, **kw: calls.append(name) or real(*a, **kw)

    for name in ("omp_run", "exact_ric"):
        monkeypatch.setattr(experiments, name, counted(name))
    back = load_failure_instance(d)
    assert np.array_equal(back.matrix, fi.matrix)
    assert back.verified_delta == fi.verified_delta
    assert np.array_equal(
        back.omp_trace.recovered_support, fi.omp_trace.recovered_support
    )
    assert not np.array_equal(back.omp_trace.recovered_support, back.signal.support)
    # the reloaded instance's own RIC and run, each computed once
    assert sorted(calls) == ["exact_ric", "omp_run"]


def test_load_failure_instance_reads_no_report(tmp_path):
    # the RIC and the bound come from the matrix and the signal's K, never
    # from the record: an edited report changes nothing, a missing one is
    # not needed
    fi = sharpness_probe(2, 0.7)
    d = tmp_path / "failure"
    save_failure_instance(d, fi)
    report = json.loads((d / "report.json").read_text())
    report.update(verified_delta=0.99, sharp_bound=0.0)
    (d / "report.json").write_text(json.dumps(report))
    back = load_failure_instance(d)
    assert back.verified_delta == fi.verified_delta
    assert back.sharp_bound == fi.sharp_bound
    (d / "report.json").unlink()
    assert load_failure_instance(d).verified_delta == fi.verified_delta


def test_load_failure_instance_refuses_a_delta_below_the_bound(tmp_path):
    # a consistent record, so the instance loads; its RIC (0) is what is refused
    d = tmp_path / "failure"
    signal = SparseSignal(3, [1, 2], [1.0, 1.0])
    save_problem_instance(d, generate_measurement(np.eye(3), signal))
    assert np.array_equal(load_problem_instance(d).matrix, np.eye(3))
    with pytest.raises(ValueError, match="below the sharp bound"):
        load_failure_instance(d)


def test_load_failure_instance_raises_capacity_error_above_the_budget(tmp_path):
    # C(40, 6) = 3,838,380 order-6 subsets exceed the default budget, and the
    # loader computes the RIC the record would otherwise have claimed
    d = tmp_path / "failure"
    signal = SparseSignal(40, [0, 1, 2, 3, 4], [1.0] * 5)
    save_problem_instance(d, generate_measurement(gaussian_sensing_matrix(3, 40, 1), signal))
    with pytest.raises(CapacityError):
        load_failure_instance(d)


def test_sharpness_probe_builds_on_k_t_grid(tmp_path):
    for K in range(2, 9):
        sharp = sharp_ric_bound(K)
        grid = [sharp + 1e-12, *np.linspace(sharp, 1.0 - 1e-6, 9)[1:]]
        for i, t in enumerate(grid):
            fi = sharpness_probe(K, float(t))
            assert fi is not None, (K, t)
            assert abs(fi.verified_delta - t) <= 1e-12, (K, t)
            assert fi.omp_trace.trace[0].selected_index == 0, (K, t)
            d = tmp_path / f"K{K}_{i}"
            save_failure_instance(d, fi)
            back = load_failure_instance(d)
            assert back.verified_delta == fi.verified_delta, (K, t)
            assert not np.array_equal(
                back.omp_trace.recovered_support, back.signal.support
            ), (K, t)


def test_sharpness_probe_exact_tie_returns_none():
    # At t == 1/sqrt(K+1) the first selection is an exact tie that rounding
    # would decide, so no instance is claimed.
    for K in range(2, 9):
        assert sharpness_probe(K, sharp_ric_bound(K)) is None
    # just below t = 1 rounding leaves the scaled Gram not positive definite:
    # it has no Cholesky factor, and no instance is claimed either
    assert sharpness_probe(2, 0.9999999999999998) is None


def test_failure_instance_rejects_what_is_not_a_counterexample():
    fi = sharpness_probe(2, 0.9)
    with pytest.raises(ValueError, match="below the sharp bound"):
        replace(fi, matrix=np.eye(3))
    # the instance's own K-step run on this matrix recovers this signal
    with pytest.raises(ValueError, match="recovers the true support"):
        replace(fi, signal=SparseSignal(3, [0, 1], [1.0, 1.0]))


def test_sharpness_probe_rejects_a_tie_broken_toward_the_support():
    # one ulp above the bound the first selection is all but tied; at K = 4
    # (the smallest such K) rounding hands it to the support, so the K-step
    # run recovers the support and no counterexample is claimed
    for K, found in ((2, True), (3, True), (4, False)):
        t = math.nextafter(sharp_ric_bound(K), 1.0)
        assert (sharpness_probe(K, t) is not None) == found, K


def test_sharpness_probe_validation(monkeypatch):
    class NoNumpy:
        """Fails any numpy use, so every rejection must precede allocation."""

        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used before validation")

    monkeypatch.setattr(experiments, "np", NoNumpy())
    with pytest.raises(ValueError):
        sharpness_probe(1, 0.9)
    with pytest.raises(ValueError):
        sharpness_probe(2, 0.3)  # below the sharp bound
    with pytest.raises(ValueError):
        sharpness_probe(2, 1.0)
    for K in (experiments.MAX_SHARPNESS_K + 1, 100_000, 2.9):  # 2.9 is not truncated to 2
        with pytest.raises(ValueError, match="K must lie in"):
            sharpness_probe(K, 0.9)


def test_sharpness_probe_takes_an_integral_float_k():
    assert sharpness_probe(2.0, 0.7).matrix.tobytes() == sharpness_probe(2, 0.7).matrix.tobytes()


def test_lemma_sweep_report():
    rep = lemma_sweep(123, 40)
    assert rep.violations == 0
    assert rep.instances == 40
    assert rep.lemma1_checks > 0
    assert rep.min_margin_lemma1 > -1e-10
    assert rep.min_margin_lemma2 > -1e-10
    assert rep.min_margin_lemma3 > -1e-9
    assert rep.min_margin_lemma4 > -1e-9
    with pytest.raises(ValueError):
        lemma_sweep(1, 0)


def test_lemma_sweep_golden():
    # pinned from the per-subset implementation (one verify_lemma1 call per
    # subset, every RIC enumeration bounded); the batched one must match it
    assert repr(lemma_sweep(1, 150)) == (
        "LemmaSweepReport(instances=150, lemma1_checks=510, lemma1_skipped=0, "
        "min_margin_lemma1=0.0, min_margin_lemma2=0.0, "
        "min_margin_lemma3=0.10783272438031133, "
        "min_margin_lemma4=-1.1102230246251565e-16, violations=0)"
    )
    assert repr(lemma_sweep(3, 150)) == (
        "LemmaSweepReport(instances=150, lemma1_checks=510, lemma1_skipped=0, "
        "min_margin_lemma1=0.0, min_margin_lemma2=0.0, "
        "min_margin_lemma3=0.043299797091066274, "
        "min_margin_lemma4=-4.440892098500626e-16, violations=0)"
    )


# lemma_sweep(2, count) as the one-instance-at-a-time loop reported it
_SWEEP_COUNTS = {
    1: "LemmaSweepReport(instances=1, lemma1_checks=1, lemma1_skipped=0, "
       "min_margin_lemma1=0.38696592601398805, min_margin_lemma2=0.7595699795842064, "
       "min_margin_lemma3=17.63401266325986, min_margin_lemma4=2.8017591278922676, "
       "violations=0)",
    4: "LemmaSweepReport(instances=4, lemma1_checks=14, lemma1_skipped=0, "
       "min_margin_lemma1=0.165685424949238, min_margin_lemma2=0.0, "
       "min_margin_lemma3=1.1772665512806155, min_margin_lemma4=0.07735049656883264, "
       "violations=0)",
    7: "LemmaSweepReport(instances=7, lemma1_checks=21, lemma1_skipped=0, "
       "min_margin_lemma1=0.0, min_margin_lemma2=0.0, "
       "min_margin_lemma3=1.1772665512806155, min_margin_lemma4=0.0, violations=0)",
    151: "LemmaSweepReport(instances=151, lemma1_checks=511, lemma1_skipped=0, "
         "min_margin_lemma1=0.0, min_margin_lemma2=0.0, "
         "min_margin_lemma3=0.08006306282747411, "
         "min_margin_lemma4=-4.440892098500626e-16, violations=0)",
}


@pytest.mark.parametrize("count", sorted(_SWEEP_COUNTS))
def test_lemma_sweep_counts_off_the_shape_cycle(count):
    # counts that leave some shapes one instance short of the others
    assert repr(lemma_sweep(2, count)) == _SWEEP_COUNTS[count]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_lemma_sweep_chunk_cap_leaves_the_report_unchanged(monkeypatch, cap):
    expected = [lemma_sweep(seed, 23) for seed in (1, 5)]
    chunks = []
    checks = experiments._sweep_checks

    def spy(seed, chunk, subsets):
        chunks.append(list(chunk))
        return checks(seed, chunk, subsets)

    # the bound-entry cap lowered so the largest shape takes `cap` instances
    # per chunk; no chunk of any shape may then exceed it
    largest = max(math.comb(n, K + 1) for _, _, n, K in experiments._SWEEP_SHAPES)
    monkeypatch.setattr(experiments, "_UNIT_ENTRIES", cap * largest)
    monkeypatch.setattr(experiments, "_sweep_checks", spy)
    assert [lemma_sweep(seed, 23) for seed in (1, 5)] == expected
    shapes = len(experiments._SWEEP_SHAPES)
    assert max(len(c) for c in chunks if c[0] % shapes == 2) == cap
    for chunk in chunks:
        assert len({i % shapes for i in chunk}) == 1
    assert sorted(i for c in chunks for i in c) == sorted(2 * list(range(23)))


def test_sweep_checks_match_one_instance_at_a_time():
    # the loop the stacked checks replaced, through the public entry points:
    # every margin and verdict of every instance, bit for bit
    seed, count = 11, 23
    shapes = len(experiments._SWEEP_SHAPES)
    subsets = {K: np.array([[j in S for j in range(K)] for size in range(K)
                            for S in itertools.combinations(range(K), size)])
               for K in (1, 2, 3)}
    for s in range(shapes):
        chunk = range(s, count, shapes)
        for i, got in zip(chunk, experiments._sweep_checks(seed, chunk, subsets)):
            A, signal, w, s1, rest, u = experiments._sweep_instance(seed, i)
            K = signal.sparsity
            deltas = [exact_ric(A, order).delta for order in range(1, K + 2)]
            energy3 = float(np.linalg.norm(A[:, signal.support].T @ w) ** 2)
            z = projection_residual(A[:, s1], A[:, rest] @ u)
            d, energy, uu = deltas[len(s1) + len(rest) - 1], float(z @ z), float(u @ u)
            checks = [verify_lemma1(A, signal, signal.support[list(S)], delta_k1=deltas[K])
                      for size in range(K) for S in itertools.combinations(range(K), size)]
            want = (
                [b - a for a, b in zip(deltas, deltas[1:])],
                (1.0 + deltas[K - 1]) * float(w @ w) - energy3,
                min(energy - (1.0 - d) * uu, (1.0 + d) * uu - energy),
                [c.lhs - c.rhs for c in checks],
                [c.holds for c in checks],
            )
            assert repr(got) == repr(want), i


def test_gaussian_sweep_chunk_is_one_draw_of_arrays(monkeypatch):
    # each Gaussian lemma_sweep chunk is drawn by one _gaussian_draw call
    # into its stack, and its signals and RICs stay arrays: no SparseSignal
    # and no RicReport is built, and every result is as it was
    seed, count = 5, 60
    shapes = experiments._SWEEP_SHAPES
    subsets = {K: np.array([[j in S for j in range(K)] for size in range(K)
                            for S in itertools.combinations(range(K), size)])
               for K in (1, 2, 3)}
    chunks = [range(s, count, len(shapes)) for s, shape in enumerate(shapes)
              if shape[0] == "gaussian"]
    expected = [repr(experiments._sweep_checks(seed, chunk, subsets)) for chunk in chunks]
    draws, real = [], sensing._gaussian_draw

    def draw(out, scratch, seeds, normalize):
        draws.append(len(seeds))
        return real(out, scratch, seeds, normalize)

    for module, name, value in ((experiments, "_gaussian_draw", draw),
                                (sensing, "_gaussian_draw", draw),
                                (experiments, "SparseSignal", _refuse),
                                (sensing, "SparseSignal", _refuse),
                                (ripcheck, "RicReport", _refuse)):
        monkeypatch.setattr(module, name, value)
    for chunk, want in zip(chunks, expected):
        draws.clear()
        assert repr(experiments._sweep_checks(seed, chunk, subsets)) == want
        assert draws == [len(chunk)]


def _fail_instances(monkeypatch, seed, failing):
    """Patch the selection-inequality kernel: instance i of ``failing``
    (found by its matrix) fails its last subset, or raises if its value is an
    exception, in any stack it is checked in."""
    matrices = {i: experiments._sweep_instance(seed, i)[0] for i in failing}
    sides = experiments._lemma1_sides

    def patched(A, omega, x, delta_k1, in_S):
        lhs, rhs, holds = sides(A, omega, x, delta_k1, in_S)
        for t, a in enumerate(A):
            for i, how in failing.items():
                if np.array_equal(a, matrices[i]):
                    if how is not None:
                        raise how
                    lhs[t, -1] = -1.0
                    holds[t, -1] = False
        return lhs, rhs, holds

    monkeypatch.setattr(experiments, "_lemma1_sides", patched)


def test_lemma_sweep_serializes_the_first_violation_in_instance_order(monkeypatch, tmp_path):
    # instance 6 (64 x 16) is checked in a chunk before instance 3 (the 3 x 3
    # worked example) is, but instance 3 comes first
    _fail_instances(monkeypatch, 7, {3: None, 6: None})
    with pytest.raises(GuaranteeViolation, match="instance_3") as caught:
        lemma_sweep(7, 7, failure_dir=tmp_path)
    assert "[(3, 'lemma1', " in str(caught.value)
    assert "(6, " not in str(caught.value)
    assert [d.name for d in tmp_path.iterdir()] == ["instance_3"]


def test_lemma_sweep_raises_or_serializes_in_instance_order(monkeypatch, tmp_path):
    # a raising check stands where its instance does: after an earlier
    # violation it is never reached, before a later one it is raised
    _fail_instances(monkeypatch, 7, {3: None, 6: ArithmeticError("instance six")})
    with pytest.raises(GuaranteeViolation, match="instance_3"):
        lemma_sweep(7, 7, failure_dir=tmp_path / "a")
    assert [d.name for d in (tmp_path / "a").iterdir()] == ["instance_3"]
    _fail_instances(monkeypatch, 7, {3: ArithmeticError("instance three"), 6: None})
    with pytest.raises(ArithmeticError, match="instance three"):
        lemma_sweep(7, 7, failure_dir=tmp_path / "b")
    assert not (tmp_path / "b").exists()


def test_lemma_sweep_violation_serializes_instance(monkeypatch, tmp_path):
    def one_failing_row(A, omega, x, delta_k1, in_S):
        # every stacked instance fails on its last subset
        lhs, rhs = np.zeros((len(A), len(in_S))), np.zeros((len(A), len(in_S)))
        lhs[:, -1] = -1.0
        return lhs, rhs, lhs >= rhs - 1e-10

    monkeypatch.setattr(experiments, "_lemma1_sides", one_failing_row)
    with pytest.raises(GuaranteeViolation, match="instance_0"):
        lemma_sweep(7, 5, failure_dir=tmp_path)
    assert [d.name for d in tmp_path.iterdir()] == ["instance_0"]
    record = tmp_path / "instance_0"
    assert sorted(f.name for f in record.iterdir()) == [
        "A.mat", "v.vec", "x.sig", "y.vec"
    ]
    instance = load_problem_instance(record)
    assert not np.any(instance.noise)


@pytest.mark.parametrize("slot, lemma", [(1, "lemma3"), (2, "lemma4")])
def test_lemma_sweep_energy_violation_serializes_instance(monkeypatch, tmp_path, slot, lemma):
    # instance 2 (128 x 14) reports a correlation-energy (slot 1) or
    # projected-energy (slot 2) margin of -1
    checks = experiments._sweep_checks

    def one_negative_margin(seed, chunk, subsets):
        results = checks(seed, chunk, subsets)
        for j, i in enumerate(chunk):
            if i == 2:
                results[j] = (*results[j][:slot], -1.0, *results[j][slot + 1:])
        return results

    monkeypatch.setattr(experiments, "_sweep_checks", one_negative_margin)
    with pytest.raises(GuaranteeViolation, match="instance_2") as caught:
        lemma_sweep(7, 5, failure_dir=tmp_path)
    assert f"[(2, '{lemma}', -1.0)]" in str(caught.value)
    assert [d.name for d in tmp_path.iterdir()] == ["instance_2"]
    instance = load_problem_instance(tmp_path / "instance_2")
    assert np.array_equal(instance.matrix, experiments._sweep_instance(7, 2)[0])


def test_lemma_sweep_skips_the_selection_inequality_at_ric_above_one(monkeypatch):
    # a 4 x 18 design at K = 3 has order-4 RICs well above 1, where the
    # selection inequality claims nothing: both of its instances are skipped
    shapes = list(experiments._SWEEP_SHAPES)
    shapes[2] = ("gaussian", 4, 18, 3)
    monkeypatch.setattr(experiments, "_SWEEP_SHAPES", tuple(shapes))
    for i in (2, 7):
        assert exact_ric(experiments._sweep_instance(1, i)[0], 4).delta > 2.0
    report = lemma_sweep(1, 10)
    assert (report.lemma1_skipped, report.lemma1_checks) == (2, 20)
    assert report.violations == 0


def test_lemma_sweep_deterministic():
    assert lemma_sweep(9, 12) == lemma_sweep(9, 12)


def test_phase_square_raw_design_recovers_singletons():
    # with as many rows as columns the raw Gaussian design is nearly
    # orthogonal and single-spike recovery is almost certain
    cfg = ExperimentConfig(
        m_values=(48,),
        n_values=(48,),
        k_values=(1,),
        epsilon_values=(0.0,),
        trials=30,
        ensemble="gaussian_raw",
        min_mag_policy="fixed",
        subset_budget=10,  # forces rate-only reporting
        master_seed=17,
    )
    row = phase_table(cfg)[0]
    assert row.exact_support_rate >= 0.9
    assert row.conditions_held_count is None


def test_phase_rate_nonincreasing_in_sparsity():
    # sanity: harder problems succeed less often, within binomial noise
    trials = 60
    cfg = ExperimentConfig(
        m_values=(32,),
        n_values=(64,),
        k_values=(1, 2, 3, 4, 5, 6, 7, 8),
        epsilon_values=(0.0,),
        trials=trials,
        min_mag_policy="fixed",
        subset_budget=10,
        master_seed=23,
    )
    rates = [row.exact_support_rate for row in phase_table(cfg)]
    sigma = math.sqrt(2.0 * 0.25 / trials)
    for easier, harder in zip(rates, rates[1:]):
        assert harder <= easier + 3.0 * sigma


def test_config_rejects_k_above_n():
    with pytest.raises(ValueError):
        _small_config(k_values=(15,))
