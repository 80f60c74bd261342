"""Property tests for omp_run on random Gaussian problems under either rule,
for the lockstep solver on stacks of trials against omp_run on each alone,
for exact_ric and its batched form against the unpruned reference on
tie-heavy matrices, for the harness's witness deltas against the kernel's
RICs, for verify_lemma1 and the batched
selection-inequality kernel behind it against an explicit oracle, and for
that kernel on stacks of instances against each instance alone, for
the re-keyed generator of internal draws against a freshly built one, and
for the harnesses' array signal draw against random_sparse_signal.

Hypothesis runs derandomized and without an example database, so the suite
stays deterministic. It still caches the constants it reads from source
files under ``.hypothesis/``, which git ignores.
"""

import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from omplab import (
    RicReport,
    SingularSystemError,
    SparseSignal,
    StopRule,
    as_matrix,
    exact_ric,
    lemma1_example_instance,
    omp_run,
    ripcheck,
    sensing,
    sharp_ric_bound,
    verify_lemma1,
)
from omplab.experiments import sharpness_probe
from omplab.omp import _omp_stack, _refit

from _oracles import omp_run_numpy_loop, ric_unpruned, same_state

_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def _runs(draw):
    """(A, y, rule, result): y = A x + noise with a sparse x, so the
    residual rule is met at a range of iterations, including never."""
    m = draw(st.integers(1, 32))
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    x = np.zeros(n)
    support = rng.choice(n, size=draw(st.integers(0, min(m, n))), replace=False)
    x[support] = rng.standard_normal(support.size)
    y = A @ x + draw(st.sampled_from([0.0, 1e-3, 1.0])) * rng.standard_normal(m)
    if draw(st.booleans()):
        rule = StopRule.max_iterations(draw(st.integers(1, min(m, n))))
    else:
        fraction = draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.3, 1.0, 2.0]))
        rule = StopRule.residual_at_most(fraction * float(np.linalg.norm(y)))
    return A, y, rule, omp_run(A, y, rule)


@_SETTINGS
@given(_runs())
def test_support_strictly_increasing(run):
    _, _, _, res = run
    assert np.all(np.diff(res.recovered_support) > 0)
    assert res.recovered_support.size == res.iterations


@_SETTINGS
@given(_runs())
def test_residual_norms_do_not_increase(run):
    _, y, _, res = run
    norms = [float(np.linalg.norm(y))] + [rec.residual_norm for rec in res.trace]
    slack = 1e-12 * norms[0]
    assert all(b <= a + slack for a, b in zip(norms, norms[1:]))


@_SETTINGS
@given(_runs())
def test_rule_met_exactly_at_the_final_state(run):
    _, y, rule, res = run
    states = [(0, float(np.linalg.norm(y)))]
    states += [(rec.iteration, rec.residual_norm) for rec in res.trace]
    met = [rule.met(k, rnorm) for k, rnorm in states]
    assert not any(met[:-1])
    assert (res.stopped_by == "rule_met") == met[-1]


@_SETTINGS
@given(_runs())
def test_budget_exhausted_only_after_min_m_n_iterations(run):
    A, _, _, res = run
    if res.stopped_by == "budget_exhausted":
        assert res.iterations == min(A.shape)


@_SETTINGS
@given(_runs())
def test_final_residual_orthogonal_to_selected_columns(run):
    A, y, _, res = run
    residual = y - A @ res.estimate.to_dense()
    cols = A[:, res.recovered_support]
    tol = 1e-9 * np.linalg.norm(A, 2) * np.linalg.norm(y)
    assert np.abs(cols.T @ residual).max(initial=0.0) <= tol


def _stack_trial(kind, m, n, eps, rng):
    """(A, y) of one trial of a lockstep stack. "sparse": y = A x plus a
    little noise, with a random support size; "quiet": ||y|| <= eps, at or
    below eps, or exactly 0; "rank": the columns repeat the first r < min(m,
    n), so the run fails its rank test unless the rule stops it first;
    "tie": normalized columns with a_1 = -a_0 and y = 3 a_0, an exact tie
    that goes to column 0; "generic": a Gaussian y."""
    A = rng.standard_normal((m, n))
    if kind == "rank" and min(m, n) >= 2:
        A = A[:, np.arange(n) % int(rng.integers(1, min(m, n)))]
    if kind == "tie" and n >= 2:
        A /= np.linalg.norm(A, axis=0)
        A[:, 1] = -A[:, 0]
        return A, 3.0 * A[:, 0]
    if kind == "sparse":
        x = np.zeros(n)
        support = rng.choice(n, size=int(rng.integers(0, min(m, n) + 1)), replace=False)
        x[support] = rng.standard_normal(support.size)
        return A, A @ x + 1e-3 * rng.standard_normal(m)
    y = rng.standard_normal(m)
    if kind == "quiet":
        y *= rng.choice([0.0, 0.5, 1.0]) * eps / np.linalg.norm(y)
    return A, y


@st.composite
def _omp_stacks(draw):
    """(matrices, measurements, rule, supports) of 1-6 same-shape trials of
    mixed kinds under one rule: a residual threshold (0 for budget
    exhaustion) or an iteration count. supports is None, or one random true
    support per trial, empty and full ones included."""
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    kinds = draw(st.lists(st.sampled_from(["sparse", "quiet", "rank", "tie", "generic"]),
                          min_size=1, max_size=6))
    trials = [_stack_trial(kind, m, n, eps, rng) for kind in kinds]
    if draw(st.booleans()):
        rule = StopRule.residual_at_most(eps)
    else:
        rule = StopRule.max_iterations(draw(st.integers(1, min(m, n))))
    supports = None
    if draw(st.booleans()):
        supports = [rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                    for _ in trials]
    return [A for A, _ in trials], [y for _, y in trials], rule, supports


def _assert_stack_matches_single_runs(matrices, ys, rule, supports=None):
    """_omp_stack on the stack, each trial's run equals omp_run's, and the
    numpy-norm loop's, alone, bit for bit; with supports, the off-support
    correlations too. Returns the stop causes."""
    AT = np.stack([np.asfortranarray(A).T for A in matrices])
    off = None
    if supports is not None:
        off = np.stack([~np.isin(np.arange(A.shape[1]), s) for A, s in zip(matrices, supports)])
    runs = _omp_stack(AT, np.stack(ys), rule, off)
    for A, y, run, truth in zip(matrices, ys, runs, supports or [None] * len(runs)):
        for alone in (omp_run(A, y, rule, truth), omp_run_numpy_loop(A, y, rule, truth)):
            assert run.picks.tolist() == [rec.selected_index for rec in alone.trace]
            assert run.correlations.tolist() == [rec.correlation for rec in alone.trace]
            offs = [rec.off_support_correlation for rec in alone.trace]
            if truth is None:
                assert run.off_correlations is None and set(offs) <= {None}
            else:
                assert run.off_correlations.tolist() == offs
            assert run.norms.tolist() == [rec.residual_norm for rec in alone.trace]
            assert run.stopped_by == alone.stopped_by
            support, estimate = _refit(A.shape[1], run)
            assert support.tobytes() == alone.recovered_support.tobytes()
            assert estimate.support.tobytes() == alone.estimate.support.tobytes()
            assert estimate.values.tobytes() == alone.estimate.values.tobytes()
    return [run.stopped_by for run in runs]


@_SETTINGS
@given(_omp_stacks())
def test_lockstep_stack_matches_single_runs_bit_for_bit(stack):
    _assert_stack_matches_single_runs(*stack)


def test_one_stack_holds_every_stop_cause():
    """Residual stops at iterations 2 and 4, ||y|| == eps at iteration 0, a
    rank failure at iteration 3, an exact tie won by column 0 and budget
    exhaustion, all in one lockstep stack."""
    rng = np.random.default_rng(5)
    m, n, eps = 20, 12, 0.05
    matrices, ys = [], []
    for size in (2, 4):
        A = rng.standard_normal((m, n))
        x = np.zeros(n)
        x[rng.choice(n, size, replace=False)] = 2.0 + rng.random(size)
        noise = rng.standard_normal(m)
        matrices.append(A)
        ys.append(A @ x + 0.01 * noise / np.linalg.norm(noise))
    matrices.append(rng.standard_normal((m, n)))
    ys.append(np.eye(m)[0] * eps)  # its norm is eps exactly
    matrices.append(rng.standard_normal((m, n))[:, np.arange(n) % 3])
    ys.append(rng.standard_normal(m))
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    A[:, 1] = -A[:, 0]
    matrices.append(A)
    ys.append(3.0 * A[:, 0])
    corr = np.abs(A.T @ ys[-1])
    assert corr[0] == corr[1] == corr.max()
    matrices.append(rng.standard_normal((m, n)))
    ys.append(rng.standard_normal(m))
    assert float(np.linalg.norm(ys[2])) == eps
    rule = StopRule.residual_at_most(eps)
    causes = _assert_stack_matches_single_runs(matrices, ys, rule)
    assert causes == ["rule_met"] * 3 + ["rank_failure", "rule_met", "budget_exhausted"]
    assert [omp_run(A, y, rule).iterations for A, y in zip(matrices, ys)] == [2, 4, 0, 3, 1, n]
    assert omp_run(matrices[4], ys[4], rule).trace[0].selected_index == 0


@pytest.mark.parametrize("rule", [StopRule.residual_at_most(0.25), StopRule.residual_at_most(0.0),
                                  StopRule.max_iterations(5)])
def test_stop_rule_decides_an_array_of_norms_as_each_norm(rule):
    """met on the vector of residual norms, as the lockstep solver asks it,
    decides each norm as a scalar call does, ||r|| == eps included."""
    norms = np.array([0.0, 0.1, 0.25, np.nextafter(0.25, 1.0), 3.0])
    for k in range(7):
        decisions = np.broadcast_to(rule.met(k, norms), norms.shape).tolist()
        assert decisions == [bool(rule.met(k, float(x))) for x in norms]


@st.composite
def _ric_cases(draw):
    """(A, K): Gaussian draws, with raw, unit-norm or equal-norm columns, and
    tie-heavy ones (identity, repeated columns, equal-norm diagonals, the
    sharpness counterexample). With unit-norm columns the pruning bound is
    about sqrt((K - 1) / K) ||M_S - I||_F, which at K = 2 is delta_S itself,
    so there only the rounding guard keeps the pruning exact."""
    kind = draw(st.sampled_from(["gaussian", "unit", "equal", "identity",
                                 "repeated", "diagonal", "sharpness"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    if kind in ("gaussian", "unit", "equal"):
        m = draw(st.integers(1, 10))
        A = rng.standard_normal((m, n)) / math.sqrt(m)
        if kind != "gaussian":
            A /= np.linalg.norm(A, axis=0)
        if kind == "equal":
            A *= draw(st.sampled_from([0.5, 0.9, math.sqrt(1.5), 2.0]))
    elif kind == "identity":
        A = np.eye(n)
    elif kind == "repeated":
        m = draw(st.integers(1, 10))
        B = rng.standard_normal((m, draw(st.integers(1, n))))
        A = B[:, rng.integers(0, B.shape[1], size=n)]
    elif kind == "diagonal":
        A = np.diag(np.full(n, draw(st.sampled_from([0.5, 1.0, math.sqrt(1.5), 2.0]))))
    else:
        k = draw(st.integers(2, 6))
        t = sharp_ric_bound(k) + draw(st.sampled_from([1e-3, 0.05, 0.2]))
        fi = sharpness_probe(k, t)
        assume(fi is not None)
        A = fi.matrix
        n = A.shape[1]
    return A, draw(st.integers(1, min(n, 4)))


@_SETTINGS
@given(_ric_cases(), st.integers(0, 2**16), st.integers(1, 8))
def test_exact_ric_bit_identical_to_unpruned(case, draw, lead):
    A, K = case
    delta, witness, lo, hi = ric_unpruned(A, K)
    reports = [exact_ric(A, K)]
    # every enumeration bounded, with a small leading block, so that subsets
    # and later blocks are pruned in part or in full: one whole block, then
    # streamed with an entry limit that just holds the tails of the first
    # elements (one block per first element), then with a limit below it,
    # which streams by prefixes of length 2 or more once K >= 2
    tails = math.comb(A.shape[1] - 1, K - 1) * (K - 1)
    for limit in (ripcheck._ENTRY_LIMIT, tails, draw % max(tails, 1)):
        with mock.patch.multiple(ripcheck, _ENTRY_LIMIT=limit, _LEAD=lead,
                                 _UNBOUNDED=0):
            reports.append(exact_ric(A, K))
    for r in reports:
        assert r.delta == delta
        assert np.array_equal(r.witness_subset, witness)
        assert r.lambda_min == lo
        assert r.lambda_max == hi
        assert r.subsets_examined == math.comb(A.shape[1], K)
        assert 1 <= r.subsets_eigensolved <= r.subsets_examined


@st.composite
def _ric_stacks(draw):
    """(matrices, K): 1 to 6 matrices with n columns, each drawn on its own:
    unnormalized or unit-norm Gaussians (the offset max |G_ii - 1| matters
    for the former), the identity, repeated columns, the worked example (at
    n = 3), or a column scaled by 1e80, whose bound at K = 1 is +inf."""
    n = draw(st.integers(1, 10))
    K = draw(st.integers(1, min(n, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["raw", "unit", "identity", "repeated", "huge"] + (["worked"] if n == 3 else [])
    matrices = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        m = draw(st.integers(1, 10))
        A = rng.standard_normal((m, n)) / math.sqrt(m)
        if kind == "unit":
            A /= np.linalg.norm(A, axis=0)
        elif kind == "identity":
            A = np.eye(n)
        elif kind == "repeated":
            A = A[:, rng.integers(0, draw(st.integers(1, n)), size=n)]
        elif kind == "huge":
            A[:, rng.integers(n)] *= 1e80
        elif kind == "worked":
            A = lemma1_example_instance(draw(st.sampled_from([0.1, 0.3, 0.5])))[0]
        matrices.append(A)
    return matrices, K


@_SETTINGS
@given(_ric_stacks(), st.sampled_from(["as is", "bounded", "cut"]), st.integers(1, 8))
def test_batched_rics_match_unpruned_and_single_calls(stack, mode, lead):
    # "as is" eigensolves counts up to 64 whole; "bounded" bounds every count
    # with a small leading block; "cut" also caps eigvalsh calls at C(n, K)
    # // K Grams, so a round's Grams of several matrices span several calls
    matrices, K = stack
    count = math.comb(matrices[0].shape[1], K)
    patches = {} if mode == "as is" else {"_UNBOUNDED": 0, "_LEAD": lead}
    if mode == "cut":
        patches["_ENTRY_LIMIT"] = count * K
    with mock.patch.multiple(ripcheck, **patches) if patches else contextlib.nullcontext():
        G = np.concatenate([ripcheck._grams(as_matrix(A)[None]) for A in matrices])
        batched = ripcheck._gram_rics(G, K)
        singles = [exact_ric(A, K) for A in matrices]
    assert len(batched) == len(matrices)
    for A, b, s in zip(matrices, batched, singles):
        delta, witness, lo, hi = ric_unpruned(A, K)
        assert (b.delta, b.lambda_min, b.lambda_max) == (delta, lo, hi)
        assert np.array_equal(b.witness_subset, witness)
        for field in dataclasses.fields(RicReport):
            assert np.array_equal(getattr(b, field.name), getattr(s, field.name))


@st.composite
def _witness_stacks(draw):
    """(G, K): a stack of 1-6 Grams with n columns at order K >= 2, from
    unit-norm or raw Gaussians, some with a column scaled by 1e80. A Gram may
    be moved to I + s (G - I), s set so that its exact RIC lands at 0.5 to 2
    times the bound 1/sqrt(K), so the witness meets both verdicts."""
    n = draw(st.integers(2, 10))
    K = draw(st.integers(2, min(n, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grams = []
    for kind in draw(st.lists(st.sampled_from(["unit", "raw", "huge"]), min_size=1, max_size=6)):
        m = draw(st.integers(1, 12))
        A = rng.standard_normal((m, n)) / math.sqrt(m)
        if kind == "unit":
            A /= np.linalg.norm(A, axis=0)
        elif kind == "huge":
            A[:, rng.integers(n)] *= 1e80
        G = ripcheck._grams(as_matrix(A)[None])
        scale = draw(st.sampled_from([None, 0.5, 0.99, 1.0, 1.01, 2.0]))
        if scale is not None and kind != "huge":
            delta = ripcheck._gram_rics(G, K)[0].delta
            G = np.eye(n) + (scale / math.sqrt(K) / delta) * (G - np.eye(n))
        grams.append(G[0])
    return np.stack(grams), K


@_SETTINGS
@given(_witness_stacks())
def test_witness_is_a_kernel_delta_never_above_the_ric(stack):
    # the witness delta is the one eigvalsh computes for its sorted subset,
    # returned with it, as the kernel would, so it never exceeds the stack's
    # exact RICs
    G, K = stack
    witness, sub = ripcheck._witness_deltas(G, K)
    assert witness.shape == (len(G),) and sub.shape == (len(G), K)
    kernel = ripcheck._gram_rics(G, K)
    for g, S, delta, report in zip(G, sub, witness, kernel):
        assert S.shape == (K,) and np.all(np.diff(S) > 0)
        w = np.linalg.eigvalsh(g[np.ix_(S, S)])
        assert delta == np.maximum(w[-1] - 1.0, 1.0 - w[0])
        assert delta <= report.delta


@st.composite
def _lemma1_cases(draw):
    """(A, signal, delta_k1): a Gaussian A with a K-sparse signal. delta_k1 is
    supplied or None (computed by verify_lemma1); a full-column support, which
    leaves no off-support column, always supplies it."""
    K = draw(st.integers(1, 4))
    full = draw(st.booleans())
    n = K if full else draw(st.integers(K + 1, 8))
    m = draw(st.integers(K + 1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    support = np.sort(rng.choice(n, size=K, replace=False))
    values = rng.standard_normal(K)
    signal = SparseSignal(dimension=n, support=support, values=values)
    if full or draw(st.booleans()):
        delta_k1 = draw(st.sampled_from([0.0, 0.1, 0.4, 0.9]))
    else:
        delta_k1 = None
    return A, signal, delta_k1


def _lemma1_oracle(A, signal, S, delta_k1):
    """lhs and rhs of the selection inequality, one column at a time, with the
    projection from an lstsq solve."""
    omega = signal.support.tolist()
    x = dict(zip(omega, signal.values.tolist()))
    rest = [j for j in omega if j not in S]
    z = sum(x[j] * A[:, j] for j in rest)
    if S:
        coef = np.linalg.lstsq(A[:, S], z, rcond=None)[0]
        z = z - A[:, S] @ coef
    lhs_in = max(abs(float(A[:, j] @ z)) for j in rest)
    lhs_out = max(
        (abs(float(A[:, j] @ z)) for j in range(A.shape[1]) if j not in omega),
        default=0.0,
    )
    r = len(rest)
    x_norm = math.sqrt(sum(x[j] ** 2 for j in rest))
    rhs = (1.0 - math.sqrt(r + 1.0) * delta_k1) * x_norm / math.sqrt(r)
    return lhs_in - lhs_out, rhs


@_SETTINGS
@given(_lemma1_cases())
def test_verify_lemma1_matches_oracle(case):
    A, signal, delta_k1 = case
    if delta_k1 is None:
        expected_delta = exact_ric(A, signal.sparsity + 1).delta
    else:
        expected_delta = delta_k1
    scale = np.linalg.norm(A) ** 2 * np.linalg.norm(signal.values)
    omega = signal.support.tolist()
    for size in range(len(omega)):
        for S in itertools.combinations(omega, size):
            # S in descending order: the check must not depend on its order
            check = verify_lemma1(A, signal, S[::-1], delta_k1=delta_k1)
            lhs, rhs = _lemma1_oracle(A, signal, list(S), expected_delta)
            assert abs(check.lhs - lhs) <= 1e-9 * scale
            assert abs(check.rhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            assert check.holds == (check.lhs >= check.rhs - 1e-10)


def _proper_subsets(K):
    """The proper subsets of range(K) by size, each size in combinations
    order, and their (c, K) membership mask."""
    subsets = [S for size in range(K) for S in itertools.combinations(range(K), size)]
    return subsets, np.array([[j in S for j in range(K)] for S in subsets])


def _kernel_row(A, signal, delta_k1, in_S):
    """lhs, rhs and holds of the selection-inequality kernel on a stack of
    one instance."""
    lhs, rhs, holds = ripcheck._lemma1_sides(as_matrix(A)[None], signal.support[None],
                                             signal.values[None], np.array([delta_k1]), in_S)
    return lhs[0], rhs[0], holds[0]


@_SETTINGS
@given(_lemma1_cases())
def test_lemma1_kernel_matches_oracle_on_every_subset(case):
    # one kernel call on all 2**K - 1 proper subsets; full-column supports,
    # with no off-support column, are among the cases
    A, signal, delta_k1 = case
    if delta_k1 is None:
        delta_k1 = exact_ric(A, signal.sparsity + 1).delta
    omega = signal.support
    subsets, in_S = _proper_subsets(len(omega))
    lhs, rhs, holds = _kernel_row(A, signal, delta_k1, in_S)
    assert lhs.shape == rhs.shape == holds.shape == (len(subsets),)
    scale = np.linalg.norm(A) ** 2 * np.linalg.norm(signal.values)
    for row, S in enumerate(subsets):
        chosen = omega[list(S)].tolist()
        want_lhs, want_rhs = _lemma1_oracle(A, signal, chosen, delta_k1)
        assert abs(lhs[row] - want_lhs) <= 1e-9 * scale
        assert abs(rhs[row] - want_rhs) <= 1e-12 * max(1.0, abs(want_rhs))
        assert holds[row] == (lhs[row] >= rhs[row] - 1e-10)
        # a row does not depend on the rows beside it
        check = verify_lemma1(A, signal, chosen, delta_k1=delta_k1)
        assert (check.lhs, check.rhs, check.holds) == (lhs[row], rhs[row], holds[row])


@_SETTINGS
@given(_lemma1_cases())
def test_lemma1_repeated_support_column_is_singular(case):
    # the first two support columns made equal, and the last two too at
    # K = 4: the first subset holding the first pair is the first rank
    # deficient one, and both entry points raise for it alike
    A, signal, delta_k1 = case
    assume(signal.sparsity >= 3)
    A = A.copy()
    first, second = signal.support[:2]
    A[:, second] = A[:, first]
    if signal.sparsity == 4:
        A[:, signal.support[3]] = 2.0 * A[:, signal.support[2]]
    delta_k1 = 0.1 if delta_k1 is None else delta_k1
    with pytest.raises(SingularSystemError) as single:
        verify_lemma1(A, signal, [first, second], delta_k1=delta_k1)
    with pytest.raises(SingularSystemError) as batched:
        _kernel_row(A, signal, delta_k1, _proper_subsets(signal.sparsity)[1])
    for err in (single.value, batched.value):
        assert err.diagonal_value <= 1e-10 * err.largest_diagonal
    assert (single.value.diagonal_index, single.value.diagonal_value,
            single.value.largest_diagonal) == (
        batched.value.diagonal_index, batched.value.diagonal_value,
        batched.value.largest_diagonal)


@st.composite
def _lemma1_stacks(draw):
    """1-6 instances of one shape (m, n, K), as the lemma sweep stacks them:
    Gaussian matrices in Fortran order with their own supports, values and
    RICs; a full-column support leaves no off-support column. With K >= 3,
    some instances may have their first two support columns made equal."""
    K = draw(st.integers(1, 4))
    n = K if draw(st.booleans()) else draw(st.integers(K + 1, 8))
    m = draw(st.integers(K + 1, 12))
    T = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = [as_matrix(rng.standard_normal((m, n)) / math.sqrt(m)) for _ in range(T)]
    omega = np.array([np.sort(rng.choice(n, size=K, replace=False)) for _ in range(T)])
    values = rng.standard_normal((T, K))
    deltas = np.array([draw(st.sampled_from([0.0, 0.1, 0.4, 0.9])) for _ in range(T)])
    singular = [K >= 3 and draw(st.booleans()) for _ in range(T)]
    for t in np.flatnonzero(singular):
        A[t][:, omega[t, 1]] = A[t][:, omega[t, 0]]
    return np.stack([a.T for a in A]).swapaxes(1, 2), omega, values, deltas, singular


@_SETTINGS
@given(_lemma1_stacks())
def test_stacked_lemma1_kernel_matches_single_instances(stack):
    # the stack's rows are each instance's own, bit for bit; with repeated
    # columns, it raises for the first such instance, as that one alone does
    A, omega, values, deltas, singular = stack
    in_S = _proper_subsets(omega.shape[1])[1]
    if any(singular):
        first = singular.index(True)
        with pytest.raises(SingularSystemError) as batched:
            ripcheck._lemma1_sides(A, omega, values, deltas, in_S)
        with pytest.raises(SingularSystemError) as single:
            ripcheck._lemma1_sides(A[first : first + 1], omega[first : first + 1],
                                   values[first : first + 1], deltas[first : first + 1], in_S)
        assert batched.value.diagonal_value <= 1e-10 * batched.value.largest_diagonal
        assert (batched.value.diagonal_index, batched.value.diagonal_value,
                batched.value.largest_diagonal) == (
            single.value.diagonal_index, single.value.diagonal_value,
            single.value.largest_diagonal)
        return
    lhs, rhs, holds = ripcheck._lemma1_sides(A, omega, values, deltas, in_S)
    assert lhs.shape == rhs.shape == holds.shape == (len(A), len(in_S))
    for t in range(len(A)):
        one = ripcheck._lemma1_sides(A[t : t + 1], omega[t : t + 1], values[t : t + 1],
                                     deltas[t : t + 1], in_S)
        for got, want in zip((lhs[t], rhs[t], holds[t]), one):
            assert got.tobytes() == want[0].tobytes()


_KEYS = st.sampled_from([0, 1, 7, 2**63, 2**64 - 1, 2**64, -1])
_DRAWS = st.one_of(
    st.tuples(st.just("normal"), st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.just("permutation"), st.integers(1, 30)),
    st.tuples(st.just("uniform"), st.integers(0, 7)),
    st.tuples(st.just("integers"), st.integers(0, 7)),
)


@_SETTINGS
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 3.0, 1e150]),
       st.sampled_from([1.0, 1.5, 10.0, 1e100]), st.sampled_from(sensing.SIGN_PATTERNS),
       st.integers(0, 2**64 - 1))
def test_array_signal_draw_is_random_sparse_signals(shape, floor, dynamic_range, pattern, seed):
    # the harnesses' array draw makes random_sparse_signal's Philox calls in
    # its order: the same support and values, bit for bit, and the same
    # generator state after
    n, K = shape
    x = sensing.random_sparse_signal(n, K, floor, dynamic_range, seed, pattern)
    state = sensing._THREAD.rng.bit_generator.state  # the keyed generator's, after
    support, values = sensing._signal_draw(n, K, floor, dynamic_range, seed, pattern)
    assert same_state(sensing._THREAD.rng.bit_generator.state, state)
    assert support.dtype == x.support.dtype and support.tobytes() == x.support.tobytes()
    assert values.dtype == x.values.dtype and values.tobytes() == x.values.tobytes()


def _draw(rng, op):
    kind, *size = op
    if kind == "normal":
        return rng.standard_normal(out=np.empty(size))
    if kind == "permutation":
        return rng.permutation(size[0])
    if kind == "uniform":
        return rng.uniform(1.0, 10.0, size=size)
    return rng.integers(0, 2, size=size)  # 32-bit draws: an odd size buffers one


@_SETTINGS
@given(st.lists(st.tuples(st.one_of(_KEYS, st.integers(-(2**65), 2**65)), st.lists(_DRAWS)),
                min_size=1, max_size=6))
@example([(5, [("integers", 3)]), (5, [("integers", 1)]), (6, [("normal", 2, 3)])])
def test_keyed_generator_streams_match_fresh_generators(steps):
    # keys interleaved, repeated, wrapped past 64 bits; each step re-keys the
    # thread's generator, whatever the last step left buffered (a uint32 from
    # an odd number of bounded integers, a partly read block), and its draws
    # and final state equal numpy's own Philox keyed with the key wrapped to
    # 64 bits
    for key, ops in steps:
        rng = sensing._keyed(key)
        fresh = np.random.Generator(np.random.Philox(key=key % 2**64))
        assert same_state(rng.bit_generator.state, fresh.bit_generator.state)
        for op in ops:
            got, want = _draw(rng, op), _draw(fresh, op)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert same_state(rng.bit_generator.state, fresh.bit_generator.state)
