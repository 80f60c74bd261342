"""Property tests for omp_run on random Gaussian problems under either rule,
for exact_ric against the unpruned reference on tie-heavy matrices, and for
verify_lemma1 against an explicit oracle.

Hypothesis runs derandomized and without an example database, so the suite
stays deterministic. It still caches the constants it reads from source
files under ``.hypothesis/``, which git ignores.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omplab import (
    SparseSignal,
    StopRule,
    exact_ric,
    omp_run,
    ripcheck,
    sharp_ric_bound,
    verify_lemma1,
)
from omplab.experiments import sharpness_probe

from _oracles import ric_unpruned

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
