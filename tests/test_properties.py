"""Property tests for omp_run on random Gaussian problems under either rule.

Hypothesis runs derandomized and without an example database, so the suite
stays deterministic. It still caches the constants it reads from source
files under ``.hypothesis/``, which git ignores.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omplab import StopRule, omp_run

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
