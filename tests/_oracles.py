"""Independent oracles used to cross-check the library implementations.

These deliberately take different computational routes than the package:
eigenvalue extremes come from inertia-count bisection (Sturm style, via LDL
pivot signs) instead of LAPACK's eigensolver; the RIC oracle loops subsets
and builds each Gram entry by an explicit column dot product; the solver
oracle refits from scratch with lstsq every iteration instead of updating a
factorization. Two exceptions are bit-identity references rather than
independent routes: ``ric_unpruned`` is the exhaustive RIC loop without
eigensolve pruning, ``omp_run_numpy_loop`` is the solver loop written with
numpy's norm and an explicit rank test on the diagonal of R,
``gaussian_matrix_one_draw`` is the Gaussian draw as one C-order matrix
normalized in place and copied to Fortran order, and
``run_unit_one_at_a_time`` is a harness work unit with every trial drawn,
RIC-checked and solved alone. ``same_state`` compares bit-generator states.
"""

import itertools
import math

import numpy as np

from omplab import experiments
from omplab.linalg import DEFAULT_RANK_TOL, as_matrix, as_vector
from omplab.omp import (
    STOP_MAX_ITERATIONS,
    OmpIterationRecord,
    OmpResult,
    omp_run,
)
from omplab.ripcheck import (
    _grams,
    _magnitude_floor,
    _witness_deltas,
    exact_ric,
    sharp_ric_bound,
)
from omplab.sensing import (
    SparseSignal,
    gaussian_sensing_matrix,
    lemma1_example_instance,
    philox_generator,
)


def same_state(a, b):
    """Whether two ``bit_generator.state`` dicts are equal, entry by entry,
    with the same types and dtypes."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class ZeroColumn:
    """A generator whose normals are 1, except column 1, which is 0."""

    def standard_normal(self, size=None, out=None):
        out = np.ones(size) if out is None else out
        out[...] = 1.0
        out[:, 1] = 0.0
        return out


class ZeroNoise:
    """The Philox generator of a seed, except that its first normals drawn by
    size, as a noise direction is, are all 0, so code that redraws moves on
    (matrix draws fill ``out``)."""

    def __init__(self, seed):
        self._rng = philox_generator(seed)
        self._zero = True

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size=None, out=None):
        if out is None and self._zero:
            self._zero = False
            return np.zeros(size)
        return self._rng.standard_normal(size, out=out)


class _ZeroPivot(Exception):
    pass


def inertia_below(G, x):
    """Count eigenvalues of symmetric G strictly below x via LDL pivot signs."""
    d = G.shape[0]
    M = G - x * np.eye(d)
    neg = 0
    for k in range(d):
        piv = M[k, k]
        if piv == 0.0:
            raise _ZeroPivot
        if piv < 0.0:
            neg += 1
        if k + 1 < d:
            col = M[k + 1 :, k].copy()
            M[k + 1 :, k + 1 :] -= np.outer(col, col) / piv
    return neg


def _count(G, x):
    shift = 0.0
    for _ in range(60):
        try:
            return inertia_below(G, x + shift)
        except _ZeroPivot:
            shift = 1e-13 if shift == 0.0 else shift * 4.0
    raise AssertionError("could not evade zero pivots")


def eig_extremes_bisect(G, tol=1e-11):
    """Extreme eigenvalues by bisection on the inertia count.

    Brackets come from Gershgorin discs; each bisection step queries how many
    eigenvalues sit strictly below the midpoint.
    """
    G = np.asarray(G, dtype=float)
    d = G.shape[0]
    radii = np.abs(G).sum(axis=1) - np.abs(np.diag(G))
    lo = float((np.diag(G) - radii).min()) - 1.0
    hi = float((np.diag(G) + radii).max()) + 1.0

    def bisect(target):
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if _count(G, mid) >= target:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)

    return bisect(1), bisect(d)


def ric_double_loop(A, K, tol=1e-11):
    """Exact RIC by an explicit loop over subsets with per-entry Grams."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    best = -np.inf
    for S in itertools.combinations(range(n), K):
        gram = np.empty((K, K))
        for a, i in enumerate(S):
            for b, j in enumerate(S):
                gram[a, b] = float(A[:, i] @ A[:, j])
        lmin, lmax = eig_extremes_bisect(gram, tol)
        best = max(best, lmax - 1.0, 1.0 - lmin)
    return best


def ric_unpruned(A, K):
    """(delta, witness, lambda_min, lambda_max) from eigensolving every
    K-subset Gram, as exact_ric did before it pruned eigensolves: the same
    Gram and the same LAPACK call, so it must agree bit for bit. The first
    maximal subset in lexicographic order is the witness."""
    A = as_matrix(A)
    G = A.T @ A
    subsets = np.array(list(itertools.combinations(range(A.shape[1]), K)))
    w = np.linalg.eigvalsh(G[subsets[:, :, None], subsets[:, None, :]])
    lo, hi = w[:, 0], w[:, -1]
    deltas = np.maximum(hi - 1.0, 1.0 - lo)
    i = int(np.argmax(deltas))
    return float(deltas[i]), subsets[i], float(lo[i]), float(hi[i])


def normal_equations_ls(A, y):
    """Least squares the discouraged way; test oracle only."""
    return np.linalg.solve(A.T @ A, A.T @ y)


def omp_reference(A, y, max_iter=None, eps=None):
    """From-scratch greedy solver: full lstsq refit every iteration.

    Returns (selection_order, coefficients, residual_norms) where
    residual_norms[k] is the norm after iteration k (index 0 is ||y||).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = A.shape
    budget = min(m, n)
    sel = []
    sol = np.zeros(0)
    r = y.copy()
    norms = [float(np.linalg.norm(r))]
    if eps is not None and norms[0] <= eps:
        return sel, sol, norms
    while True:
        if max_iter is not None and len(sel) == max_iter:
            break
        if len(sel) == budget:
            break
        corr = np.abs(A.T @ r)
        corr[sel] = -1.0
        j = int(np.argmax(corr))
        sel.append(j)
        sol, *_ = np.linalg.lstsq(A[:, sel], y, rcond=None)
        r = y - A[:, sel] @ sol
        norms.append(float(np.linalg.norm(r)))
        if eps is not None and norms[-1] <= eps:
            break
    return sel, sol, norms


def omp_run_numpy_loop(A, y, rule, true_support=None):
    """``omp_run`` with np.linalg.norm for every norm and the rank test read
    off np.diag(R) each iteration, and the off-support correlation taken by
    indexing; the package loop must match it bit for bit (same trace
    records, same estimate, same stop cause)."""
    A = as_matrix(A)
    y = as_vector(y, "y")
    m, n = A.shape
    budget = min(m, n)
    if rule.kind == STOP_MAX_ITERATIONS and rule.k > budget:
        raise ValueError("max_iterations exceeds min(rows, cols)")
    truth = off = None
    if true_support is not None:
        truth = set(int(i) for i in np.asarray(true_support).reshape(-1))
        off = np.array([j not in truth for j in range(n)], dtype=bool)
    chosen = []
    records = []
    selected = np.zeros(n, dtype=bool)
    Q = np.zeros((m, budget), order="F")
    R = np.zeros((budget, budget))
    qty = np.zeros(budget)
    r = y.copy()
    rnorm = float(np.linalg.norm(r))
    k = 0
    while True:
        if rule.met(k, rnorm):
            stopped_by = "rule_met"
            break
        if k == budget:
            stopped_by = "budget_exhausted"
            break
        corr = np.abs(A.T @ r)
        corr[selected] = -1.0
        j = int(np.argmax(corr))
        winning = float(corr[j])
        best_off = None
        if off is not None:
            best_off = float(np.max(corr[off & ~selected], initial=0.0))
        col = A[:, j]
        w = Q[:, :k].T @ col
        u = col - Q[:, :k] @ w
        w2 = Q[:, :k].T @ u
        u = u - Q[:, :k] @ w2
        rho = float(np.linalg.norm(u))
        diag = np.append(np.abs(np.diag(R[:k, :k])), rho)
        if rho == 0.0 or diag.min() <= DEFAULT_RANK_TOL * diag.max():
            stopped_by = "rank_failure"
            break
        Q[:, k] = u / rho
        R[:k, k] = w + w2
        R[k, k] = rho
        qty[k] = float(Q[:, k] @ y)
        r = y - Q[:, : k + 1] @ qty[: k + 1]
        rnorm = float(np.linalg.norm(r))
        chosen.append(j)
        selected[j] = True
        k += 1
        records.append(OmpIterationRecord(
            iteration=k, selected_index=j, correlation=winning,
            residual_norm=rnorm,
            in_true_support=None if truth is None else (j in truth),
            off_support_correlation=best_off,
        ))
    if k:
        beta = np.linalg.solve(R[:k, :k], qty[:k])
        order = np.argsort(chosen)
        support = np.asarray(chosen, dtype=np.intp)[order]
        values = np.asarray(beta)[order]
        nonzero = values != 0.0
        estimate = SparseSignal(
            dimension=n, support=support[nonzero], values=values[nonzero]
        )
    else:
        support = np.zeros(0, dtype=np.intp)
        estimate = SparseSignal(dimension=n, support=[], values=[])
    return OmpResult(recovered_support=support, estimate=estimate,
                     trace=tuple(records), stopped_by=stopped_by)


def best_support_exhaustive(A, y, k):
    """The k-subset with the smallest least-squares residual, by enumeration."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    best = None
    best_res = np.inf
    for S in itertools.combinations(range(n), k):
        sol, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
        res = float(np.linalg.norm(y - A[:, S] @ sol))
        if res < best_res:
            best_res = res
            best = S
    return np.asarray(best, dtype=np.intp), best_res


def gaussian_matrix_one_draw(m, n, seed, normalize_columns=True):
    """``gaussian_sensing_matrix`` drawn as one C-order matrix, scaled and
    normalized in place with np.linalg.norm, then copied to Fortran order;
    the stacked draw must match it bit for bit."""
    A = philox_generator(seed).standard_normal((m, n))
    A /= math.sqrt(m)
    if normalize_columns:
        norms = np.linalg.norm(A, axis=0)
        if np.any(norms == 0.0):
            raise ArithmeticError("drew a zero column; reseed")
        A /= norms
    return np.asfortranarray(A)


def run_unit_one_at_a_time(tasks, witness=True):
    """``experiments._run_unit`` one trial at a time: each matrix drawn
    alone by ``gaussian_sensing_matrix`` (or as its ``lemma1_family`` 3x3),
    a RIC-checked trial certified alone: settled where its own greedy
    witness (``_witness_deltas`` on its Gram alone, and only if ``witness``)
    reaches 1/sqrt(K + 1), else its delta and witness subset from its own
    ``exact_ric``; its floor from ``_magnitude_floor``. Each solved trial
    runs alone by ``omp_run``; a theorem1 trial whose RIC condition fails
    skips. Every field of each record is built here from those results, the
    delta kept only where the floor is finite. The stacked unit must match
    it record for record."""
    outcomes = []
    for task in tasks:
        config = task.config
        seed = experiments._derived_seed(task.trial_seed, experiments._MATRIX_TAG)
        if config.ensemble == "lemma1_family":
            rng = philox_generator(seed)
            delta = config.lemma1_deltas[int(rng.integers(len(config.lemma1_deltas)))]
            A = lemma1_example_instance(delta)[0]
        else:
            A = gaussian_sensing_matrix(
                task.m, task.n, seed,
                normalize_columns=config.ensemble == "gaussian_normalized")
        certified = experiments._TrialOutcome()
        if task.check_conditions:
            deltas, subsets = _witness_deltas(_grams(A[None]), task.k + 1)
            settled = witness and bool(deltas[0] >= sharp_ric_bound(task.k))
            if settled:
                ric, subset = float(deltas[0]), subsets[0]
            else:
                report = exact_ric(A, task.k + 1)
                ric, subset = report.delta, report.witness_subset
            floor = _magnitude_floor(ric, task.k, task.epsilon)
            certified = experiments._TrialOutcome(
                delta=ric if floor < math.inf else None, floor=floor,
                witness=tuple(int(i) for i in subset), settled=settled)
        if task.mode == "theorem1" and certified.floor == math.inf:
            outcomes.append(certified)
            continue
        support, values, _, y = experiments._build_trial(task, A, certified.floor)
        result = omp_run(A, y, experiments._stop_rule(task), true_support=support)
        outcomes.append(experiments._TrialOutcome(
            held=float(np.abs(values).min()) > certified.floor,
            attempted=True,
            success=result.recovered_support.tolist() == support.tolist(),
            iterations=result.iterations,
            rank_failure=result.stopped_by == "rank_failure",
            delta=certified.delta,
            floor=certified.floor,
            witness=certified.witness,
            settled=certified.settled,
        ))
    return outcomes
