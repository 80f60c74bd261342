"""Independent oracles used to cross-check the library implementations.

These deliberately take different computational routes than the package:
eigenvalue extremes come from inertia-count bisection (Sturm style, via LDL
pivot signs) instead of LAPACK's eigensolver; the RIC oracle loops subsets
and builds each Gram entry by an explicit column dot product; the solver
oracle refits from scratch with lstsq every iteration instead of updating a
factorization. The one exception is ``ric_unpruned``, a bit-identity
reference rather than an independent route: it is the exhaustive RIC loop
without eigensolve pruning.
"""

import itertools

import numpy as np

from omplab.linalg import as_matrix


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
