"""Exact restricted-isometry analysis and the recovery-condition checkers.

The order-K restricted isometry constant (RIC) of A is the smallest delta
with (1 - delta)||x||^2 <= ||A x||^2 <= (1 + delta)||x||^2 over all K-sparse
x; equivalently the worst deviation of any K-column Gram spectrum from 1.
Computing it is NP-hard in general, and the guarantees this package checks
are statements about the exact constant, so :func:`exact_ric` enumerates
every K-subset under a hard budget and refuses (loudly) beyond it. Each
subset's deviation is bounded above by cheap matrix norms, and only subsets
whose bound can still reach the largest deviation found so far are
eigensolved; the result is the same, bit for bit, as eigensolving all of
them. No approximation is ever silently substituted.

The headline sufficient condition for exact support recovery of a K-sparse
signal from y = A x + v with ||v|| <= eps is

    delta_{K+1} < 1 / sqrt(K + 1)          (RIC condition)
    min |x_i|   > 2 eps / (1 - sqrt(K+1) delta_{K+1})   (magnitude condition)

and both strict inequalities are evaluated with zero tolerance: adding slack
here would blur the sharpness experiments, which probe the boundary.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_epsilon, as_matrix, projection_residual

#: Hard ceiling on the number of subsets exact_ric will enumerate.
DEFAULT_SUBSET_BUDGET = 2_000_000

_CHUNK = 65536
_SUBSET_CACHE_LIMIT = 200_000

#: Subsets eigensolved first in each chunk, those with the largest bounds, to
#: set the deviation the other subsets' bounds must reach.
_LEAD = 64

#: The rounding guard of the pruning rule, in units of K * u (see exact_ric).
_GUARD_C = 64


class CapacityError(Exception):
    """Exhaustive enumeration would exceed the subset budget."""

    def __init__(self, n, K, count, budget, context=None):
        self.n = int(n)
        self.K = int(K)
        self.count = int(count)
        self.budget = int(budget)
        message = (
            f"C({self.n}, {self.K}) = {self.count} subsets exceeds the "
            f"enumeration budget {self.budget}"
        )
        if context:
            message = f"{message} ({context})"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class RicReport:
    """Exact order-K RIC plus the witnessing subset's Gram eigenvalue extremes.

    ``subsets_examined`` is C(n, K); ``subsets_eigensolved`` counts the Gram
    matrices handed to the eigensolver, at most that many.
    """

    order: int
    delta: float
    witness_subset: np.ndarray
    lambda_min: float
    lambda_max: float
    subsets_examined: int
    subsets_eigensolved: int


@dataclass(frozen=True)
class ConditionVerdict:
    """Joint verdict on the RIC and minimum-magnitude recovery conditions.

    ``min_mag_bound`` is +inf when the RIC condition fails (the magnitude
    bound's denominator is then non-positive and the bound is undefined).
    """

    ric_ok: bool
    ric_bound: float
    min_mag_ok: bool
    min_mag_bound: float
    overall: bool
    delta: float


class Lemma1Check(NamedTuple):
    """Sides of the greedy-selection inequality; holds means lhs >= rhs - 1e-10."""

    lhs: float
    rhs: float
    holds: bool


@functools.lru_cache(maxsize=64)
def _cached_subsets(n, K):
    """All K-subsets of range(n) as a read-only (C(n, K), K) array, rows in
    lexicographic order."""
    full = _subsets(n, K)
    full.flags.writeable = False
    return full


def _subsets(n, K, lo=0):
    """All K-subsets of range(lo, n) as a (C(n - lo, K), K) array in Fortran
    layout, rows in lexicographic order. Nothing is cached."""
    return np.concatenate(list(_subset_blocks(n, K, lo, math.inf)))


def _subset_blocks(n, K, lo, limit):
    """Yield the K-subsets of range(lo, n) in lexicographic order, in
    Fortran-layout blocks of rows (first, *tail) that share their first
    element.

    The tails of first element f are the (K-1)-subsets of range(f + 1, n):
    the last C(n - f - 1, K - 1) rows of the (K-1)-subsets of
    range(lo + 1, n). That table is built once when it has at most ``limit``
    rows; otherwise each first element's tails are streamed the same way, so
    no block exceeds ``limit`` rows.
    """
    if K == 0:
        yield np.empty((1, 0), dtype=np.intp, order="F")
        return
    table = None
    if math.comb(n - lo - 1, K - 1) <= limit:
        table = _subsets(n, K - 1, lo + 1)
    for first in range(lo, n - K + 1):
        if table is None:
            tails = _subset_blocks(n, K - 1, first + 1, limit)
        else:
            tails = (table[len(table) - math.comb(n - first - 1, K - 1):],)
        for tail in tails:
            block = np.empty((len(tail), K), dtype=np.intp, order="F")
            block[:, 0] = first
            block[:, 1:] = tail
            yield block


def _subset_chunks(n, K, count):
    """Yield (size, K) arrays of K-subsets of range(n) in lexicographic order,
    Fortran layout, at most ``_CHUNK`` rows each. Enumerations of at most
    ``_SUBSET_CACHE_LIMIT`` subsets are cached whole; larger ones are streamed
    one first element at a time and cache nothing."""
    if count <= _SUBSET_CACHE_LIMIT:
        full = _cached_subsets(n, K)
        for start in range(0, count, _CHUNK):
            yield full[start : start + _CHUNK]
        return
    yield from _subset_blocks(n, K, 0, _CHUNK)


def _norm_bounds(D, cols):
    """min(||M_S - I||_inf, ||M_S - I||_F) >= ||M_S - I||_2 for each subset S.

    M_S is the Gram matrix of S as ``eigvalsh`` reads it: the lower triangle
    of G_S, mirrored. D is the (n, n) array |G - I| for the whole Gram matrix
    G; only entries on and below its diagonal are read. ``cols`` is a
    (K, size) array whose columns are sorted subsets, so entry (a, b) of
    |M_S - I| with a <= b is D[S_b, S_a]. Each of the K(K + 1)/2 entries is
    gathered for the whole chunk with one flat ``take`` and added to the
    running sums of rows a and b, as is its square; the Frobenius norm then
    sums the K row sums of squares. No (size, K, K) array is built.
    """
    n = D.shape[0]
    rows = D.take(cols * (n + 1))  # the diagonal entries |G_ss - 1|
    squares = rows * rows
    flat = cols * n
    for b in range(1, len(cols)):
        for a in range(b):
            d = D.take(flat[b] + cols[a])
            rows[a] += d
            rows[b] += d
            d *= d
            squares[a] += d
            squares[b] += d
    return np.minimum(rows.max(axis=0), np.sqrt(squares.sum(axis=0)))


def exact_ric(A, K, budget=DEFAULT_SUBSET_BUDGET):
    """Exact order-K RIC of A by exhaustive subset enumeration.

    Every K-subset S is enumerated and its deviation delta_S = ||G_S - I||_2
    bounded above by b_S = min(||G_S - I||_inf, ||G_S - I||_F), taken on the
    lower triangle of G_S that ``eigvalsh`` reads. Subsets come in chunks of
    at most ``_CHUNK`` rows; a streamed enumeration gives each first element
    its own chunks. The bounds of a chunk are built from K(K + 1)/2 gathered
    vectors of |G - I| entries, one per position pair (``_norm_bounds``); a
    Gram matrix G_S is gathered only when S is eigensolved. Per chunk, the
    ``_LEAD`` largest bounds are eigensolved first (one batched LAPACK
    ``eigvalsh`` call), which sets the incumbent: the largest delta found so
    far, carried across chunks. The other subsets are eigensolved only if
    b_S + g_S >= incumbent, with the rounding guard g_S = c K u (1 + b_S),
    c = ``_GUARD_C`` = 64 and u = 2**-53. A chunk where no subset reaches the
    incumbent is skipped. Each subset is eigensolved at most once.

    The guard makes the pruning exact for the computed values, not just the
    true ones. Rounding in b_S is at most about (K + 3) u b_S: |G - I| costs
    one subtraction on the diagonal; each Gershgorin row is a K-term sum of
    |d|; the Frobenius norm is the square root of a K-term sum, over rows, of
    K-term row sums of d**2, so its 2K roundings (squares included) are
    halved by the square root, which adds one more. The symmetric
    eigensolver is backward stable: its eigenvalues of G_S are off by at
    most p(K) u ||G_S||_2 <= p(K) u (1 + delta_S), with p a modest function
    of K (about K in practice), and forming delta_S from them adds one more
    rounding. So a computed delta_S exceeds b_S by less than
    (p(K) + K + 5) u (1 + b_S), which c K u (1 + b_S) covers for p(K) up to
    about 58 K. A pruned subset's computed delta is therefore below a delta
    that was computed, so it can be neither the maximum nor tied with it,
    and the result is bit-identical to eigensolving every subset.

    Ties on delta are broken by the lexicographically smallest witness subset
    (enumeration is lexicographic, the argmax of a chunk takes its smallest
    row, and only strictly larger deltas replace the incumbent).

    Args:
        A: the sensing matrix.
        K: subset order, 1 <= K <= A.shape[1].
        budget: refuse enumerations beyond this many subsets.

    Raises:
        ValueError: K out of range, ``budget`` below 1, or A^T A overflows
            (A is finite but its Gram matrix is not).
        CapacityError: C(n, K) exceeds ``budget``.
    """
    A = as_matrix(A)
    n = A.shape[1]
    if not (1 <= K <= n):
        raise ValueError(f"order must lie in [1, {n}], got {K}")
    if budget < 1:
        raise ValueError(f"subset budget must be positive, got {budget}")
    count = math.comb(n, K)
    if count > budget:
        raise CapacityError(n, K, count, budget)
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.T @ A
    if not np.isfinite(G).all():
        raise ValueError("A^T A overflows: the Gram matrix has non-finite entries")
    guard = _GUARD_C * K * np.finfo(float).eps / 2
    best_delta = -math.inf
    best_subset = None
    best_lo = best_hi = None
    solved = 0
    D = None  # |G - I|, built at the first chunk whose bounds are needed
    for chunk in _subset_chunks(n, K, count):
        if best_subset is None and len(chunk) <= _LEAD:
            # no incumbent and a short chunk: every row is eigensolved anyway
            reach = np.full(len(chunk), np.inf)
        else:
            if D is None:
                D = np.abs(G - np.eye(n))
            bound = _norm_bounds(D, chunk.T)
            reach = bound + guard * (1.0 + bound)
        todo = reach >= best_delta
        if not todo.any():
            continue
        rows = np.flatnonzero(todo)
        if rows.size > _LEAD:
            rows = rows[np.argpartition(bound[rows], -_LEAD)[-_LEAD:]]
        deltas = np.full(len(chunk), -np.inf)
        lo = np.empty(len(chunk))
        hi = np.empty(len(chunk))
        while rows.size:
            sub = chunk[rows]
            w = np.linalg.eigvalsh(G[sub[:, :, None], sub[:, None, :]])
            lo[rows], hi[rows] = w[:, 0], w[:, -1]
            deltas[rows] = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
            solved += rows.size
            todo[rows] = False
            todo &= reach >= max(best_delta, deltas.max())
            rows = np.flatnonzero(todo)
        i = int(np.argmax(deltas))
        if deltas[i] > best_delta:
            best_delta = float(deltas[i])
            best_subset = chunk[i].copy()
            best_lo, best_hi = float(lo[i]), float(hi[i])
    return RicReport(
        order=int(K),
        delta=best_delta,
        witness_subset=best_subset,
        lambda_min=best_lo,
        lambda_max=best_hi,
        subsets_examined=count,
        subsets_eigensolved=solved,
    )


def sharp_ric_bound(K):
    """The sharp RIC threshold 1 / sqrt(K + 1) for K-sparse recovery."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return 1.0 / math.sqrt(K + 1.0)


def min_magnitude_bound(delta_k1, K, epsilon):
    """Magnitude floor 2 eps / (1 - sqrt(K+1) delta_{K+1}).

    Defined only for delta_k1 in [0, 1/sqrt(K+1)); outside that range the
    denominator is non-positive and a domain error is raised.
    """
    bound = sharp_ric_bound(K)  # rejects K < 1
    as_epsilon(epsilon)
    if not (0.0 <= delta_k1 < bound):
        raise ValueError(
            f"delta_k1 = {delta_k1} outside [0, 1/sqrt({K + 1})); "
            "the magnitude bound is undefined there"
        )
    return 2.0 * epsilon / (1.0 - math.sqrt(K + 1.0) * delta_k1)


def check_theorem1_conditions(A, signal, epsilon):
    """Evaluate both recovery conditions for (A, x, eps) with exact RIC.

    Strict inequalities, zero tolerance. Returns a ConditionVerdict; an RIC
    enumeration beyond the default subset budget propagates as CapacityError.
    """
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError("matrix columns must match signal dimension")
    K = signal.sparsity
    if K < 1:
        raise ValueError("signal must have nonempty support")
    if K + 1 > A.shape[1]:
        raise ValueError("need at least K+1 columns to check order K+1")
    as_epsilon(epsilon)
    report = exact_ric(A, K + 1)
    bound = sharp_ric_bound(K)
    ric_ok = report.delta < bound
    if ric_ok:
        mm_bound = min_magnitude_bound(report.delta, K, epsilon)
        min_mag_ok = signal.min_magnitude() > mm_bound
    else:
        mm_bound = math.inf
        min_mag_ok = False
    return ConditionVerdict(
        ric_ok=bool(ric_ok),
        ric_bound=bound,
        min_mag_ok=bool(min_mag_ok),
        min_mag_bound=mm_bound,
        overall=bool(ric_ok and min_mag_ok),
        delta=report.delta,
    )


def verify_lemma1(A, signal, S, delta_k1=None):
    """Numerically check the selection inequality behind support recovery.

    For a proper subset S of the support Omega of x, with P the orthogonal
    complement projector of span(A_S) and z = A_{Omega\\S} x_{Omega\\S}:

        || A_{Omega\\S}^T P z ||_inf  -  || A_{Omega^c}^T P z ||_inf
            >=  (1 - sqrt(r + 1) * delta_{K+1}) * || x_{Omega\\S} || / sqrt(r)

    where r = |Omega| - |S| and delta_{K+1} is the exact RIC at order
    |Omega| + 1 (computed here unless supplied by the caller). The check is
    numerical only; no tightness claim is made.

    Returns:
        Lemma1Check(lhs, rhs, holds) with holds = (lhs >= rhs - 1e-10).
    """
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError("matrix columns must match signal dimension")
    omega = signal.support
    given = np.asarray(list(S), dtype=np.intp)
    S = np.unique(given)
    if S.size != given.size:
        raise ValueError("S contains duplicates")
    # omega and S are sorted, so S is a subset iff omega holds each S[i] at
    # its insertion point
    pos = np.searchsorted(omega, S)
    if np.any(pos == omega.size) or not np.array_equal(omega[pos], S):
        raise ValueError("S must be a subset of the signal support")
    if S.size >= omega.size:
        raise ValueError("S must be a proper subset of the support")
    rest_mask = np.ones(omega.size, dtype=bool)
    rest_mask[pos] = False
    rest = omega[rest_mask]
    x_rest = signal.values[rest_mask]
    if delta_k1 is None:
        if omega.size + 1 > A.shape[1]:
            raise ValueError("need |support|+1 <= columns to compute the RIC")
        delta_k1 = exact_ric(A, omega.size + 1).delta
    A_rest = A[:, rest]
    p = projection_residual(A[:, S], A_rest @ x_rest)
    lhs_in = float(np.abs(A_rest.T @ p).max())
    lhs_out = float(np.abs(np.delete(A, omega, axis=1).T @ p).max(initial=0.0))
    lhs = lhs_in - lhs_out
    r = omega.size - S.size
    rhs = (
        (1.0 - math.sqrt(r + 1.0) * delta_k1)
        * float(np.linalg.norm(x_rest))
        / math.sqrt(r)
    )
    return Lemma1Check(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-10))


# ---------------------------------------------------------------------------
# Comparison against the strongest previously published sufficient condition
# (the Chang-Wu bounds), which this package's condition must dominate.
# ---------------------------------------------------------------------------


def chang_wu_ric_bound(K):
    """Prior best RIC threshold (sqrt(4K+1) - 1) / (2K)."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return (math.sqrt(4.0 * K + 1.0) - 1.0) / (2.0 * K)


def chang_wu_min_mag_bound(delta, K, epsilon):
    """Prior magnitude floor; +inf when its denominator is non-positive."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    as_epsilon(epsilon)
    denom = 1.0 - delta - math.sqrt(1.0 - delta) * math.sqrt(K) * delta
    if denom <= 0.0:
        return math.inf
    return (math.sqrt(1.0 + delta) + 1.0) * epsilon / denom


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side of this package's recovery condition and the prior best.

    ``ric_bound_weaker`` records that the prior RIC threshold is strictly
    below ours (so our condition admits more matrices). The magnitude
    verdicts compare the floors the two conditions impose; ours is never
    larger, strictly smaller once delta > 0. Undefined bounds are +inf.
    """

    k: int
    delta_k1: float
    epsilon: float
    chang_wu_ric_bound: float
    sharp_ric_bound: float
    ric_bound_weaker: bool
    chang_wu_min_mag: float
    chang_wu_min_mag_defined: bool
    sharp_min_mag: float
    sharp_min_mag_defined: bool
    min_mag_weaker: bool
    min_mag_strictly_weaker: bool


def comparison_report(K, delta_k1, epsilon):
    """Compare both recovery conditions at (K, delta_{K+1}, eps)."""
    cw_ric = chang_wu_ric_bound(K)  # both bound functions reject K < 1
    our_ric = sharp_ric_bound(K)
    cw_mm = chang_wu_min_mag_bound(delta_k1, K, epsilon)  # checks delta, eps
    if delta_k1 < our_ric:
        our_mm = min_magnitude_bound(delta_k1, K, epsilon)
        our_defined = True
    else:
        our_mm = math.inf
        our_defined = False
    cw_defined = math.isfinite(cw_mm)
    weaker = our_defined and cw_mm >= our_mm
    strictly = our_defined and cw_mm > our_mm
    return ComparisonReport(
        k=int(K),
        delta_k1=float(delta_k1),
        epsilon=float(epsilon),
        chang_wu_ric_bound=cw_ric,
        sharp_ric_bound=our_ric,
        ric_bound_weaker=bool(cw_ric < our_ric),
        chang_wu_min_mag=cw_mm,
        chang_wu_min_mag_defined=bool(cw_defined),
        sharp_min_mag=our_mm,
        sharp_min_mag_defined=bool(our_defined),
        min_mag_weaker=bool(weaker),
        min_mag_strictly_weaker=bool(strictly),
    )


def ric_report_json(report):
    """Stable key/value rendering of a RicReport."""
    return json.dumps(
        {
            "order": report.order,
            "delta": report.delta,
            "witness": [int(i) for i in report.witness_subset],
            "lambda_min": report.lambda_min,
            "lambda_max": report.lambda_max,
            "subsets_examined": report.subsets_examined,
        },
        indent=2,
    )


def condition_verdict_json(verdict):
    """Stable key/value rendering of a ConditionVerdict (keys in field order)."""
    return json.dumps(asdict(verdict), indent=2)
