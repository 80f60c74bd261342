"""Exact restricted-isometry analysis and the recovery-condition checkers.

The order-K restricted isometry constant (RIC) of A is the smallest delta
with (1 - delta)||x||^2 <= ||A x||^2 <= (1 + delta)||x||^2 over all K-sparse
x; equivalently the worst deviation of any K-column Gram spectrum from 1.
Computing it is NP-hard in general, and the guarantees this package checks
are statements about the exact constant, so :func:`exact_ric` enumerates
every K-subset under a hard budget and refuses (loudly) beyond it. Each
subset's deviation is bounded above by the trace bound of Wolkowicz and
Styan on a Frobenius norm built on its tail's, and only subsets whose bound
can still reach the largest deviation found so far are eigensolved; the
result is the same, bit for bit, as eigensolving all of them. No
approximation is ever silently substituted.

The headline sufficient condition for exact support recovery of a K-sparse
signal from y = A x + v with ||v|| <= eps is

    delta_{K+1} < 1 / sqrt(K + 1)          (RIC condition)
    min |x_i|   > 2 eps / (1 - sqrt(K+1) delta_{K+1})   (magnitude condition)

and both strict inequalities are evaluated with zero tolerance: adding slack
here would blur the sharpness experiments, which probe the boundary.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _as_indices, _least_squares, as_epsilon, as_matrix

#: Hard ceiling on the number of subsets exact_ric will enumerate.
DEFAULT_SUBSET_BUDGET = 2_000_000

#: Most entries (rows times columns) in a subset table or a batch of Grams.
_ENTRY_LIMIT = 500_000

#: Enumerations of at most this many subsets are eigensolved whole, without
#: bounds: bounding so few costs more than it saves.
_UNBOUNDED = 64

#: Subsets eigensolved first in each block, those with the largest bounds, to
#: set the deviation the other subsets' bounds must reach.
_LEAD = 16

#: The rounding guard of the pruning rule, in units of K * u (see exact_ric).
_GUARD_C = 64

_U = np.finfo(float).eps / 2  # the unit roundoff u


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

    ``subsets_examined`` is C(n, K); ``subsets_eigensolved`` counts the
    subsets whose Grams were eigensolved to find delta, at most that many
    (the witness's second eigensolve, for its extremes, is not counted).
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
def _cached_table(n, k):
    """_subset_table(n, k), read-only. At most 64 tables are held, each
    within ``_ENTRY_LIMIT`` entries plus its tail index: whole enumerations'
    tables and streamed ones' lower tables alike (see _bounded_blocks)."""
    table, tails = _subset_table(n, k)
    for array in (table, *tails):
        array.flags.writeable = False
    return table, tails


def _subset_table(n, k):
    """All k-subsets of range(n) as a (C(n, k), k) array in Fortran layout,
    rows in lexicographic order, built in place level by level, and the tail
    index of each level j = 2..k: the row of level j - 1 that is the tail of
    each of its rows. Level j, the j-subsets of range(k - j, n), is the first
    C(n - k + j, j) rows of the last j columns; its rows (f, *tail) take the
    last C(n - f - 1, j - 1) rows of level j - 1 as tails, one run per f."""
    table = np.empty((math.comb(n, k), k), dtype=np.intp, order="F")
    tails = []
    rows = 1  # level 0: one empty subset
    for j in range(1, k + 1):
        below, rows = rows, 0
        tail = np.empty(math.comb(n - k + j, j), dtype=np.intp)
        for f in range(k - j, n - j + 1):
            c = math.comb(n - f - 1, j - 1)
            table[rows : rows + c, k - j] = f
            if rows:  # the first run's tails are all of level j - 1, in place
                table[rows : rows + c, k - j + 1 :] = table[below - c : below, k - j + 1 :]
            tail[rows : rows + c] = np.arange(below - c, below)
            rows += c
        tails.append(tail)
    return table, tuple(tails[1:])


def _pair_squares(G):
    """P[..., i, j] = |G_ji - I_ji|**2, doubled off the diagonal, for i <= j,
    of each Gram of the stack G: the terms of ||M_S - I||_F**2, M_S the lower
    triangle of G_S mirrored. A Gram entry above about 1e154 squares to +inf,
    a bound that prunes nothing, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        P = np.square(np.swapaxes(G, -1, -2), order="C")
        P *= 2.0
        diagonal = P.reshape(P.shape[:-2] + (-1,))[..., :: G.shape[-1] + 1]
        diagonal[...] = np.square(G.diagonal(axis1=-2, axis2=-1) - 1.0)
    return P


def _table_squares(P, table, tails):
    """||M_S - I||_F**2 of each row S of ``table``, per matrix of the stack
    P, from one _subset_table pair, level by level: a row (f, *tail) adds
    P[f, f] and P[f, tail], then its tail's squared norm, the row ``tails``
    names in the level below, so a term passes through at most k additions.
    Finite terms near the float maximum may sum to +inf, a bound that prunes
    nothing, so the overflow is not reported."""
    n, k = P.shape[-1], table.shape[1]
    if k == 0:
        return np.zeros(P.shape[:-2] + (1,))
    flat = P.reshape(P.shape[:-2] + (n * n,))
    squares = P.diagonal(axis1=-2, axis2=-1)[..., k - 1 :]
    with np.errstate(over="ignore"):
        for j, tail in zip(range(2, k + 1), tails):
            level = table[: math.comb(n - k + j, j), k - j :]
            row = level[:, 0] * n
            new = flat.take(row + level[:, 0], axis=-1)
            for column in level[:, 1:].T:
                new += flat.take(row + column, axis=-1)
            new += squares.take(tail, axis=-1)
            squares = new
    return squares


def _bounded_blocks(G, K, count, best):
    """Yield (prefix, tails, bounds): the K-subsets (*prefix, *(tail + L))
    of range(n) in lexicographic order, L = len(prefix), and their bounds
    b_S (see exact_ric), one row of bounds per Gram of the stack G: tails
    are relative to their prefix. Within ``_ENTRY_LIMIT``, one block, the
    cached table and its tail index, with an empty prefix; beyond it, for a
    stack of one Gram, one per prefix of the shortest length L whose tails,
    the (K - L)-subsets of range(n - L), fit: one cached table, read-only
    and within the same limit, so memory stays bounded whatever K is. A
    streamed block is built once its predecessors are consumed, and keeps
    only the tails whose bounds can reach the incumbent ``best[0]`` as it
    then stands (see exact_ric): a block none of whose tails can is not
    yielded. A prefix's sums past the float maximum are +inf bounds,
    unreported, in an np.errstate that closes before each ``yield``: a
    waiting generator would carry it into its consumer."""
    n = G.shape[-1]
    offset = np.abs(G.diagonal(axis1=-2, axis2=-1) - 1.0).max(axis=-1, keepdims=True)
    spread = math.sqrt((K - 1) / K)

    def bounds(squares):  # at K = 1, F_S is delta_S itself, and may be +inf
        if K == 1:
            return np.sqrt(squares)
        b = np.sqrt(squares, out=squares)
        trace = spread * b
        trace += offset
        return np.minimum(b, trace, out=b)

    if count * K <= _ENTRY_LIMIT:
        table, tails = _cached_table(n, K)
        squares = _table_squares(_pair_squares(G), table, tails)
        yield np.empty(0, dtype=np.intp), table, bounds(squares)
        return
    P = np.triu(_pair_squares(G[0]))  # a prefix's row sums read below the diagonal
    L = 1
    while math.comb(n - L, K - L) * (K - L) > _ENTRY_LIMIT:
        L += 1
    lower, lower_tails = _cached_table(n - L, K - L)
    lower_squares = _table_squares(P[L:, L:], lower, lower_tails)
    guard = float(_GUARD_C * K * _U)  # Python floats: inf - inf is NaN, unreported
    for prefix in itertools.combinations(range(n - K + L), L):
        start = len(lower) - math.comb(n - prefix[-1] - 1, K - L)
        prefix = np.array(prefix, dtype=np.intp)
        rows = slice(start, None)
        # F*, the least F_S whose bound reaches the incumbent lowered by the
        # guard, the filter's margin (see exact_ric); -inf in block 0
        need = (float(best[0]) * (1.0 - guard) - guard) / (1.0 + guard)
        if K > 1:
            need = max(need, (need - float(offset[0, 0])) / spread)
        with np.errstate(over="ignore"):
            col = P[prefix].sum(axis=0)  # what the prefix adds to each element
            head = float(col[prefix].sum())
            if need > 0.0:
                tau = need * need
                # the K - L largest terms the prefix adds past its last element
                top = float(np.sort(col[prefix[-1] + 1 :])[::-1][: K - L].sum())
                limit = tau - head - top
                if 0.0 < limit and 2.0 * tau < math.inf:
                    rows = start + np.flatnonzero(lower_squares[start:] >= limit)
                    if not rows.size:
                        continue
            tails = lower[rows]
            squares = np.full((1, len(tails)), head)
            for column in tails.T:
                squares += col[L:].take(column)
            squares += lower_squares[rows]
        yield prefix, tails, bounds(squares)


def _eigvals(G, t, sub):
    """The extreme eigenvalues (lo, hi) of G[t[i]] restricted to the subset
    sub[i], for each i, from batched LAPACK ``eigvalsh`` calls on at most
    ``_ENTRY_LIMIT`` Gram entries (or one Gram) each."""
    batch = max(1, _ENTRY_LIMIT // sub.shape[1] ** 2)
    lo, hi = np.empty(len(sub)), np.empty(len(sub))
    for s in range(0, len(sub), batch):
        rows, cols = sub[s : s + batch, :, None], sub[s : s + batch, None, :]
        grams = G[t[s : s + batch, None, None], rows, cols]
        w = np.linalg.eigvalsh(grams)
        lo[s : s + batch], hi[s : s + batch] = w[:, 0], w[:, -1]
    return lo, hi


def _witness_deltas(G, K):
    """The computed delta_S of one greedy K-subset S per Gram of the stack G,
    2 <= K <= n, and those subsets, (T,) and (T, K): the pair, then each
    next column, that adds the most to ||M_S - I||_F**2 (see exact_ric). S is
    eigensolved sorted, as the kernel does, and the kernel returns the
    largest computed delta_S, never less. Overflowed terms are +inf and only
    added: no choice reads a NaN."""
    T, n = G.shape[:2]
    t = np.arange(T)
    P = np.triu(_pair_squares(G))
    P += np.triu(P, 1).swapaxes(1, 2)  # symmetric, column c's own term at [c, c]
    gain = P.diagonal(axis1=1, axis2=2).copy()  # what each column adds
    chosen = np.zeros((T, n), dtype=bool)
    with np.errstate(over="ignore"):  # sums of terms near 1e308 may overflow too
        pairs = P + gain[:, :, None] + gain[:, None, :]
        pairs.reshape(T, -1)[:, :: n + 1] = -np.inf
        first = np.divmod(pairs.reshape(T, -1).argmax(axis=1), n)  # the pair (i, j)
        for step in range(K):
            c = first[step] if step < 2 else np.where(chosen, -np.inf, gain).argmax(axis=1)
            chosen[t, c] = True
            gain += P[t, c]
    subsets = chosen.nonzero()[1].reshape(T, K)
    lo, hi = _eigvals(G, t, subsets)
    return np.maximum(hi - 1.0, 1.0 - lo), subsets


def exact_ric(A, K, budget=DEFAULT_SUBSET_BUDGET):
    """Exact order-K RIC of A by exhaustive subset enumeration.

    Every K-subset S is enumerated and its deviation delta_S = ||E_S||_2
    bounded above, where E_S = M_S - I and M_S is the lower triangle of G_S
    mirrored, as ``eigvalsh`` reads it. The trace bound of Wolkowicz and
    Styan ("Bounds for eigenvalues using traces", Linear Algebra Appl. 29,
    1980), |lambda(E)| <= |tr E| / K + s ||E - (tr E / K) I||_F with
    s = sqrt((K - 1) / K), is at most o + s F_S, where F_S = ||E_S||_F and
    o = max_i |G_ii - 1| over all columns. So b_S = min(F_S, o + s F_S), about
    s F_S with unit-norm columns: delta_S itself at K = 2. F_S**2 adds up
    over pairs of elements, so a subset (f, *tail) adds K terms of
    ``_pair_squares`` row f to its tail's (``_bounded_blocks``). An
    enumeration of at most ``_UNBOUNDED`` subsets is eigensolved whole,
    unbounded, in one call. Otherwise, per block, the ``_LEAD`` largest bounds
    are eigensolved first (batched LAPACK ``eigvalsh`` calls on at most
    ``_ENTRY_LIMIT`` Gram entries each), which sets the incumbent: the largest
    delta found so far, carried across blocks. The other subsets are
    eigensolved in one more round, and only if b_S + g_S >= incumbent, with
    the rounding guard g_S = c K u (1 + b_S), c = ``_GUARD_C`` = 64 and
    u = 2**-53. Each subset is eigensolved at most once in that search; the
    witness is eigensolved once more at the end, for the report's
    ``lambda_min`` and ``lambda_max``.

    The guard makes the pruning exact for the computed values, not just the
    true ones. A term of F_S**2 costs at most three roundings (a subtraction
    and a square on the diagonal, a square off it; doubling is exact), and
    passes through at most K additions, or K + L - 1 < 2K in a block with a
    prefix of length L. The terms are non-negative, so F_S**2 is off by less
    than (2K + 2) u F_S**2, and F_S by (K + 2) u F_S. The offset costs one
    rounding (G_ii - 1); s (a quotient and a square root), s F_S and the sum
    cost three more, so b_S is off by less than (K + 6) u b_S. The symmetric
    eigensolver is backward stable: its eigenvalues of G_S are off by at
    most p(K) u ||G_S||_2 <= p(K) u (1 + delta_S), with p a modest function
    of K (about K in practice), and forming delta_S adds one more rounding.
    So a computed delta_S exceeds b_S by less than (p(K) + K + 8) u (1 + b_S),
    which c K u (1 + b_S) covers for p(K) up to about 60 K. A pruned
    subset's computed delta is therefore below a delta that was computed, so
    it can be neither the maximum nor tied with it, and the result is
    bit-identical to eigensolving every subset.

    A streamed block is filtered before its bounds are summed, once an
    incumbent d exists. A subset (*p, *tail) of a block with prefix p of
    length L has F_S**2 = h + sum(col[c], c in tail) + l, where h is the
    prefix's own sum, col[c] what the prefix adds to element c, and l the
    tail's stored sum, all non-negative; so F_S**2 <= h + t + l, with t the
    sum of the K - L largest col[c] past p. The guarded test needs b_S >= x =
    (d (1 - g) - g) / (1 + g), g = c K u, with d lowered by g, the filter's
    relative margin; as b_S = min(F_S, o + s F_S), that needs F_S >= F* =
    max(x, (x - o) / s) (F* = x at K = 1). So a block keeps only the tails
    with l >= tau - h - t, tau = F***2, and sums and bounds them as it would
    all of them, bit for bit and in order, so its rounds pick the same
    subsets. Nothing is filtered unless x > 0, tau - h - t
    > 0 and 2 tau is finite, so an inf - inf NaN filters nothing.

    The margin makes the filter drop only subsets the guarded test drops.
    For a dropped tail, l < fl(fl(tau - h) - t) gives h + t + l < (1 + u)**2
    tau. The computed t is at least (1 + u)**-(K - L - 1) times the exact sum
    of its terms, and F_S**2 adds the same floats h, col[c] and l in K - L + 1
    additions, so its computed value is below (1 + u)**(2K) tau < 2 tau:
    finite. min(F, o + s F) grows at most in proportion to F, as o >= 0, and
    is at most (1 + u)**2 x at the computed F*. So with the roundings of tau,
    of F_S, s F_S and o + s F_S, the computed b_S is below (1 + u)**(K + 6)
    x; with those of x and of b_S + g (1 + b_S), the computed test value is
    below (1 + u)**(K + 12) (1 - g) d < d, as g = 64 K u > (K + 12) u.
    Underflow, possible only in s F_S, adds at most 2**-1074, far inside the
    margin, since x > 0 needs d > g.

    Ties on delta are broken by the lexicographically smallest witness subset
    (enumeration is lexicographic, the argmax of a block takes its smallest
    row, and only strictly larger deltas replace the incumbent).

    Args:
        A: the sensing matrix.
        K: subset order, 1 <= K <= A.shape[1].
        budget: refuse enumerations beyond this many subsets. It counts
            subsets, not work: an eigensolve costs O(K**3).

    Raises:
        ValueError: K out of range, ``budget`` below 1, or A^T A overflows
            (A is finite but its Gram matrix is not).
        CapacityError: C(n, K) exceeds ``budget``.
    """
    A = as_matrix(A)  # the Gram's bits depend on the layout
    n = A.shape[1]
    if not (1 <= K <= n):
        raise ValueError(f"order must lie in [1, {n}], got {K}")
    if budget < 1:
        raise ValueError(f"subset budget must be positive, got {budget}")
    _check_budget(n, K, budget)
    return _gram_rics(_grams(A[None]), K)[0]


def _fits_budget(n, K, budget):
    """The one subset-budget rule: C(n, K) subsets fit ``budget``."""
    return math.comb(n, K) <= budget


def _check_budget(n, K, budget, context=None):
    """Refuse, as CapacityError, an enumeration of C(n, K) subsets that
    fails _fits_budget; ``context`` names what requires it."""
    if not _fits_budget(n, K, budget):
        raise CapacityError(n, K, math.comb(n, K), budget, context)


def _grams(A):
    """The Grams A^T A of a (T, m, n) stack of validated matrices, from one
    stacked matmul, each bit for bit its own ``A[t].T @ A[t]``; refused if
    one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = A.swapaxes(1, 2) @ A
    if not np.isfinite(G).all():
        raise ValueError("A^T A overflows: the Gram matrix has non-finite entries")
    return G


def _gram_rics(G, K):
    """The RicReport of exact_ric at order K for each Gram of the stack G
    (T, n, n), from finite Grams, 1 <= K <= n: _ric_search's delta, witness
    and count, and the witness's eigenvalue extremes, read in one more round
    where the search kept none."""
    deltas, witnesses, solved, extremes = _ric_search(G, K)
    lo, hi = extremes or _eigvals(G, np.arange(len(G)), witnesses)
    count = math.comb(G.shape[-1], K)
    return [RicReport(int(K), float(d), s, float(a), float(b), count, int(c))
            for d, s, a, b, c in zip(deltas, witnesses, lo, hi, solved)]


def _ric_search(G, K):
    """The exact order-K RIC search of exact_ric on each Gram of the stack G
    (T, n, n), from finite Grams, 1 <= K <= n, as arrays: the deltas (T,),
    witness subsets (T, K) and subsets eigensolved (T,), and the witnesses'
    eigenvalue extremes (lo, hi) where the search read them, else None.
    Enumerations of at most ``_UNBOUNDED`` subsets are eigensolved whole
    (which keeps the extremes), streamed ones one Gram at a time, and the
    others bounded together (``_bounded_search``)."""
    count = math.comb(G.shape[-1], K)
    if count <= _UNBOUNDED:  # one Gram or < 64 * 63**2 entries per matrix
        table = _cached_table(G.shape[-1], K)[0]
        per = max(1, _ENTRY_LIMIT // (count * K * K))  # matrices per eigvalsh call
        w = [np.linalg.eigvalsh(G[s : s + per, table[:, :, None], table[:, None, :]])
             for s in range(0, len(G), per)]
        w = np.concatenate(w)
        deltas = np.maximum(w[..., -1] - 1.0, 1.0 - w[..., 0])
        rows = deltas.argmax(axis=1)  # the smallest row of the largest delta
        top = w[np.arange(len(G)), rows]  # each witness's eigenvalues
        return deltas.max(axis=1), table[rows], np.full(len(G), count), (top[:, 0], top[:, -1])
    if count * K > _ENTRY_LIMIT:
        found = [_bounded_search(g[None], K, count) for g in G]
        return *map(np.concatenate, zip(*found)), None
    return *_bounded_search(G, K, count), None


def _bounded_search(G, K, count):
    """The deltas, witness subsets and subsets eigensolved of the stack G
    from its ``_bounded_blocks`` (see exact_ric): one block for a stack, or
    the blocks of one streamed Gram. Each block takes at most two rounds,
    all Grams in one batch: the ``_LEAD`` largest bounds of each Gram (in
    block 0, or in a later block of a streamed Gram with more rows left),
    then every row that can still reach its Gram's incumbent. So every Gram
    eigensolves the subsets it would alone."""
    T = len(G)
    guard = _GUARD_C * K * _U
    best = np.full(T, -np.inf)
    best_subset = [None] * T
    solved = np.zeros(T, dtype=int)
    for block, (prefix, tails, bound) in enumerate(_bounded_blocks(G, K, count, best)):
        reach = bound + 1.0  # bound + guard * (1 + bound)
        reach *= guard
        reach += bound
        todo = reach >= best[:, None]
        rows = bound.shape[1]
        flat = todo.reshape(-1)  # pair (t, r) is entry f = t * rows + r
        if not block and rows > _LEAD:  # no incumbent yet: every row is todo
            f = np.argpartition(bound, -_LEAD, axis=1)[:, -_LEAD:]
            f = (f + np.arange(0, T * rows, rows)[:, None]).ravel()
        else:
            f = flat.nonzero()[0]
            if not f.size:
                continue
            if block and f.size > _LEAD:  # a later block of one streamed Gram
                f = f[np.argpartition(bound[0][f], -_LEAD)[-_LEAD:]]
        deltas = np.full((T, rows), -np.inf)
        while f.size:
            t, r = np.divmod(f, rows)
            sub = np.empty((f.size, K), dtype=np.intp)
            sub[:, : prefix.size] = prefix
            np.add(tails[r], prefix.size, out=sub[:, prefix.size :])
            lo, hi = _eigvals(G, t, sub)
            deltas.reshape(-1)[f] = np.maximum(hi - 1.0, 1.0 - lo)
            solved += np.bincount(t, minlength=T)
            flat[f] = False
            todo &= reach >= np.maximum(best, deltas.max(axis=1))[:, None]
            f = flat.nonzero()[0]
        top = deltas.argmax(axis=1)  # the smallest row of each largest delta
        for t in (deltas.max(axis=1) > best).nonzero()[0]:
            best[t] = deltas[t, top[t]]
            best_subset[t] = np.concatenate((prefix, tails[top[t]] + prefix.size))
    return best, np.array(best_subset), solved


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


def _ric_condition(delta_k1, K):
    """The RIC condition delta_{K+1} < 1/sqrt(K + 1), strict, elementwise on
    arrays: the one place it is written."""
    return delta_k1 < sharp_ric_bound(K)


def _magnitude_condition(min_magnitude, floor):
    """The magnitude condition min |x_i| > floor, strict: the one place it is
    written. A floor of +inf (the RIC condition fails) admits nothing."""
    return min_magnitude > floor


def _magnitude_floor(delta_k1, K, epsilon):
    """The floor on min |x_i| at an order-(K+1) RIC delta_k1:
    min_magnitude_bound where _ric_condition holds, +inf (no magnitude
    suffices) where it fails."""
    if _ric_condition(delta_k1, K):
        return min_magnitude_bound(delta_k1, K, epsilon)
    return math.inf


def check_theorem1_conditions(A, signal, epsilon):
    """Evaluate both recovery conditions for (A, x, eps) with exact RIC.

    Strict inequalities, zero tolerance: ``ric_ok`` is _ric_condition and
    ``min_mag_ok`` _magnitude_condition against _magnitude_floor. Returns a
    ConditionVerdict. The order K + 1 is checked by exact_ric alone: a
    support of every column raises its ValueError, and an enumeration
    beyond the default subset budget propagates as CapacityError.
    """
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError("matrix columns must match signal dimension")
    K = signal.sparsity
    if K < 1:
        raise ValueError("signal must have nonempty support")
    as_epsilon(epsilon)
    report = exact_ric(A, K + 1)
    bound = sharp_ric_bound(K)
    ric_ok = _ric_condition(report.delta, K)
    mm_bound = _magnitude_floor(report.delta, K, epsilon)
    min_mag_ok = _magnitude_condition(signal.min_magnitude(), mm_bound)
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
    |Omega| + 1 (computed here, where exact_ric checks that order, unless the
    caller supplies it, finite and non-negative). The check is numerical
    only; no tightness claim is made.

    Returns:
        Lemma1Check(lhs, rhs, holds) with holds = (lhs >= rhs - 1e-10).
    """
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError("matrix columns must match signal dimension")
    omega = signal.support
    given = _as_indices(list(S))
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
    if delta_k1 is None:
        delta_k1 = exact_ric(A, omega.size + 1).delta
    elif not (0 <= delta_k1 < math.inf):
        raise ValueError("delta_k1 must be non-negative and finite")
    in_S = (np.arange(omega.size) == pos[:, None]).any(axis=0, keepdims=True)
    lhs, rhs, holds = _lemma1_sides(A[None], omega[None], signal.values[None],
                                    np.array([delta_k1], dtype=float), in_S)
    return Lemma1Check(lhs=float(lhs[0, 0]), rhs=float(rhs[0, 0]), holds=bool(holds[0, 0]))


def _lemma1_sides(A, omega, x, delta_k1, in_S):
    """lhs, rhs and holds of :func:`verify_lemma1`, (T, c) arrays, for each
    row S of the (c, K) mask ``in_S`` of each instance t of a stack: the
    validated A[t] of a (T, m, n) stack, its support omega[t] (sorted, values
    x[t]) and its delta_k1[t]. Each entry is bit for bit as if checked alone,
    given A[t] in Fortran order. Each size of S is one stack of QR solves, in
    ascending order, so a rank-deficient A_S raises for the first such row
    of the smallest such size, instances in stack order."""
    t = np.arange(len(A))[:, None]
    rest = ~in_S
    x_rest = x[:, None, :] * rest
    AT = A.swapaxes(1, 2)  # row j of AT[t] is column j of A[t]
    A_omega = AT[t, omega].swapaxes(1, 2)
    P = (A_omega[:, None] @ x_rest[..., None])[..., 0]  # row (t, j): z, then P z
    sizes = in_S.sum(axis=1)
    for s in sorted(set(sizes.tolist()) - {0}):  # np.unique would import numpy.ma
        rows = sizes == s
        A_S = AT[t[:, :, None], omega[:, in_S[rows].nonzero()[1].reshape(-1, s)]].swapaxes(2, 3)
        P[:, rows] -= (A_S @ _least_squares(A_S, P[:, rows])[..., None])[..., 0]
    C = np.abs(AT[:, None] @ P[..., None])[..., 0]
    lhs = np.take_along_axis(C, omega[:, None, :], axis=2).max(axis=2, where=rest, initial=0.0)
    np.put_along_axis(C, omega[:, None, :], 0.0, axis=2)  # C >= 0: max over the rest
    lhs -= C.max(axis=2)
    r = rest.sum(axis=1)
    x_norm = np.sqrt(np.square(x_rest).sum(axis=2))
    rhs = (1.0 - np.sqrt(r + 1.0) * delta_k1[:, None]) * x_norm / np.sqrt(r)
    return lhs, rhs, lhs >= rhs - 1e-10


# ---------------------------------------------------------------------------
# Comparison against the strongest previously published sufficient condition
# (the Chang-Wu bounds), which this package's condition must dominate.
# ---------------------------------------------------------------------------


def chang_wu_ric_bound(K):
    """Prior best RIC threshold (sqrt(4K+1) - 1) / (2K)."""
    sharp_ric_bound(K)  # rejects K < 1
    return (math.sqrt(4.0 * K + 1.0) - 1.0) / (2.0 * K)


def chang_wu_min_mag_bound(delta, K, epsilon):
    """Prior magnitude floor; +inf when its denominator is non-positive."""
    sharp_ric_bound(K)  # rejects K < 1
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
    our_mm = _magnitude_floor(delta_k1, K, epsilon)
    our_defined = _ric_condition(delta_k1, K)
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
