import hashlib
import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from omplab import ripcheck, sensing
from omplab import (
    CapacityError,
    SparseSignal,
    as_matrix,
    chang_wu_min_mag_bound,
    chang_wu_ric_bound,
    check_theorem1_conditions,
    comparison_report,
    condition_verdict_json,
    exact_ric,
    gaussian_sensing_matrix,
    lemma1_example_instance,
    min_magnitude_bound,
    random_sparse_signal,
    ric_report_json,
    sharp_ric_bound,
    splitmix64,
    verify_lemma1,
)

from _oracles import ric_double_loop, ric_unpruned


def test_exact_ric_identity_is_zero():
    for K in (1, 2, 4):
        r = exact_ric(np.eye(5), K)
        assert abs(r.delta) <= 1e-12
        assert r.subsets_examined == math.comb(5, K)
        # every subset ties, so none can be pruned
        assert r.subsets_eigensolved == math.comb(5, K)


def test_exact_ric_lemma1_family():
    for delta in (0.1, 0.25, 0.5, 0.9):
        A, _, _ = lemma1_example_instance(delta)
        r = exact_ric(A, 3)
        assert abs(r.delta - delta) <= 1e-10
        assert np.array_equal(r.witness_subset, [0, 1, 2])


def test_exact_ric_matches_double_loop_oracle():
    rng = np.random.default_rng(23)
    for trial in range(8):
        A = gaussian_sensing_matrix(8, 12, seed=100 + trial)
        for K in (1, 2, 3):
            assert abs(exact_ric(A, K).delta - ric_double_loop(A, K)) <= 1e-9


def test_exact_ric_report_consistency():
    A = gaussian_sensing_matrix(10, 14, seed=5)
    r = exact_ric(A, 3)
    assert r.delta == max(r.lambda_max - 1.0, 1.0 - r.lambda_min)
    # unit eigenvector of the extreme eigenvalue realizes it through A_S
    A_S = A[:, r.witness_subset]
    w, V = np.linalg.eigh(A_S.T @ A_S)
    extreme = (
        r.lambda_max if r.lambda_max - 1.0 >= 1.0 - r.lambda_min
        else r.lambda_min
    )
    idx = int(np.argmin(np.abs(w - extreme)))
    u = V[:, idx]
    assert abs(np.linalg.norm(A_S @ u) ** 2 - extreme) <= 1e-9


def test_exact_ric_tie_break_lexicographic():
    r = exact_ric(np.eye(6), 2)
    assert np.array_equal(r.witness_subset, [0, 1])


def test_exact_ric_streamed_matches_cached(monkeypatch):
    # the identity makes every subset tie, across block boundaries too; entry
    # limits of 0, 10 and 110 stream C(12, 3) by prefixes of length 3, 2 and 1.
    # C(6, 2) is short enough to be eigensolved whole unless bounding is forced.
    cases = [(gaussian_sensing_matrix(8, 12, seed=7), 3), (np.eye(6), 2)]
    cached = [exact_ric(A, K) for A, K in cases]
    monkeypatch.setattr(ripcheck, "_UNBOUNDED", 0)
    for limit in (0, 10, 110):
        monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", limit)
        for (A, K), ref in zip(cases, cached):
            streamed = exact_ric(A, K)
            assert streamed.subsets_examined == ref.subsets_examined
            assert streamed.delta == ref.delta
            assert np.array_equal(streamed.witness_subset, ref.witness_subset)
            assert streamed.lambda_min == ref.lambda_min
            assert streamed.lambda_max == ref.lambda_max


def test_exact_ric_order_one_witness_matches_unpruned(monkeypatch):
    # at order 1 the Frobenius bound is delta_S itself, so pruning on a bare
    # bound < incumbent would hang on rounding; many columns tie at the max
    rng = np.random.default_rng(41)
    A = np.diag(rng.choice([0.8, 1.0, 1.1, 1.3], size=100))
    delta, witness, lo, hi = ric_unpruned(A, 1)
    cached = exact_ric(A, 1)
    monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", 9)
    streamed = exact_ric(A, 1)
    for r in (cached, streamed):
        assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
        assert np.array_equal(r.witness_subset, witness)
        assert r.subsets_eigensolved < r.subsets_examined


def test_exact_ric_rounding_guard_keeps_permuted_ties(monkeypatch):
    # columns (0, 1) and (3, 2) have the same Gram up to a permutation; their
    # computed deltas tie while their computed bounds can differ, and a delta
    # can exceed its own computed bound by an ulp. With unit-norm columns at
    # K = 2 the bound is delta_S up to rounding, so with every enumeration
    # bounded and a leading block of one subset, only the rounding guard
    # keeps the first of them.
    monkeypatch.setattr(ripcheck, "_UNBOUNDED", 0)
    monkeypatch.setattr(ripcheck, "_LEAD", 1)
    for seed in range(20):
        B = np.random.default_rng(seed).standard_normal((3, 2))
        B /= np.linalg.norm(B, axis=0)
        A = np.zeros((6, 4))
        A[:3, :2] = B
        A[3:, 2:] = B[:, ::-1]
        delta, witness, lo, hi = ric_unpruned(A, 2)
        r = exact_ric(A, 2)
        assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
        assert np.array_equal(r.witness_subset, witness)


def test_exact_ric_rounding_guard_keeps_rank_one_ties(monkeypatch):
    # one unit-norm column repeated: every G_S is the all-ones matrix, whose
    # deviation K - 1 equals the bound sqrt((K - 1) / K) ||G_S - I||_F, so
    # every subset ties and only the rounding guard keeps the first of them
    monkeypatch.setattr(ripcheck, "_UNBOUNDED", 0)
    monkeypatch.setattr(ripcheck, "_LEAD", 1)
    for seed in range(20):
        a = np.random.default_rng(seed).standard_normal((8, 1))
        A = np.tile(a / np.linalg.norm(a), (1, 7))
        for K in (3, 4):
            delta, witness, lo, hi = ric_unpruned(A, K)
            r = exact_ric(A, K)
            assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
            assert np.array_equal(r.witness_subset, witness)


def test_exact_ric_equal_norm_diagonal_ties_everywhere(monkeypatch):
    # every subset has delta = 1.5 - 1 up to the rounding of sqrt(1.5)**2
    A = np.diag(np.full(9, math.sqrt(1.5)))
    cached = exact_ric(A, 3)
    monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", 10)
    streamed = exact_ric(A, 3)
    for r in (cached, streamed):
        assert r.delta == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(r.witness_subset, [0, 1, 2])
        assert r.subsets_eigensolved == math.comb(9, 3)


def test_cached_subsets_are_read_only():
    subsets, tails = ripcheck._cached_table(6, 2)
    assert subsets.shape == (math.comb(6, 2), 2)
    assert [len(t) for t in tails] == [math.comb(6, 2)]
    for array in (subsets, *tails):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        subsets[0, 0] = 5
    with pytest.raises(ValueError):
        tails[0][0] = 5


_ENUMERATIONS = [(1, 1), (6, 1), (6, 6), (6, 2), (7, 3), (9, 4), (10, 6), (30, 28)]


def _rows(prefix, tails):
    # a block's tails are relative to its prefix: element = tail value + len(prefix)
    return np.hstack((np.broadcast_to(prefix, (len(tails), prefix.size)), tails + prefix.size))


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("size", range(1, 8))
def test_subset_enumeration_matches_itertools(monkeypatch, streamed, size):
    # whole tables level by level, one more of order ``size``; or blocks
    # streamed under an entry limit of ``size``, small enough that prefixes
    # of every length occur
    for n, K in _ENUMERATIONS + ([] if streamed else [(size + 5, size)]):
        expected = np.array(list(itertools.combinations(range(n), K)))
        if not streamed:
            table, tails = ripcheck._subset_table(n, K)
            assert np.array_equal(table, expected)
            assert len(tails) == max(K - 1, 0)
            for j in range(1, K + 1):
                # level j holds the j-subsets of range(K - j, n); a build from
                # range(n) at every level would hit C(30, 15) rows
                level = table[: math.comb(n - K + j, j), K - j :]
                assert len(level) <= len(expected)
                assert np.array_equal(
                    level, list(itertools.combinations(range(K - j, n), j)))
                if j >= 2:  # the tail index names each row's tail in level j - 1
                    assert np.array_equal(table[tails[j - 2], K - j + 1 :], level[:, 1:])
            continue
        monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", size)
        blocks = list(ripcheck._bounded_blocks(np.eye(n)[None], K, len(expected),
                                               np.full(1, -np.inf)))
        for prefix, tails, _ in blocks:
            assert prefix.size + tails.shape[1] == K
            assert tails.size <= size
        assert np.array_equal(np.concatenate([_rows(p, t) for p, t, _ in blocks]),
                              expected)


def _report_bits(r):
    return (r.order, r.delta.hex(), tuple(r.witness_subset.tolist()), r.lambda_min.hex(),
            r.lambda_max.hex(), r.subsets_examined, r.subsets_eigensolved)


def test_streamed_exact_ric_caches_only_its_lower_table(monkeypatch):
    # entry limits of 0, 20, 200 and 1000 stream C(13, 4) by prefixes of
    # length L = 4, 3, 2 and 1, whose tails come from the read-only cached
    # table of the (4 - L)-subsets of range(13 - L)
    A, B = (gaussian_sensing_matrix(9, 13, seed=s) for s in (3, 4))
    cache = ripcheck._cached_table
    for limit, L in ((0, 4), (20, 3), (200, 2), (1000, 1)):
        monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", limit)
        cache.cache_clear()
        cold = _report_bits(exact_ric(A, 4))
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        table, tails = cache(13 - L, 4 - L)  # the one entry: a hit
        assert cache.cache_info().misses == 1
        for array in (table, *tails):
            assert not array.flags.writeable
        expected, expected_tails = ripcheck._subset_table(13 - L, 4 - L)
        assert np.array_equal(table, expected)
        assert len(tails) == len(expected_tails)
        assert all(map(np.array_equal, tails, expected_tails))
        before = cache.cache_info()
        exact_ric(B, 4)  # a second matrix of the same shape
        after = cache.cache_info()
        assert after.hits > before.hits
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        warm = _report_bits(exact_ric(A, 4))
        cache.cache_clear()
        assert _report_bits(exact_ric(A, 4)) == warm == cold


def test_streamed_eigensolve_counts_hold(monkeypatch):
    # streamed blocks are filtered on their tails' stored sums before their
    # bounds are summed; the filter may drop only rows the guarded reach test
    # drops, so every streamed enumeration eigensolves the subsets it did
    # before the filter existed (these counts): C(13, 4) streamed by
    # prefixes of length 4, 3, 2 and 1, and C(32, 5) by first elements
    A = gaussian_sensing_matrix(9, 13, seed=3)
    for limit, count in ((0, 4), (20, 13), (200, 16), (1000, 16)):
        with monkeypatch.context() as mp:
            mp.setattr(ripcheck, "_ENTRY_LIMIT", limit)
            assert exact_ric(A, 4).subsets_eigensolved == count
    for m, count in ((20, 32), (128, 269)):
        r = exact_ric(gaussian_sensing_matrix(m, 32, seed=0), 5)
        assert r.subsets_examined * 5 > ripcheck._ENTRY_LIMIT
        assert r.subsets_eigensolved == count


def _later_rows(G, K, incumbent):
    """{subset: bound} over every streamed block after the first, with the
    incumbent set to ``incumbent`` once block 0 is consumed."""
    best = np.full(1, -np.inf)
    blocks = ripcheck._bounded_blocks(G, K, math.comb(G.shape[-1], K), best)
    next(blocks)
    best[0] = incumbent
    return {tuple(S): b for prefix, tails, bounds in blocks
            for S, b in zip(_rows(prefix, tails).tolist(), bounds[0], strict=True)}


@pytest.mark.parametrize("normalize", [True, False])
def test_streamed_filter_keeps_every_row_the_reach_test_keeps(monkeypatch, normalize):
    # unit-norm columns put F* on (x - o) / s, raw ones on x (see exact_ric).
    # Each incumbent is some row's own guarded reach value, which that row
    # reaches with no slack but the filter's margin; every row reaching it
    # must be yielded, with the bound it has unfiltered, bit for bit
    K = 4
    A = gaussian_sensing_matrix(12, 11, seed=5, normalize_columns=normalize)
    G = ripcheck._grams(as_matrix(A)[None])
    guard = ripcheck._GUARD_C * K * ripcheck._U
    filtered = False
    for limit in (0, 10, 100, 400):  # C(11, 4) by prefixes of length 4, 3, 2, 1
        with monkeypatch.context() as mp:
            mp.setattr(ripcheck, "_ENTRY_LIMIT", limit)
            whole = _later_rows(G, K, -np.inf)
            bounds = np.array(list(whole.values()))
            reach = bounds + 1.0  # as _bounded_search computes it
            reach *= guard
            reach += bounds
            reaches = dict(zip(whole, reach))
            for incumbent in np.sort(reach)[:: len(reach) // 24]:
                kept = _later_rows(G, K, incumbent)
                assert {S for S, r in reaches.items() if r >= incumbent} <= kept.keys()
                assert all(kept[S] == whole[S] for S in kept)
                filtered |= len(kept) < len(whole)
    assert filtered


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("limit, count", [(1000, 165), (200, 172), (20, 173), (0, 167)])
def test_streamed_huge_column_matches_unpruned(monkeypatch, normalize, limit, count):
    # a column scaled by 1e80 squares its Gram terms to +inf and makes the
    # incumbent about 1e160, whose threshold squares to +inf: inf - inf is a
    # NaN limit, which must keep every row. C(12, 4) streamed by prefixes of
    # length 1, 2, 3 and 4 (an entry limit of 0); the counts are those before
    # the filter existed
    A = np.array(gaussian_sensing_matrix(10, 12, seed=8, normalize_columns=normalize))
    A[:, 5] *= 1e80
    monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", limit)
    delta, witness, lo, hi = ric_unpruned(A, 4)
    r = exact_ric(A, 4)
    assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
    assert np.array_equal(r.witness_subset, witness)
    assert r.subsets_eigensolved == count


def test_high_order_exact_ric_runs_without_recursion():
    # C(1010, 1010) = 1 subset: the enumeration must not recurse once per
    # order. A has 3 rows, so the nonzero Gram eigenvalues are those of A A^T.
    n = 1010
    A = np.random.default_rng(5).standard_normal((3, n)) / math.sqrt(n)
    r = exact_ric(A, n)
    assert r.subsets_examined == 1
    assert np.array_equal(r.witness_subset, np.arange(n))
    assert r.lambda_max == pytest.approx(np.linalg.eigvalsh(A @ A.T)[-1], rel=1e-9)
    assert abs(r.lambda_min) <= 1e-9
    assert r.delta == max(r.lambda_max - 1.0, 1.0 - r.lambda_min)


def _block_bounds(monkeypatch, G, K):
    """(b, F) over every row S of the blocks of C(n, K), whole and streamed
    by prefixes of every length: b is the bound exact_ric prunes on, F the
    Frobenius norm of M_S - I, M_S the lower triangle of G_S mirrored as
    eigvalsh reads it. Checks that b is at most F and that b plus the guard
    reaches the eigvalsh deviation."""
    n = len(G)
    u = np.finfo(float).eps / 2
    guard = ripcheck._GUARD_C * K * u
    pairs = []
    for limit in (ripcheck._ENTRY_LIMIT, 0, 2 * n, 200, 1000):
        with monkeypatch.context() as mp:
            mp.setattr(ripcheck, "_UNBOUNDED", 0)
            mp.setattr(ripcheck, "_ENTRY_LIMIT", limit)
            # no incumbent, so every row of every block is yielded
            blocks = list(ripcheck._bounded_blocks(G[None], K, math.comb(n, K),
                                                   np.full(1, -np.inf)))
        for prefix, tails, bounds in blocks:
            for S, b in zip(_rows(prefix, tails), bounds[0], strict=True):
                G_S = G[np.ix_(S, S)]
                M = np.tril(G_S) + np.tril(G_S, -1).T - np.eye(K)
                F = np.linalg.norm(M, "fro")
                assert b <= F + (K + 3) * u * (1 + F)
                w = np.linalg.eigvalsh(G_S)
                assert b + guard * (1 + b) >= max(w[-1] - 1.0, 1.0 - w[0])
                pairs.append((b, F))
    return np.array(pairs).T


def test_norm_bounds_match_norm_oracle(monkeypatch):
    # the upper triangle of G is deliberately off, so a bound that reads it
    # instead of the lower triangle (which eigvalsh reads) is far from the
    # oracle. Unnormalized columns put offset = max |G_ii - 1| above
    # (1 - spread) F on every row, so the bound is F; unit-norm columns make
    # offset a few u and the bound spread F, which at K = 2 is delta_S and
    # leaves only the guard to cover rounding; at K = 1 the bound is F.
    rng = np.random.default_rng(11)
    u = np.finfo(float).eps / 2
    for n, K in ((9, 1), (9, 2), (12, 4), (16, 6)):
        A = rng.standard_normal((n + 3, n)) / math.sqrt(n + 3)
        junk = np.triu(rng.uniform(0.2, 0.5, (n, n)), 1)
        b, F = _block_bounds(monkeypatch, A.T @ A + junk, K)
        assert np.all(np.abs(b - F) <= (K + 3) * u * (1 + F))
        A /= np.linalg.norm(A, axis=0)
        G = A.T @ A + junk
        offset = np.abs(G.diagonal() - 1.0).max()
        assert offset <= 8 * u
        b, F = _block_bounds(monkeypatch, G, K)
        expected = np.minimum(F, offset + math.sqrt((K - 1) / K) * F)
        assert np.all(np.abs(b - expected) <= (K + 6) * u * (1 + F))


def test_exact_ric_eigensolves_few_on_a_tall_unit_norm_design():
    # C(32, 5) is streamed one block per first element; the Frobenius bound
    # alone, with a leading block of 64 per block, eigensolved 2,318 Grams
    r = exact_ric(gaussian_sensing_matrix(128, 32, seed=0), 5)
    assert r.subsets_eigensolved <= 2318 // 3


def test_short_enumerations_are_eigensolved_whole():
    # up to 64 subsets are gathered and eigensolved in one call, without
    # bounds (lemma_sweep's calls on 18, 28 and 56 subsets among them); 65
    # are bounded and pruned
    for m, n, K in ((12, 18, 1), (8, 8, 2), (8, 8, 3), (12, 64, 1)):
        A = gaussian_sensing_matrix(m, n, seed=1, normalize_columns=False)
        r = exact_ric(A, K)
        assert r.subsets_examined <= ripcheck._UNBOUNDED
        assert r.subsets_eigensolved == r.subsets_examined
    A = gaussian_sensing_matrix(12, 65, seed=1, normalize_columns=False)
    assert exact_ric(A, 1).subsets_eigensolved < 65


def _whole_enumerations():
    """(A, K) with C(n, K) <= 64, so exact_ric eigensolves them whole: order
    1 on the lemma_sweep shapes, the identity (every subset ties) at orders
    1-3, the worked example at orders 1-3, and K = n (one subset)."""
    for m, n in ((12, 18), (64, 16), (128, 14), (8, 8)):
        for seed in range(3):
            yield gaussian_sensing_matrix(m, n, seed=seed), 1
    for K in (1, 2, 3):
        yield np.eye(8), K
        for delta in (0.1, 0.2, 0.3, 0.4, 0.5):
            yield lemma1_example_instance(delta)[0], K
    for m, n in ((7, 5), (3, 6), (12, 12)):
        yield gaussian_sensing_matrix(m, n, seed=4, normalize_columns=False), n


def test_whole_enumerations_match_unpruned():
    for A, K in _whole_enumerations():
        count = math.comb(A.shape[1], K)
        assert count <= ripcheck._UNBOUNDED
        delta, witness, lo, hi = ric_unpruned(A, K)
        r = exact_ric(A, K)
        assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
        assert np.array_equal(r.witness_subset, witness)
        assert r.subsets_examined == r.subsets_eigensolved == count
        if np.array_equal(A, np.eye(8)):  # every subset ties
            assert np.array_equal(r.witness_subset, np.arange(K))


def test_batched_rounds_cut_per_gram(monkeypatch):
    # every enumeration bounded, and eigvalsh calls capped at C(n, K) // K
    # Grams, so a round that gathers several Grams' subsets is split across
    # calls: each Gram must still eigensolve, prune, tie-break and report
    # exactly what it would alone
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(4, 11))
        K = int(rng.integers(2, min(n, 4) + 1))
        stack = []
        for _ in range(int(rng.integers(2, 7))):
            m = int(rng.integers(1, 11))
            A = rng.standard_normal((m, n)) / math.sqrt(m)
            stack.append(A / np.linalg.norm(A, axis=0) if rng.random() < 0.5 else A)
        with monkeypatch.context() as mp:
            mp.setattr(ripcheck, "_UNBOUNDED", 0)
            mp.setattr(ripcheck, "_LEAD", int(rng.integers(1, 9)))
            mp.setattr(ripcheck, "_ENTRY_LIMIT", math.comb(n, K) * K)
            G = np.concatenate([ripcheck._grams(as_matrix(A)[None]) for A in stack])
            batched = ripcheck._gram_rics(G, K)
            singles = [exact_ric(A, K) for A in stack]
        for b, s in zip(batched, singles):
            assert (b.delta, b.lambda_min, b.lambda_max) == (s.delta, s.lambda_min, s.lambda_max)
            assert np.array_equal(b.witness_subset, s.witness_subset)
            assert b.subsets_eigensolved == s.subsets_eigensolved


@pytest.mark.parametrize("m, n, K", [(10, 8, 2), (12, 18, 2), (16, 14, 3), (20, 40, 5)])
def test_ric_search_arrays_match_the_reports(m, n, K):
    # the array search the harnesses read, on whole (at most 64 subsets),
    # cached and streamed enumerations: its deltas, witnesses and counts are
    # _gram_rics' reports field for field, and exact_ric's on each matrix
    # alone; it hands on eigenvalue extremes only where the whole
    # enumeration computed them
    matrices = [sensing.gaussian_sensing_matrix(m, n, seed) for seed in range(3)]
    G = ripcheck._grams(np.stack([A.T for A in matrices]).swapaxes(1, 2))
    count = math.comb(n, K)
    deltas, witnesses, solved, extremes = ripcheck._ric_search(G, K)
    assert deltas.shape == solved.shape == (3,) and witnesses.shape == (3, K)
    assert (extremes is None) == (count > ripcheck._UNBOUNDED)
    streamed = count * K > ripcheck._ENTRY_LIMIT
    assert streamed == ((m, n, K) == (20, 40, 5))
    for t, A in enumerate(matrices):
        for report in (ripcheck._gram_rics(G, K)[t], exact_ric(A, K)):
            assert (report.order, report.subsets_examined) == (K, count)
            assert report.delta == deltas[t]
            assert np.array_equal(report.witness_subset, witnesses[t])
            assert report.subsets_eigensolved == solved[t]
            if extremes:
                assert (report.lambda_min, report.lambda_max) == (extremes[0][t], extremes[1][t])


def test_bounded_block_takes_its_lead_then_one_round(monkeypatch):
    # every subset of a scaled identity ties, so no bound prunes: the 84
    # subsets are eigensolved in two rounds, the 16 lead subsets and then the
    # other 68, however few Grams an eigvalsh call may take, and the witness
    # once more for its extremes
    A = np.diag(math.sqrt(1.5) * np.ones(9))
    monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", math.comb(9, 3) * 3)
    sizes = []
    real = ripcheck._eigvals
    monkeypatch.setattr(ripcheck, "_eigvals", lambda G, t, sub: sizes.append(len(sub)) or real(G, t, sub))
    r = exact_ric(A, 3)
    assert sizes == [16, 68, 1]
    assert r.subsets_eigensolved == r.subsets_examined == 84
    delta, witness, lo, hi = ric_unpruned(A, 3)
    assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
    assert np.array_equal(r.witness_subset, witness)
    assert np.array_equal(witness, [0, 1, 2])


def test_exact_ric_budget_admits_exactly_its_count():
    A = gaussian_sensing_matrix(12, 8, 0)  # C(8, 3) = 56
    assert exact_ric(A, 3, budget=56).subsets_examined == 56
    with pytest.raises(CapacityError, match=r"C\(8, 3\) = 56 subsets exceeds"):
        exact_ric(A, 3, budget=55)


def test_exact_ric_budget_and_validation():
    A = gaussian_sensing_matrix(8, 20, seed=1)
    with pytest.raises(CapacityError) as err:
        exact_ric(A, 10, budget=1000)
    assert err.value.count == math.comb(20, 10)
    with pytest.raises(ValueError):
        exact_ric(A, 0)
    with pytest.raises(ValueError):
        exact_ric(A, 21)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            exact_ric(A, 2, budget=bad)


def test_exact_ric_rejects_overflowing_gram():
    # A is finite but A^T A is not; its NaN deltas must not pass as a result
    A = np.diag([1e200, 1.0, 1.0])
    B = np.random.default_rng(0).standard_normal((40, 33))
    B[:, 0] *= 1e200
    for M, K in ((A, 2), (B, 5)):
        with pytest.raises(ValueError, match="overflows"):
            exact_ric(M, K)


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("m, n", [(5, 1), (1, 4), (4, 9), (12, 7), (20, 24)])
def test_stacked_grams_match_one_matrix_products(m, n, normalize):
    # one stacked matmul gives each Gram bit for bit as A.T @ A does alone,
    # symmetric, for harness draws (a (T, n, m) stack read as its matrices)
    # and for a validated matrix stacked alone, as exact_ric forms it
    for T in (1, 2, 7):
        seeds = [splitmix64(1000 * m + 10 * n + t) for t in range(T)]
        AT = np.empty((T, n, m))
        sensing._gaussian_draw(AT, np.empty((T, m, n)), seeds, normalize)
        A = AT.swapaxes(1, 2)
        G = ripcheck._grams(A)
        assert G.shape == (T, n, n)
        assert np.array_equal(G, G.swapaxes(1, 2))
        for t in range(T):
            assert G[t].tobytes() == (A[t].T @ A[t]).tobytes()
            one = as_matrix(A[t])
            assert ripcheck._grams(one[None])[0].tobytes() == (one.T @ one).tobytes()


def test_stacked_grams_refuse_one_overflowing_matrix():
    # one matrix of the stack with a column near 1e200 refuses the stack,
    # with exact_ric's message and no overflow warning
    AT = np.empty((3, 6, 4))
    sensing._gaussian_draw(AT, np.empty((3, 4, 6)), [1, 2, 3], True)
    AT[1, 2] *= 1e200  # column 2 of the second matrix
    with pytest.raises(ValueError, match=r"A\^T A overflows: the Gram matrix has non-finite"):
        ripcheck._grams(AT.swapaxes(1, 2))
    assert np.isfinite(ripcheck._grams(AT[[0, 2]].swapaxes(1, 2))).all()


@pytest.mark.parametrize("n, columns, scale, order, limit", [
    pytest.param(70, [3], 1e80, 1, None, id="1"),
    pytest.param(70, [3], 1e80, 2, None, id="2"),
    pytest.param(20, [3, 11], 1e77, 3, None, id="3-two-columns"),
    pytest.param(20, [3, 11], 1e77, 3, 400, id="3-two-columns-streamed"),
])
def test_exact_ric_huge_finite_gram_matches_unpruned(monkeypatch, n, columns, scale,
                                                     order, limit):
    # Gram entries near 1e160 square past the float maximum, and two columns
    # near 1e154 square to finite terms whose sums do, so the pruning bound
    # is +inf and prunes nothing; the warning filter fails the test on any
    # overflow report, from a whole table or, under a lower entry limit, from
    # the prefixes of a streamed one
    A = np.array(gaussian_sensing_matrix(12, n, seed=3))
    A[:, columns] *= scale
    if limit is not None:
        monkeypatch.setattr(ripcheck, "_ENTRY_LIMIT", limit)
    delta, witness, lo, hi = ric_unpruned(A, order)
    r = exact_ric(A, order)
    assert (r.delta, r.lambda_min, r.lambda_max) == (delta, lo, hi)
    assert np.array_equal(r.witness_subset, witness)


def test_witness_sums_terms_past_the_float_maximum_quietly():
    # Gram entries near 1e154 square to finite terms whose sums overflow:
    # the witness adds them with no overflow report (an error here), and the
    # two scaled columns, the only +inf pair, are its first choice
    A = np.array(gaussian_sensing_matrix(12, 20, seed=3))
    A[:, [3, 11]] *= 1e77
    G = ripcheck._grams(as_matrix(A)[None])
    assert np.isfinite(ripcheck._pair_squares(G)[0, 3, 3])
    witness, subsets = ripcheck._witness_deltas(G, 3)
    assert {3, 11} <= set(subsets[0].tolist())
    assert sharp_ric_bound(2) <= witness[0] <= ric_unpruned(A, 3)[0]


def test_ric_monotone_in_order():
    for seed in range(6):
        A = gaussian_sensing_matrix(12, 14, seed=seed)
        deltas = [exact_ric(A, k).delta for k in (1, 2, 3, 4)]
        for lo, hi in zip(deltas, deltas[1:]):
            assert lo <= hi + 1e-10


def test_sharp_ric_bound_values():
    assert sharp_ric_bound(1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert sharp_ric_bound(3) == pytest.approx(0.5, abs=1e-15)
    assert sharp_ric_bound(24) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        sharp_ric_bound(0)


def test_min_magnitude_bound_values():
    assert min_magnitude_bound(0.3, 2, 0.0) == 0.0
    assert min_magnitude_bound(0.0, 5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert min_magnitude_bound(0.25, 3, 0.1) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(ValueError):
        min_magnitude_bound(0.5, 3, 0.1)  # at the bound: undefined
    with pytest.raises(ValueError):
        min_magnitude_bound(-0.1, 3, 0.1)
    with pytest.raises(ValueError):
        min_magnitude_bound(0.25, 3, math.inf)


def test_check_conditions_identity():
    x = SparseSignal(dimension=5, support=[0], values=[1.0])
    v = check_theorem1_conditions(np.eye(5), x, 0.0)
    assert v.ric_ok and v.min_mag_ok and v.overall
    assert v.min_mag_bound == 0.0
    assert v.delta <= 1e-12


def test_check_conditions_lemma1_above_bound():
    A, x, _ = lemma1_example_instance(0.6)
    v = check_theorem1_conditions(A, x, 0.0)
    assert not v.ric_ok
    assert v.min_mag_bound == math.inf
    assert not v.overall


def test_check_conditions_lemma1_below_bound():
    A, x, _ = lemma1_example_instance(0.5)
    v = check_theorem1_conditions(A, x, 0.05)
    expected = 0.1 / (1.0 - math.sqrt(3.0) * 0.5)
    assert v.ric_ok
    assert v.min_mag_bound == pytest.approx(expected, rel=1e-12)
    assert v.min_mag_ok and v.overall


def test_check_conditions_magnitude_is_strict_at_an_exact_tie():
    # every Gram of the identity is exactly I: delta is 0.0 and the floor 2 eps
    eps = 0.05
    at_floor = SparseSignal(dimension=4, support=[0, 1], values=[2 * eps, -2 * eps])
    v = check_theorem1_conditions(np.eye(4), at_floor, eps)
    assert v.delta == 0.0 and v.min_mag_bound == 2 * eps
    assert v.ric_ok and not v.min_mag_ok and not v.overall
    above = np.nextafter(2 * eps, 1.0)
    v = check_theorem1_conditions(np.eye(4), SparseSignal(4, [0, 1], [above, -above]), eps)
    assert v.ric_ok and v.min_mag_ok and v.overall


def test_order_checks_need_a_column_beyond_the_support():
    # |support| + 1 > n: there is no order-(K+1) RIC, and exact_ric says so
    x = SparseSignal(dimension=3, support=[0, 1, 2], values=[1.0, 1.0, 1.0])
    order = r"order must lie in \[1, 3\], got 4"
    with pytest.raises(ValueError, match=order):
        check_theorem1_conditions(np.eye(3), x, 0.0)
    with pytest.raises(ValueError, match=order):
        verify_lemma1(np.eye(3), x, [0])


@pytest.mark.parametrize("K, digest", [
    (2, "c4a54429c90c6532800bed25ec9732ae77a0cfc26ebc41427156293bcef40227"),
    (3, "525e19bfd8c4e4da49f9b18d602de156892253edaf1fc1254e712e014dd6729f"),
])
def test_verdicts_at_the_threshold_keep_their_bytes(monkeypatch, K, digest):
    # condition_verdict_json and comparison_report at delta = the sharp bound,
    # one ulp below it and 0, for eps = 0 and eps > 0, as first recorded; the
    # RIC is stubbed so delta sits exactly there
    sharp = sharp_ric_bound(K)
    x = SparseSignal(dimension=K + 2, support=range(K), values=[1.5, -2.0, 3.0][:K])
    texts = []
    for delta in (sharp, math.nextafter(sharp, 0.0), 0.0):
        report = ripcheck.RicReport(K + 1, delta, np.arange(K + 1), 1 - delta, 1 + delta, 1, 1)
        monkeypatch.setattr(ripcheck, "exact_ric", lambda A, order: report)
        for eps in (0.0, 0.05):
            verdict = check_theorem1_conditions(np.eye(K + 2), x, eps)
            comparison = comparison_report(K, delta, eps)
            assert (verdict.min_mag_bound == math.inf) == (delta == sharp)
            assert comparison.sharp_min_mag == verdict.min_mag_bound
            texts.append(condition_verdict_json(verdict))
            texts.append(json.dumps(asdict(comparison)))
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_verify_lemma1_worked_example():
    A, x, S = lemma1_example_instance(0.5)
    chk = verify_lemma1(A, x, S)
    assert chk.lhs == pytest.approx(0.5, abs=1e-12)
    assert chk.rhs == pytest.approx(1.0 - math.sqrt(2.0) * 0.5, abs=1e-12)
    assert chk.holds


def test_verify_lemma1_empty_selection_identity():
    x = SparseSignal(dimension=3, support=[0, 1], values=[1.0, 1.0])
    chk = verify_lemma1(np.eye(3), x, [])
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.rhs == pytest.approx(1.0, abs=1e-12)
    assert chk.holds


def test_verify_lemma1_random_sweep():
    # every proper selection subset on instances whose order-(K+1) RIC < 1
    import itertools

    checked = 0
    for seed in range(40):
        A = gaussian_sensing_matrix(12, 18, seed=300 + seed)
        x = random_sparse_signal(18, 1, 1.0, 10.0, seed=600 + seed)
        delta = exact_ric(A, 2).delta
        if delta >= 1.0:
            continue
        chk = verify_lemma1(A, x, [], delta_k1=delta)
        assert chk.holds
        checked += 1
    for seed in range(12):
        A = gaussian_sensing_matrix(64, 16, seed=900 + seed)
        x = random_sparse_signal(16, 3, 1.0, 10.0, seed=1200 + seed)
        delta = exact_ric(A, 4).delta
        if delta >= 1.0:
            continue
        for size in (0, 1, 2):
            for S in itertools.combinations(x.support.tolist(), size):
                assert verify_lemma1(A, x, S, delta_k1=delta).holds
                checked += 1
    assert checked >= 30


def test_verify_lemma1_validation():
    A, x, _ = lemma1_example_instance(0.2)
    with pytest.raises(ValueError):
        verify_lemma1(A, x, [2])  # not inside the support
    with pytest.raises(ValueError):
        verify_lemma1(A, x, [0, 1])  # not a proper subset


@pytest.mark.parametrize("delta_k1", [math.nan, math.inf, -math.inf, -0.1, -1e-300])
def test_verify_lemma1_rejects_invalid_delta(delta_k1):
    # a NaN delta would give rhs = nan and holds = False: a violation
    # verdict on no evidence
    A, x, S = lemma1_example_instance(0.2)
    with pytest.raises(ValueError, match="delta_k1 must be non-negative and finite"):
        verify_lemma1(A, x, S, delta_k1=delta_k1)
    verify_lemma1(A, x, S, delta_k1=0.0)  # zero is a valid delta
    assert verify_lemma1(A, x, S, delta_k1=0.2).holds


def test_correlation_energy_bound_lemma3():
    # ||A_S^T w||^2 <= (1 + delta_k) ||w||^2 for random (A, S, w), |S| <= k
    rng = np.random.default_rng(31)
    for trial in range(200):
        A = gaussian_sensing_matrix(12, 16, seed=2000 + trial)
        k = int(rng.integers(1, 4))
        size = int(rng.integers(1, k + 1))
        S = np.sort(rng.permutation(16)[:size])
        w = rng.standard_normal(12)
        delta = exact_ric(A, k).delta
        lhs = np.linalg.norm(A[:, S].T @ w) ** 2
        rhs = (1.0 + delta) * np.linalg.norm(w) ** 2
        assert lhs <= rhs + 1e-9


def test_projected_energy_sandwich_lemma4():
    from omplab import projection_residual

    rng = np.random.default_rng(32)
    for trial in range(200):
        A = gaussian_sensing_matrix(14, 12, seed=4000 + trial)
        s1_size = int(rng.integers(0, 3))
        perm = rng.permutation(12)
        S1 = np.sort(perm[:s1_size])
        rest_size = int(rng.integers(1, 3))
        S2_extra = np.sort(perm[s1_size : s1_size + rest_size])
        union = np.sort(np.concatenate([S1, S2_extra]))
        delta = exact_ric(A, union.size).delta
        u = rng.standard_normal(rest_size)
        z = projection_residual(A[:, S1], A[:, S2_extra] @ u)
        energy = np.linalg.norm(z) ** 2
        uu = np.linalg.norm(u) ** 2
        assert (1.0 - delta) * uu - 1e-9 <= energy <= (1.0 + delta) * uu + 1e-9


def test_ric_bound_comparison_all_k():
    for K in range(1, 1001):
        assert sharp_ric_bound(K) - chang_wu_ric_bound(K) > 1e-12


def test_comparison_report_k2():
    rep = comparison_report(2, 0.4, 1.0)
    assert rep.chang_wu_ric_bound == pytest.approx(0.5, abs=1e-15)
    assert rep.sharp_ric_bound == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert rep.ric_bound_weaker


def test_comparison_report_delta_zero_equality():
    rep = comparison_report(3, 0.0, 1.0)
    assert rep.chang_wu_min_mag == pytest.approx(2.0, abs=1e-15)
    assert rep.sharp_min_mag == pytest.approx(2.0, abs=1e-15)
    assert rep.min_mag_weaker
    assert not rep.min_mag_strictly_weaker


def test_comparison_report_strict_case():
    rep = comparison_report(4, 0.3, 1.0)
    ours = 2.0 / (1.0 - math.sqrt(5.0) * 0.3)
    theirs = (math.sqrt(1.3) + 1.0) / (
        1.0 - 0.3 - math.sqrt(0.7) * 2.0 * 0.3
    )
    assert rep.sharp_min_mag == pytest.approx(ours, rel=1e-12)
    assert rep.chang_wu_min_mag == pytest.approx(theirs, rel=1e-12)
    assert rep.min_mag_weaker and rep.min_mag_strictly_weaker


def test_comparison_chang_wu_undefined_denominator():
    # large delta with large K sends the prior bound's denominator negative
    assert chang_wu_min_mag_bound(0.9, 10, 1.0) == math.inf
    rep = comparison_report(2, 0.5, 1.0)
    assert rep.sharp_min_mag_defined
    if not rep.chang_wu_min_mag_defined:
        assert rep.min_mag_weaker


def test_comparison_rejects_non_finite_epsilon():
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            chang_wu_min_mag_bound(0.1, 2, eps)
        # delta = 0.7 is above the sharp bound for K = 2, so only the prior
        # bound reads epsilon
        with pytest.raises(ValueError, match="non-negative and finite"):
            comparison_report(2, 0.7, eps)
    with pytest.raises(ValueError, match="non-negative and finite"):
        comparison_report(2, 0.1, math.nan)


def test_bound_ordering_chain():
    # 2 eps / (1 - sqrt(K+1) delta) >= 2 eps / sqrt(1 - delta) on the grid
    for K in range(1, 21):
        bound = sharp_ric_bound(K)
        for delta in np.linspace(0.0, bound, 102)[:-1]:
            lhs = 2.0 / (1.0 - math.sqrt(K + 1.0) * delta)
            rhs = 2.0 / math.sqrt(1.0 - delta)
            assert lhs >= rhs - 1e-12


def test_report_json_keys():
    A = gaussian_sensing_matrix(8, 10, seed=2)
    payload = json.loads(ric_report_json(exact_ric(A, 2)))
    assert set(payload) == {
        "order", "delta", "witness", "lambda_min", "lambda_max",
        "subsets_examined",
    }
    x = random_sparse_signal(10, 2, 1.0, 2.0, seed=3)
    verdict = check_theorem1_conditions(A, x, 0.1)
    parsed = json.loads(condition_verdict_json(verdict))
    assert set(parsed) == {
        "ric_ok", "ric_bound", "min_mag_ok", "min_mag_bound", "overall", "delta",
    }
