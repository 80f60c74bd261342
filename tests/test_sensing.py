import math
import sys
import threading

import numpy as np
import pytest

from omplab import (
    ProblemInstance,
    SparseSignal,
    StopRule,
    as_matrix,
    as_vector,
    chang_wu_min_mag_bound,
    chang_wu_ric_bound,
    comparison_report,
    format_matrix,
    format_signal,
    gaussian_sensing_matrix,
    generate_measurement,
    lemma1_example_instance,
    load_problem_instance,
    noise_vector,
    omp_run,
    parse_signal,
    philox_generator,
    random_sparse_signal,
    save_problem_instance,
    splitmix64,
    verify_lemma1,
    write_vector,
)
from omplab import sensing

from _oracles import ZeroColumn, ZeroNoise, gaussian_matrix_one_draw, same_state


def test_sparse_signal_basics():
    x = SparseSignal(dimension=6, support=[1, 4], values=[2.0, -0.5])
    assert x.sparsity == 2
    assert x.min_magnitude() == 0.5
    assert np.array_equal(x.to_dense(), [0, 2.0, 0, 0, -0.5, 0])


def test_sparse_signal_empty_allowed():
    x = SparseSignal(dimension=4, support=[], values=[])
    assert x.sparsity == 0
    assert x.min_magnitude() == np.inf
    assert np.array_equal(x.to_dense(), np.zeros(4))
    # integral floats are integers
    y = SparseSignal(dimension=4.0, support=[1.0, 2.0], values=[1.0, 2.0])
    assert type(y.dimension) is int and y.support.dtype == np.intp
    assert np.array_equal(y.support, [1, 2])


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        SparseSignal(dimension=3, support=[0, 0], values=[1.0, 1.0])
    with pytest.raises(ValueError):
        SparseSignal(dimension=3, support=[2, 1], values=[1.0, 1.0])
    with pytest.raises(ValueError):
        SparseSignal(dimension=3, support=[0, 3], values=[1.0, 1.0])
    with pytest.raises(ValueError):
        SparseSignal(dimension=3, support=[0], values=[0.0])


_X8 = SparseSignal(8, [1, 2], [1.0, 1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: as_matrix(np.ones(3)), "must be 2-D"),
    (lambda: as_matrix(np.ones((0, 3))), "at least one row"),
    (lambda: as_vector(np.ones((2, 2))), "must be 1-D"),
    (lambda: omp_run(np.eye(3), [1.0, np.nan, 0.0], StopRule.max_iterations(1)),
     "y contains non-finite entries"),
    (lambda: format_matrix(np.ones((2, 0))), "zero-column"),
    (lambda: verify_lemma1(np.ones((4, 7)), _X8, [1]), "matrix columns must match"),
    (lambda: verify_lemma1(np.eye(8), _X8, [1, 1]), "S contains duplicates"),
    (lambda: chang_wu_ric_bound(0), "K must be at least 1"),
    (lambda: chang_wu_min_mag_bound(0.1, 0, 0.1), "K must be at least 1"),
    (lambda: comparison_report(0, 0.1, 0.1), "K must be at least 1"),
    (lambda: chang_wu_min_mag_bound(1.0, 2, 0.1), r"delta must lie in \[0, 1\)"),
    (lambda: SparseSignal(8, [1, 2], [1.0]), "equal length"),
    (lambda: SparseSignal(4.9, [1, 2], [1.0, 2.0]), "dimension must be positive and integral"),
    (lambda: SparseSignal(4, [1.7, 2.2], [1.0, 2.0]), "support indices must be integral"),
    (lambda: SparseSignal(4.9, [1.7, 2.2], [1.0, 2.0]), "dimension must be positive and integral"),
    (lambda: SparseSignal(4, [1, np.nan], [1.0, 2.0]), "support indices must be integral"),
    (lambda: SparseSignal(4, [1, np.inf], [1.0, 2.0]), "support indices must be integral"),
    (lambda: verify_lemma1(*lemma1_example_instance(0.3)[:2], [0.7]),
     "support indices must be integral"),
    (lambda: omp_run(np.eye(4), np.ones(4), StopRule.max_iterations(1), true_support=[2.5]),
     "support indices must be integral"),
    (lambda: ProblemInstance(np.ones((4, 7)), _X8, np.zeros(4), np.zeros(4)),
     "matrix columns must match"),
    (lambda: noise_vector(0, 0.1, 1), "m must be positive"),
    (lambda: generate_measurement(np.ones((4, 7)), _X8),
     "matrix has 7 columns but signal dimension is 8"),
    (lambda: gaussian_sensing_matrix(0, 3, 1), "matrix dimensions must be positive"),
    (lambda: random_sparse_signal(0, 1, 1.0, 2.0, 1), "n must be positive"),
])
def test_library_refuses_malformed_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_measurement_identity_no_noise():
    x = SparseSignal(dimension=3, support=[0], values=[1.0])
    inst = generate_measurement(np.eye(3), x)
    assert np.array_equal(inst.measurement, [1.0, 0.0, 0.0])
    assert np.array_equal(inst.noise, np.zeros(3))


def test_measurement_lemma1_product():
    A, x, _ = lemma1_example_instance(0.5)
    inst = generate_measurement(A, x)
    assert np.allclose(
        inst.measurement, [np.sqrt(1.5), np.sqrt(0.5), 0.0], atol=0, rtol=0
    )


def test_sphere_noise_norm_across_seeds():
    for seed in range(1000):
        v = noise_vector(7, 0.1, seed)
        assert abs(np.linalg.norm(v) - 0.1) <= 1e-12


def test_noise_determinism_and_zero_eps():
    assert np.array_equal(noise_vector(6, 0.2, 99), noise_vector(6, 0.2, 99))
    assert np.array_equal(noise_vector(4, 0.0, 1), np.zeros(4))
    A = np.eye(4)
    x = SparseSignal(dimension=4, support=[0], values=[1.0])
    for bad in (-0.1, float("inf")):
        with pytest.raises(ValueError):
            noise_vector(4, bad, 1)
        with pytest.raises(ValueError):
            generate_measurement(A, x, bad)


def test_noise_vector_matches_the_keyed_sphere_formula():
    # bit for bit the draw of Philox keyed with the seed (wrapped to 64 bits),
    # scaled to norm eps, so swapping m, eps or seed shows
    for seed in (0, 5, -1, 2**64 + 5):
        for m in (1, 7):
            g = np.random.Generator(np.random.Philox(key=seed % 2**64)).standard_normal(m)
            assert np.array_equal(noise_vector(m, 0.3, seed), g * (0.3 / np.linalg.norm(g)))
            assert np.array_equal(noise_vector(m, 0.0, seed), np.zeros(m))


def test_gaussian_matrix_normalized_columns():
    A = gaussian_sensing_matrix(10, 20, seed=5, normalize_columns=True)
    assert np.abs(np.linalg.norm(A, axis=0) - 1.0).max() <= 1e-12


def test_gaussian_matrix_determinism():
    A = gaussian_sensing_matrix(8, 13, seed=21)
    B = gaussian_sensing_matrix(8, 13, seed=21)
    assert np.array_equal(A, B)
    C = gaussian_sensing_matrix(8, 13, seed=22)
    assert not np.array_equal(A, C)


@pytest.mark.parametrize(
    "key",
    [0, 1, 2**63, 2**64 - 1, -1, -(2**63), 2**64 + 5, 2**65 + 1]
    + [splitmix64(i) for i in range(20)],
)
def test_philox_generator_matches_keyed_philox(key):
    # the same state as Philox keyed with the key wrapped to 64 bits, and the
    # same stream bit for bit
    got = philox_generator(key)
    want = np.random.Generator(np.random.Philox(key=key % 2**64))
    assert same_state(got.bit_generator.state, want.bit_generator.state)
    assert got.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()
    assert same_state(got.bit_generator.state, want.bit_generator.state)


def test_philox_generator_draws_no_os_entropy():
    # the generator is built on a fixed SeedSequence(0), not one from OS entropy
    assert philox_generator(5).bit_generator.seed_seq.entropy == 0


def test_keyed_draws_in_threads_match_serial_draws():
    # each thread re-keys a generator of its own: signals drawn in two
    # threads while matrices are drawn in two others, switching threads as
    # often as the interpreter allows, equal the same calls made one by one
    seeds = [splitmix64(i) for i in range(300)]

    def signals():
        return [random_sparse_signal(40, 6, 1.0, 10.0, seed) for seed in seeds]

    def matrices():
        return [gaussian_sensing_matrix(6, 8, seed) for seed in seeds]

    draws = [signals, matrices, signals, matrices]
    serial = [draw() for draw in draws]
    results, start = [None] * len(draws), threading.Barrier(len(draws))

    def run(slot):
        start.wait(timeout=60)
        results[slot] = draws[slot]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(draws))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial[::2], results[::2]):
        for x, y in zip(want, got, strict=True):
            assert np.array_equal(x.support, y.support)
            assert x.values.tobytes() == y.values.tobytes()
    for want, got in zip(serial[1::2], results[1::2]):
        for A, B in zip(want, got, strict=True):
            assert A.tobytes(order="F") == B.tobytes(order="F")


@pytest.mark.parametrize("shape", [(12, 70), (128, 14), (9, 1), (1, 5), (40, 40)])
@pytest.mark.parametrize("normalize", [True, False])
def test_gaussian_matrix_matches_two_step_draw(shape, normalize):
    """Scaling and normalizing the draw in place equals doing it with a new
    array per step, byte for byte, and the result is Fortran-ordered."""
    m, n = shape
    seed = 1000 + m * n
    expected = philox_generator(seed).standard_normal((m, n)) / math.sqrt(m)
    if normalize:
        expected = expected / np.linalg.norm(expected, axis=0)
    expected = np.asfortranarray(expected)
    A = gaussian_sensing_matrix(m, n, seed, normalize_columns=normalize)
    assert A.flags.f_contiguous
    assert A.tobytes() == expected.tobytes()


@pytest.mark.parametrize("normalize", [True, False])
def test_one_matrix_and_stacked_draws_match_the_one_draw_formula(normalize):
    """gaussian_sensing_matrix and the harness's stacked draw (one scratch
    buffer for a whole stack) are one code path, and both equal the C-order
    draw normalized in place, bit for bit."""
    for m, n in [(12, 70), (128, 14), (9, 1), (1, 5), (40, 40), (64, 256)]:
        seeds = [splitmix64(m * 1000 + n + t) for t in range(4)]
        stack, scratch = np.empty((len(seeds), n, m)), np.empty((len(seeds), m, n))
        sensing._gaussian_draw(stack, scratch, seeds, normalize)
        for t, seed in enumerate(seeds):
            want = gaussian_matrix_one_draw(m, n, seed, normalize)
            A = gaussian_sensing_matrix(m, n, seed, normalize_columns=normalize)
            assert A.flags.f_contiguous and stack[t].T.flags.f_contiguous
            assert A.tobytes(order="F") == want.tobytes(order="F")
            assert stack[t].T.tobytes(order="F") == want.tobytes(order="F")


def test_zero_column_raises_in_every_draw(monkeypatch):
    monkeypatch.setattr(sensing, "_keyed", lambda seed: ZeroColumn())
    with pytest.raises(ArithmeticError, match="zero column"):
        gaussian_sensing_matrix(6, 4, seed=1)
    with pytest.raises(ArithmeticError, match="zero column"):
        sensing._gaussian_draw(np.empty((1, 4, 6)), np.empty((1, 6, 4)), [1], True)
    assert np.array_equal(gaussian_sensing_matrix(6, 4, 1, normalize_columns=False),
                          np.outer(np.ones(6), [1, 0, 1, 1]) / math.sqrt(6))


def test_zero_noise_direction_raises(monkeypatch):
    # a zero noise draw has no direction to scale; like a zero column, it is
    # refused, not redrawn
    monkeypatch.setattr(sensing, "_keyed", ZeroNoise)
    with pytest.raises(ArithmeticError, match="drew a zero noise direction; reseed"):
        noise_vector(5, 0.1, 1)
    assert np.array_equal(noise_vector(5, 0.0, 1), np.zeros(5))


def test_gaussian_matrix_sample_statistics():
    m, n = 64, 128
    A = gaussian_sensing_matrix(m, n, seed=0, normalize_columns=False)
    assert abs(A.mean()) <= 4.0 / np.sqrt(m * n)
    assert abs(A.var() - 1.0 / m) <= 0.1 / m


def test_lemma1_instance_shapes():
    A, x, S = lemma1_example_instance(0.0)
    assert np.array_equal(A, np.eye(3))
    assert np.array_equal(x.support, [0, 1])
    assert np.array_equal(x.values, [1.0, 1.0])
    assert np.array_equal(S, [0])
    A, _, _ = lemma1_example_instance(0.5)
    assert np.allclose(
        np.diag(A), [np.sqrt(1.5), np.sqrt(0.5), np.sqrt(1.5)], atol=0, rtol=0
    )
    with pytest.raises(ValueError):
        lemma1_example_instance(1.0)
    with pytest.raises(ValueError):
        lemma1_example_instance(-0.01)


def test_random_signal_degenerate_uniform():
    x = random_sparse_signal(4, 4, 2.5, 1.0, seed=7, sign_pattern="positive")
    assert np.array_equal(x.support, np.arange(4))
    assert np.allclose(x.values, 2.5, atol=0, rtol=0)


def test_random_signal_min_magnitude_guarantee():
    for seed in range(1000):
        x = random_sparse_signal(20, 5, 1.0, 10.0, seed=seed)
        assert x.min_magnitude() >= 1.0


def test_random_signal_support_uniformity():
    # chi-square style check: all 15 supports of (n=6, K=2) within 5 sigma
    counts = {}
    draws = 50000
    for seed in range(draws):
        x = random_sparse_signal(6, 2, 1.0, 1.0, seed=seed)
        key = tuple(x.support.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    p = 1.0 / 15.0
    sigma = np.sqrt(draws * p * (1 - p))
    for key, c in counts.items():
        assert abs(c - draws * p) <= 5.0 * sigma, (key, c)


def test_random_signal_validation():
    with pytest.raises(ValueError):
        random_sparse_signal(4, 5, 1.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        random_sparse_signal(4, 2, 0.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        random_sparse_signal(4, 2, 1.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_sparse_signal(4, 2, 1.0, 2.0, seed=0, sign_pattern="alternating")
    with pytest.raises(ValueError):
        random_sparse_signal(4, 2, 1e308, 10.0, seed=0)  # range overflows
    with pytest.raises(ValueError):
        random_sparse_signal(4, 2, np.inf, 1.0, seed=0)


def test_problem_instance_reconstruction_guard():
    A = np.eye(2)
    x = SparseSignal(dimension=2, support=[0], values=[1.0])
    with pytest.raises(ValueError):
        ProblemInstance(
            matrix=A, signal=x, noise=np.zeros(2), measurement=np.array([2.0, 0.0])
        )


def test_signal_text_roundtrip():
    x = SparseSignal(dimension=9, support=[2, 5, 7], values=[1.25, -3.5, 1e-3])
    back = parse_signal(format_signal(x))
    assert back.dimension == 9
    assert np.array_equal(back.support, x.support)
    assert np.array_equal(back.values, x.values)


def test_instance_directory_roundtrip(tmp_path):
    A = gaussian_sensing_matrix(6, 10, seed=3)
    x = random_sparse_signal(10, 3, 1.0, 4.0, seed=8)
    inst = generate_measurement(A, x, 0.05, seed=2)
    d = tmp_path / "inst"
    save_problem_instance(d, inst)
    back = load_problem_instance(d)
    assert np.array_equal(back.matrix, inst.matrix)
    assert np.array_equal(back.signal.support, inst.signal.support)
    assert np.array_equal(back.signal.values, inst.signal.values)
    assert np.array_equal(back.noise, inst.noise)
    assert np.array_equal(back.measurement, inst.measurement)
    # a noise file with the wrong length is outside input, refused on load
    write_vector(d / "v.vec", np.zeros(5))
    with pytest.raises(ValueError, match="noise and measurement must have matrix.rows entries"):
        load_problem_instance(d)


def test_splitmix64_fixed_algorithm():
    # fixed constants; first outputs of the counter at 0 and 1
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(0) != splitmix64(1)
    assert 0 <= splitmix64(12345) < (1 << 64)
