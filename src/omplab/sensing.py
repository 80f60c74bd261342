"""Problem-instance construction: sensing matrices, sparse signals, noise.

Randomness policy, shared package-wide: every generator takes an explicit
64-bit seed and draws from numpy's Philox bit generator (Philox 4x64-10, a
counter-based PRNG) keyed directly with that seed, so streams are reproducible
across platforms and insensitive to the order in which trials run. Derived
seeds are produced with the SplitMix64 mixer, so parallel trials get
independent streams from ``master_seed ^ splitmix64(trial_index)``. One
function, ``_philox_state``, writes the keyed state: ``philox_generator`` sets
it on a new generator, and internal draws re-key one Philox generator per
thread (``_keyed``) to it, so they read the same streams without building a
generator per draw.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _as_indices,
    as_epsilon,
    as_matrix,
    as_vector,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)

MASK64 = (1 << 64) - 1

SIGN_PATTERNS = ("random", "positive")


def splitmix64(value):
    """SplitMix64 mixer; a fixed, documented 64-bit hash used to split seeds."""
    z = (int(value) + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _philox_state(seed):
    """The Philox state keyed directly with ``seed`` (wrapped to 64 bits):
    key words ``[seed, 0]``, counter and buffer zero, no buffered uint32.
    It is the state ``Philox(key=seed)`` starts in."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) & MASK64, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def philox_generator(seed):
    """Generator backed by Philox 4x64-10 keyed directly with ``seed``: the
    state and stream of ``Philox(key=seed)``, set from ``_philox_state``. Its
    ``bit_generator.seed_seq`` is a fixed ``SeedSequence(0)``, built without
    OS entropy, where that call leaves None; nothing reads it."""
    rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = _philox_state(seed)
    return rng


_THREAD = threading.local()


def _keyed(seed):
    """This thread's one Philox generator, re-keyed to ``_philox_state(seed)``,
    the state ``philox_generator(seed)`` starts in. Re-keying costs a fraction
    of building a generator. Each caller draws its stream before the next
    ``_keyed`` call."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = philox_generator(0)
    rng.bit_generator.state = _philox_state(seed)
    return rng


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A sparse vector stored as (dimension, sorted support, nonzero values).

    The empty signal (no support) is allowed; it is what the solver returns
    for degenerate measurements.
    """

    dimension: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.dimension
        if not (1 <= n < math.inf and n == int(n)):
            raise ValueError("dimension must be positive and integral")
        sup = _as_indices(self.support)
        val = np.asarray(self.values, dtype=float).reshape(-1)
        if sup.size != val.size:
            raise ValueError("support and values must have equal length")
        if sup.size:
            if sup.min() < 0 or sup.max() >= n:
                raise ValueError(f"support indices must lie in [0, {n})")
            if (sup[1:] <= sup[:-1]).any():
                raise ValueError("support must be strictly increasing")
            if not np.isfinite(val).all() or (val == 0.0).any():
                raise ValueError("values must be finite and nonzero")
        object.__setattr__(self, "dimension", int(n))
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "values", val)

    @property
    def sparsity(self):
        return int(self.support.size)

    def min_magnitude(self):
        """Smallest |value|; +inf for the empty signal."""
        if self.values.size == 0:
            return math.inf
        return float(np.abs(self.values).min())

    def to_dense(self):
        dense = np.zeros(self.dimension)
        dense[self.support] = self.values
        return dense


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A measurement y = A x + v together with its ingredients; y must
    reconstruct as _measurement's, within 1e-12 relative."""

    matrix: np.ndarray
    signal: SparseSignal
    noise: np.ndarray
    measurement: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.matrix)
        v = as_vector(self.noise, "noise")
        y = as_vector(self.measurement, "measurement")
        if A.shape[1] != self.signal.dimension:
            raise ValueError("matrix columns must match signal dimension")
        if A.shape[0] != v.size or A.shape[0] != y.size:
            raise ValueError("noise and measurement must have matrix.rows entries")
        recon = _measurement(A, self.signal.support, self.signal.values, v)
        scale = 1.0 + float(np.abs(y).max()) if y.size else 1.0
        if np.abs(recon - y).max() > 1e-12 * scale:
            raise ValueError("measurement does not reconstruct as A x + v")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "noise", v)
        object.__setattr__(self, "measurement", y)


def noise_vector(m, epsilon, seed):
    """Noise for an m-row instance: a Gaussian direction drawn from ``seed``,
    scaled to norm ``epsilon`` (zeros when ``epsilon`` is 0). A zero draw
    has no direction and raises ArithmeticError, as a zero matrix column
    does."""
    if m < 1:
        raise ValueError("m must be positive")
    if as_epsilon(epsilon) == 0.0:
        return np.zeros(m)
    g = _keyed(seed).standard_normal(m)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise ArithmeticError("drew a zero noise direction; reseed")
    return g * (epsilon / norm)


def _measurement(A, support, values, v):
    """The one measurement y = A x + v, with x built as ``to_dense`` builds
    it: zeros, and ``values`` at ``support``."""
    x = np.zeros(A.shape[1])
    x[support] = values
    return A @ x + v


def generate_measurement(A, signal, epsilon=0.0, seed=0):
    """Form y = A x + v (_measurement) with v = ``noise_vector(rows,
    epsilon, seed)``; the default is the noiseless y = A x."""
    A = as_matrix(A)
    if A.shape[1] != signal.dimension:
        raise ValueError(
            f"matrix has {A.shape[1]} columns but signal dimension is "
            f"{signal.dimension}"
        )
    v = noise_vector(A.shape[0], epsilon, seed)
    y = _measurement(A, signal.support, signal.values, v)
    return ProblemInstance(matrix=A, signal=signal, noise=v, measurement=y)


def gaussian_sensing_matrix(m, n, seed, normalize_columns=True):
    """m x n matrix with i.i.d. N(0, 1/m) entries from a Philox stream.

    With 1/m variance the raw columns concentrate near unit norm, which keeps
    restricted-isometry constants in a useful range at desk scale. With
    ``normalize_columns`` every column is rescaled to exact unit length.

    This is the stack-of-one view of ``_gaussian_draw``, which stacks of
    draws share.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    out = np.empty((1, n, m))
    _gaussian_draw(out, np.empty((1, m, n)), [seed], normalize_columns)
    return out[0].T


def _gaussian_draw(out, scratch, seeds, normalize_columns):
    """Write the m x n draws of ``gaussian_sensing_matrix`` for ``seeds``
    into ``out``, a (T, n, m) C-contiguous stack (each matrix in Fortran
    layout), through ``scratch``, a (T, m, n) C-contiguous buffer.

    The normals are drawn and scaled in place in C order, where the column
    norms' summation order is fixed. The norms are np.linalg.norm's formula,
    sqrt(add.reduce(x * x, axis=1)) per matrix, with the squares held in
    ``out``; the column division then writes the transposed draws into
    ``out``. So the peak is the two buffers, and every value is the same as
    a C-order draw's normalized alone and copied to Fortran order.
    """
    T, m, n = scratch.shape
    for x, seed in zip(scratch, seeds):
        _keyed(seed).standard_normal(out=x)
    scratch /= math.sqrt(m)
    if not normalize_columns:
        np.copyto(out, scratch.transpose(0, 2, 1))
        return
    squares = out.reshape(T, m, n)  # out's memory, in scratch's layout
    np.multiply(scratch, scratch, out=squares)
    norms = np.sqrt(np.add.reduce(squares, axis=1))
    if np.any(norms == 0.0):
        raise ArithmeticError("drew a zero column; reseed")
    np.divide(scratch.transpose(0, 2, 1), norms[:, :, None], out=out)


def lemma1_example_instance(delta):
    """The 3x3 worked example: a diagonal matrix whose order-3 RIC is delta.

    Returns (A, signal, S) where A = diag(sqrt(1+delta), sqrt(1-delta),
    sqrt(1+delta)), the signal is 2-sparse with support {0, 1} and unit
    values, and S = {0} is the partial selection that ``verify_lemma1``,
    demo 01 and the tests take.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    A = np.diag(
        [math.sqrt(1.0 + delta), math.sqrt(1.0 - delta), math.sqrt(1.0 + delta)]
    )
    signal = SparseSignal(dimension=3, support=[0, 1], values=[1.0, 1.0])
    S = np.array([0], dtype=np.intp)
    return as_matrix(A), signal, S


def random_sparse_signal(n, K, min_mag, dynamic_range, seed, sign_pattern="random"):
    """K-sparse signal with uniform support and magnitudes bounded below.

    Support is a uniform K-subset of [0, n) (Fisher-Yates permutation prefix).
    Magnitudes are uniform on [min_mag, min_mag * dynamic_range], so
    ``min_magnitude() >= min_mag`` is guaranteed. Draw order: support,
    magnitudes, signs. The draw is ``_signal_draw``'s.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if K < 1 or K > n:
        raise ValueError(f"K must lie in [1, {n}], got {K}")
    if min_mag <= 0:
        raise ValueError("min_mag must be positive")
    if dynamic_range < 1:
        raise ValueError("dynamic_range must be at least 1")
    if not math.isfinite(min_mag * dynamic_range):
        raise ValueError("min_mag and min_mag * dynamic_range must be finite")
    if sign_pattern not in SIGN_PATTERNS:
        raise ValueError(f"sign_pattern must be one of {SIGN_PATTERNS}")
    support, values = _signal_draw(n, K, min_mag, dynamic_range, seed, sign_pattern)
    return SparseSignal(dimension=n, support=support, values=values)


def _signal_draw(n, K, min_mag, dynamic_range, seed, sign_pattern):
    """The support (sorted) and values of ``random_sparse_signal``,
    from the same Philox calls in the same order; trusted: its callers check
    the arguments first."""
    rng = _keyed(seed)
    support = np.sort(rng.permutation(n)[:K])
    values = rng.uniform(min_mag, min_mag * dynamic_range, size=K)  # the magnitudes
    if sign_pattern == "random":
        values *= rng.integers(0, 2, size=K) * 2.0 - 1.0
    return support, values


# ---------------------------------------------------------------------------
# Text serialization. Signal format: first line "n K", then K lines of
# "index value". A problem instance serializes as a directory holding
# A.mat, x.sig, v.vec and y.vec in the shared formats.
# ---------------------------------------------------------------------------


def format_signal(signal):
    lines = [f"{signal.dimension} {signal.sparsity}"]
    for idx, val in zip(signal.support, signal.values):
        lines.append(f"{int(idx)} {val:.17g}")
    return "\n".join(lines) + "\n"


def parse_signal(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty signal text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("signal header must be 'n K'")
    n, k = int(header[0]), int(header[1])
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} entries, got {len(lines) - 1}")
    support = []
    values = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError("signal entries must be 'index value'")
        support.append(int(parts[0]))
        values.append(float(parts[1]))
    return SparseSignal(dimension=n, support=support, values=values)


def write_signal(path, signal):
    with open(path, "w") as fh:
        fh.write(format_signal(signal))


def read_signal(path):
    with open(path) as fh:
        return parse_signal(fh.read())


def save_problem_instance(directory, instance):
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, "A.mat"), instance.matrix)
    write_signal(os.path.join(directory, "x.sig"), instance.signal)
    write_vector(os.path.join(directory, "v.vec"), instance.noise)
    write_vector(os.path.join(directory, "y.vec"), instance.measurement)


def load_problem_instance(directory):
    A = read_matrix(os.path.join(directory, "A.mat"))
    signal = read_signal(os.path.join(directory, "x.sig"))
    v = read_vector(os.path.join(directory, "v.vec"))
    y = read_vector(os.path.join(directory, "y.vec"))
    return ProblemInstance(matrix=A, signal=signal, noise=v, measurement=y)
