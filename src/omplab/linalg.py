"""Dense linear-algebra kernels shared by the whole package.

Least squares and projection residuals go through Householder QR rather than
normal equations: squaring the condition number would corrupt experiments that
sit close to the restricted-isometry boundary. The triangular solves after QR
use ``numpy.linalg.solve``.

Matrices are float64 numpy arrays kept in column-major (Fortran) layout, since
the dominant access pattern is whole-column extraction. Vectors are 1-D
float64 arrays. Every function here is pure: inputs are never mutated and
there is no hidden state, so values are safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative rank tolerance: the smallest |R[i,i]| of the QR factor must exceed
#: this fraction of the largest, else the system is treated as singular.
DEFAULT_RANK_TOL = 1e-10


class SingularSystemError(Exception):
    """Least-squares matrix is rank deficient.

    Carries the index and magnitude of the offending QR diagonal entry.
    """

    def __init__(self, diagonal_index, diagonal_value, largest_diagonal):
        self.diagonal_index = int(diagonal_index)
        self.diagonal_value = float(diagonal_value)
        self.largest_diagonal = float(largest_diagonal)
        super().__init__(
            f"rank-deficient system: QR diagonal {self.diagonal_index} has "
            f"magnitude {self.diagonal_value:.3e} against largest "
            f"{self.largest_diagonal:.3e}"
        )


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-D finite float64 Fortran-ordered array.

    Zero-column matrices are permitted (they arise from empty index sets);
    zero-row matrices are not.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.asfortranarray(m)


def as_vector(v, name="vector"):
    """Validate and return ``v`` as a 1-D finite float64 array."""
    w = np.asarray(v, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={w.ndim}")
    if w.size and not np.isfinite(w).all():
        raise ValueError(f"{name} contains non-finite entries")
    return w


def as_epsilon(epsilon):
    """Return the noise radius ``epsilon`` unchanged if finite and non-negative."""
    if not (0 <= epsilon < math.inf):
        raise ValueError("epsilon must be non-negative and finite")
    return epsilon


def least_squares(A_S, y):
    """Minimize ||y - A_S x||_2 via Householder QR.

    Args:
        A_S: m x k matrix with full column rank.
        y: length-m vector.

    Returns:
        The length-k minimizer. The residual ``y - A_S x`` is orthogonal to
        every column of ``A_S`` up to roundoff.

    Raises:
        SingularSystemError: the QR diagonal reveals rank deficiency.
    """
    return _least_squares(as_matrix(A_S, "A_S"), as_vector(y, "y"))


def _least_squares(A_S, y):
    """:func:`least_squares` on an ``A_S`` and ``y`` already validated by
    ``as_matrix`` and ``as_vector``, or on stacks of them, (c, m, k) and
    (c, m): c minimizers, bit for bit as if each were solved alone."""
    m, k = A_S.shape[-2:]
    if m != y.shape[-1]:
        raise ValueError(f"shape mismatch: matrix has {m} rows, y has {y.shape[-1]}")
    if k == 0:
        return np.zeros(y.shape[:-1] + (0,))
    if k > m:
        raise ValueError(f"system has more columns ({k}) than rows ({m})")
    Q, R = np.linalg.qr(A_S)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).reshape(-1, k)
    largest = diag.max(axis=1)
    bad = (largest == 0.0) | (diag.min(axis=1) <= DEFAULT_RANK_TOL * largest)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularSystemError(np.argmin(diag[i]), diag[i].min(), largest[i])
    return np.linalg.solve(R, Q.swapaxes(-1, -2) @ y[..., None])[..., 0]


def projection_residual(A_S, y):
    """Residual of ``y`` after orthogonal projection onto the columns of A_S.

    Computes ``y - A_S * least_squares(A_S, y)``, i.e. the image of ``y``
    under the orthogonal-complement projector of span(A_S). For a zero-column
    ``A_S`` the projector is the identity and a copy of ``y`` is returned.
    """
    A_S = as_matrix(A_S, "A_S")
    y = as_vector(y, "y")
    return y - A_S @ _least_squares(A_S, y)


# ---------------------------------------------------------------------------
# Shared text formats. A matrix file is "rows cols" on the first line, then
# `rows` lines of `cols` space-separated decimals printed with 17 significant
# digits so float64 values round-trip exactly. Vectors are stored as
# single-column matrices.
# ---------------------------------------------------------------------------


def format_matrix(A):
    """Render a matrix in the shared text format."""
    A = as_matrix(A)
    if A.shape[1] < 1:
        raise ValueError("cannot serialize a zero-column matrix")
    lines = [f"{A.shape[0]} {A.shape[1]}"]
    for i in range(A.shape[0]):
        lines.append(" ".join(f"{v:.17g}" for v in A[i, :]))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Parse the shared matrix text format; inverse of :func:`format_matrix`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("matrix header must be 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data lines, got {len(lines) - 1}")
    # every row is checked before anything is allocated, so the header alone
    # cannot ask for more memory than the text holds entries
    data = [ln.split() for ln in lines[1:]]
    for i, vals in enumerate(data):
        if len(vals) != cols:
            raise ValueError(f"row {i} has {len(vals)} entries, expected {cols}")
    return as_matrix(np.array(data, dtype=float))  # each token through Python's float


def write_matrix(path, A):
    with open(path, "w") as fh:
        fh.write(format_matrix(A))


def read_matrix(path):
    with open(path) as fh:
        return parse_matrix(fh.read())


def format_vector(v):
    v = as_vector(v)
    return format_matrix(v.reshape(-1, 1))


def parse_vector(text):
    m = parse_matrix(text)
    if m.shape[1] != 1:
        raise ValueError(f"vector file must have one column, got {m.shape[1]}")
    return np.ascontiguousarray(m[:, 0])


def write_vector(path, v):
    with open(path, "w") as fh:
        fh.write(format_vector(v))


def read_vector(path):
    with open(path) as fh:
        return parse_vector(fh.read())
