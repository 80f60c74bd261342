import math

import numpy as np
import pytest

from omplab import linalg
from omplab import (
    SingularSystemError,
    as_epsilon,
    format_matrix,
    format_vector,
    least_squares,
    lemma1_example_instance,
    parse_matrix,
    parse_vector,
    projection_residual,
)

from _oracles import normal_equations_ls


def test_least_squares_identity():
    y = np.array([2.0, -3.0, 0.5])
    assert np.allclose(least_squares(np.eye(3), y), y, atol=0, rtol=0)


def test_least_squares_single_column():
    # closed form a.y / a.a for one column
    a = np.array([[np.sqrt(1.5)], [0.0], [0.0]])
    y = np.array([1.0, 1.0, 0.0])
    xhat = least_squares(a, y)
    assert xhat.shape == (1,)
    assert abs(xhat[0] - 1.0 / np.sqrt(1.5)) < 1e-14


def test_least_squares_normal_equations_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.standard_normal((10, 4))
        y = rng.standard_normal(10)
        assert np.allclose(least_squares(A, y), normal_equations_ls(A, y), atol=1e-8)


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = rng.standard_normal((12, 5))
        y = rng.standard_normal(12)
        r = y - A @ least_squares(A, y)
        bound = 1e-9 * np.linalg.norm(A) * np.linalg.norm(y)
        assert np.abs(A.T @ r).max() <= bound


def test_least_squares_rank_error_carries_index():
    a = np.array([1.0, 2.0, 3.0])
    A = np.column_stack([a, 2.0 * a])
    with pytest.raises(SingularSystemError) as err:
        least_squares(A, np.ones(3))
    assert err.value.diagonal_index == 1


def test_zero_design_is_rank_deficient():
    # every |R_ii| is 0, and 0 <= DEFAULT_RANK_TOL * 0 holds
    with pytest.raises(SingularSystemError) as err:
        least_squares(np.zeros((4, 2)), np.ones(4))
    assert err.value.diagonal_value == err.value.largest_diagonal == 0.0


def test_stacked_least_squares_solves_each_system_alone():
    # a stack of systems gives each system's minimizer bit for bit, and a
    # rank-deficient stack raises for its first rank-deficient system
    rng = np.random.default_rng(13)
    for m, k in ((1, 1), (5, 1), (12, 3), (40, 4)):
        A = rng.standard_normal((6, m, k))
        y = rng.standard_normal((6, m))
        stacked = linalg._least_squares(A, y)
        assert stacked.shape == (6, k)
        for i in range(6):
            assert np.array_equal(stacked[i], least_squares(A[i], y[i]))
    A = rng.standard_normal((5, 8, 3))
    A[2, :, 2] = A[2, :, 0]
    A[4, :, 1] = 3.0 * A[4, :, 0]
    with pytest.raises(SingularSystemError) as stacked:
        linalg._least_squares(A, np.ones((5, 8)))
    with pytest.raises(SingularSystemError) as alone:
        least_squares(A[2], np.ones(8))
    fields = ("diagonal_index", "diagonal_value", "largest_diagonal")
    assert [getattr(stacked.value, f) for f in fields] == [
        getattr(alone.value, f) for f in fields]
    assert linalg._least_squares(np.ones((3, 4, 0)), np.ones((3, 4))).shape == (3, 0)


def test_least_squares_shape_errors():
    with pytest.raises(ValueError):
        least_squares(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        least_squares(np.ones((2, 3)), np.ones(2))


def test_projection_empty_set_is_identity():
    y = np.array([1.0, -2.0, 3.0])
    out = projection_residual(np.zeros((3, 0)), y)
    assert np.array_equal(out, y)
    out[0] = 99.0  # must be a copy
    assert y[0] == 1.0


def test_projection_lemma1_projector():
    # selecting the first column of the worked example zeroes coordinate 0
    A, _, S = lemma1_example_instance(0.3)
    A_S = A[:, S]
    y = np.array([0.7, -1.1, 2.2])
    out = projection_residual(A_S, y)
    assert np.allclose(out, [0.0, -1.1, 2.2], atol=1e-15)


def test_projection_contraction_and_idempotence():
    rng = np.random.default_rng(13)
    for _ in range(25):
        A = rng.standard_normal((10, 4))
        y = rng.standard_normal(10)
        p = projection_residual(A, y)
        assert np.linalg.norm(p) <= np.linalg.norm(y) + 1e-12
        pp = projection_residual(A, p)
        assert np.abs(pp - p).max() <= 1e-9


def test_as_epsilon():
    for eps in (0, 0.0, 0.5, 1e300):
        assert as_epsilon(eps) is eps
    for bad in (-1e-300, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            as_epsilon(bad)


def test_matrix_text_roundtrip_exact():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((4, 7)) * np.pi
    back = parse_matrix(format_matrix(A))
    assert np.array_equal(back, A)
    assert back.flags.f_contiguous


def test_vector_text_roundtrip_exact():
    rng = np.random.default_rng(18)
    v = rng.standard_normal(9) / 3.0
    assert np.array_equal(parse_vector(format_vector(v)), v)


def test_matrix_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        parse_matrix("1\n1\n")
    with pytest.raises(ValueError):
        parse_vector(format_matrix(np.ones((2, 2))))


def test_matrix_rows_are_checked_before_the_header_allocates():
    # a header asking for 8 TB over a row of one entry fails on the row
    with pytest.raises(ValueError, match="row 0 has 1 entries, expected 1000000000000"):
        parse_matrix("1 1000000000000\n1.0\n")


def test_matrix_tokens_parse_as_python_floats():
    # every token is converted by Python's float: its syntax, bits and errors
    tokens = ["1_0", "-0.0", "0.1", "1e-400", "4.9e-324", "+.5E3", "1.7976931348623157e308", "١٢"]
    A = parse_matrix(f"2 4\n{' '.join(tokens[:4])}\n{' '.join(tokens[4:])}\n")
    assert [v.hex() for v in A.ravel(order="C").tolist()] == [float(t).hex() for t in tokens]
    for token in ("nan", "-inf", "1e400"):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            parse_matrix(f"1 2\n1.0 {token}\n")
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'abc'$"):
        parse_matrix("1 2\n1.0 abc\n")
