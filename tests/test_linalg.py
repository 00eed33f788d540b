import random
from fractions import Fraction

import pytest

from posiflag import (
    BadParameters,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    MinorIndex,
    NotUnipotent,
    jordan_block_sizes,
)
from helpers import cofactor_det, naive_minor

F = Fraction


def rand_matrix(d: int, rng: random.Random) -> Matrix:
    return Matrix(
        tuple(
            tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
            for _ in range(d)
        )
    )


class TestMinorIndex:
    def test_basic_properties(self):
        idx = MinorIndex((1, 3), (2, 4))
        assert idx.size == 2
        assert idx.nontrivial
        assert not idx.consecutive

    def test_consecutive(self):
        assert MinorIndex((2, 3, 4), (3, 4, 5)).consecutive
        assert MinorIndex((1,), (4,)).consecutive

    def test_trivial_pair(self):
        assert not MinorIndex((2,), (1,)).nontrivial
        assert not MinorIndex((2, 3), (1, 4)).nontrivial

    def test_validation(self):
        with pytest.raises(BadParameters):
            MinorIndex((), ())
        with pytest.raises(BadParameters):
            MinorIndex((1, 2), (1,))
        with pytest.raises(BadParameters):
            MinorIndex((2, 2), (1, 3))
        with pytest.raises(BadParameters):
            MinorIndex((3, 1), (1, 3))
        with pytest.raises(IndexOutOfRange):
            MinorIndex((0, 1), (1, 2))


# each bad call of the Matrix constructors and accessors, with its error
BAD_CALLS = {
    "no rows": (BadParameters, "at least one row", lambda: Matrix(())),
    "identity(0)": (BadParameters, "dimension must be positive", lambda: Matrix.identity(0)),
    "elementary on the diagonal": (IndexOutOfRange, r"bad elementary position \(2, 2\)",
                                   lambda: Matrix.elementary(3, 2, 2, 1)),
    "elementary out of range": (IndexOutOfRange, r"bad elementary position \(1, 4\)",
                                lambda: Matrix.elementary(3, 1, 4, 1)),
    "row 0": (IndexOutOfRange, "row 0 out of range", lambda: Matrix.identity(2).row(0)),
    "column 3": (IndexOutOfRange, "column 3 out of range", lambda: Matrix.identity(2).column(3)),
    "matmul across dims": (DimensionMismatch, "cannot multiply dim 2 by dim 3",
                           lambda: Matrix.identity(2) @ Matrix.identity(3)),
    "zero denominator": (BadParameters, "malformed entry '1/0'", lambda: Matrix((("1/0",),))),
    "not a number": (BadParameters, "malformed entry 'abc'", lambda: Matrix((("abc",),))),
    "elementary malformed": (BadParameters, "malformed entry '2/0'",
                             lambda: Matrix.elementary(2, 1, 2, "2/0")),
    "diagonal malformed": (BadParameters, "malformed entry 'x'",
                           lambda: Matrix.diagonal((1, "x"))),
}


@pytest.mark.parametrize("error, message, call", BAD_CALLS.values(), ids=BAD_CALLS)
def test_bad_matrix_calls(error, message, call):
    with pytest.raises(error, match=message):
        call()


class TestMatrixBasics:
    def test_construction_coerces_to_fraction(self):
        m = Matrix(((1, "1/2"), (0, 1)))
        assert m.entry(1, 2) == F(1, 2)
        assert isinstance(m.entry(1, 1), Fraction)

    def test_rejects_floats(self):
        with pytest.raises(BadParameters):
            Matrix(((1, 0.5), (0, 1)))

    def test_rejects_ragged(self):
        with pytest.raises(DimensionMismatch):
            Matrix(((1, 2), (3,)))

    def test_one_based_access(self):
        m = Matrix(((1, 2), (3, 4)))
        assert m.entry(2, 1) == 3
        assert m.row(1) == (1, 2)
        assert m.column(2) == (2, 4)
        with pytest.raises(IndexOutOfRange):
            m.entry(0, 1)
        with pytest.raises(IndexOutOfRange):
            m.entry(1, 3)

    def test_identity_reversal_elementary(self):
        assert Matrix.identity(3).entry(2, 2) == 1
        r = Matrix.reversal(3)
        assert r.entry(1, 3) == 1 and r.entry(3, 1) == 1 and r.entry(2, 2) == 1
        assert r.entry(1, 1) == 0
        e = Matrix.elementary(4, 2, 3, F(5, 7))
        assert e.entry(2, 3) == F(5, 7)
        assert e.entry(1, 1) == 1 and e.entry(3, 2) == 0

    def test_diagonal(self):
        m = Matrix.diagonal((2, -1, F(1, 2)))
        assert m.entry(3, 3) == F(1, 2)
        assert m.entry(1, 2) == 0

    def test_equality_and_hash(self):
        a = Matrix(((1, 2), (3, 4)))
        b = Matrix(((F(2, 2), 2), (3, 4)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Matrix.identity(2)

    def test_immutable(self):
        m = Matrix.identity(2)
        with pytest.raises(AttributeError):
            m.dim = 3


class TestMatrixAlgebra:
    def test_matmul(self):
        a = Matrix(((1, 2), (3, 4)))
        b = Matrix(((0, 1), (1, 0)))
        assert a @ b == Matrix(((2, 1), (4, 3)))

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(11)
        for d in (1, 2, 3, 4, 5):
            for _ in range(8):
                m = rand_matrix(d, rng)
                assert m.det() == cofactor_det([list(r) for r in m.rows_tuple()])

    def test_inverse_round_trip(self):
        rng = random.Random(7)
        for d in (2, 3, 4):
            for _ in range(6):
                m = rand_matrix(d, rng)
                if m.det() == 0:
                    continue
                assert m @ m.inverse() == Matrix.identity(d)
                assert m.inverse() @ m == Matrix.identity(d)

    def test_power(self):
        m = Matrix(((1, 1), (0, 1)))
        assert m.power(0) == Matrix.identity(2)
        assert m.power(5) == Matrix(((1, 5), (0, 1)))
        with pytest.raises(BadParameters):
            m.power(-1)

    def test_minor_matches_naive(self):
        rng = random.Random(3)
        m = rand_matrix(5, rng)
        for idx in (
            MinorIndex((1,), (4,)),
            MinorIndex((1, 3), (2, 5)),
            MinorIndex((2, 3, 4), (1, 2, 5)),
            MinorIndex((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
        ):
            assert m.minor(idx) == naive_minor(m, idx.rows, idx.cols)

    def test_minor_out_of_range(self):
        m = Matrix.identity(3)
        with pytest.raises(IndexOutOfRange):
            m.minor(MinorIndex((1, 2), (3, 4)))


class TestJordan:
    def test_identity_is_all_ones(self):
        assert jordan_block_sizes(Matrix.identity(4)) == (1, 1, 1, 1)

    def test_single_block(self):
        u = Matrix(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
        assert jordan_block_sizes(u) == (3,)

    def test_mixed_blocks(self):
        u = Matrix(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
        assert jordan_block_sizes(u) == (2, 2)
        v = Matrix(((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert jordan_block_sizes(v) == (3, 1)

    def test_not_unipotent(self):
        for m in (Matrix.diagonal((2, 1)), Matrix.diagonal((1, 1, 2)), Matrix.diagonal((1, 1, -1)),
                  Matrix(((2, 1, 0), (0, 1, 0), (0, 0, 1)))):
            with pytest.raises(NotUnipotent, match=r"\(u - I\)\^dim != 0"):
                jordan_block_sizes(m)
