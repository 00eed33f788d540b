"""Differential tests of the fraction-free kernels against independent routes.

Each kernel is compared with a definition computed another way: the
adapted basis with one sympy nullspace per column, the transporter with
a plain Fraction reverse column-echelon form in that basis, solves,
inverses, determinants, ranks and pivot columns with sympy, the integer-dot
product with a plain Fraction product, integer powers with plain dot
products, the unit triangular solve (the Fraction reference
and the integer quotient) with `inverse() @` and the quotient with its first version,
solves on cleared blocks with the solve that clears each joined Fraction row, the
condensed consecutive minors with sympy determinants, and the staged scan
with the cofactor oracle and a scan that eliminates each minor on its own.
The forward elimination, which only rescales a row whose multiplier is
zero, is compared with its first loop, which updates every row.
"""

import random
from itertools import combinations
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from posiflag import (
    DetCounter, Flag, Matrix, NotTransverse, ProjectivePoint, SingularMatrix, adapted_basis,
    barbot_flag, barbot_spec, random_tp, staged_minor_count, tp_oracle, tp_staged, transporter,
    transverse,
)
import posiflag.flags as flags_module
import posiflag.linalg as linalg_module
from posiflag.flags import _coordinates
from posiflag.linalg import (
    _bareiss, _cleared, _fractions, _grid_det, _grid_rank, _is_upper, _quotient, _scaled_powers,
    _scaled_solve,
)
from posiflag.positivity import _contiguous_minors
from helpers import (
    back_substitute, count_nontrivial, gen_boundary, gen_perturbed, gen_uniform, reference_quotient,
    reference_bareiss, reference_scaled_powers, reference_scaled_solve, reverse_column_echelon,
    staged_bareiss_scan,
)

SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

integers = st.integers(-6, 6).map(Fraction)
rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5))


@st.composite
def grids(draw, entries, rows=None, cols=None):
    d = draw(st.integers(1, 5)) if rows is None else rows
    w = d if cols is None else cols
    return tuple(tuple(draw(entries) for _ in range(w)) for _ in range(d))


@st.composite
def rect_grids(draw, entries, square=False):
    """Tall, wide or square grids, often with a zero row, a zero column or a
    column that is a multiple of an earlier one.

    A dependent column has no pivot, so the elimination must skip it and
    look for the next pivot in the same row.  In a square grid it also
    makes the determinant 0 while the last entry of the eliminated grid
    need not be: for [[0, 1], [0, 2]] it keeps the multiplier 2.
    """
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    g = [list(row) for row in draw(grids(entries, rows=r, cols=c))]
    kind = draw(st.sampled_from(["dependent", "zero row", "zero column", "plain"]))
    if kind == "dependent" and c > 1:
        j = draw(st.integers(1, c - 1))
        i = draw(st.integers(0, j - 1))
        t = draw(entries)
        for row in g:
            row[j] = t * row[i]
    elif kind == "zero row":
        g[draw(st.integers(0, r - 1))] = [Fraction(0)] * c
    elif kind == "zero column":
        j = draw(st.integers(0, c - 1))
        for row in g:
            row[j] = Fraction(0)
    return tuple(tuple(row) for row in g)


@st.composite
def square_pairs(draw, entries):
    """A square grid and a second grid with as many rows."""
    a = draw(st.one_of(grids(entries), rect_grids(entries, square=True)))
    b = draw(grids(entries, rows=len(a), cols=draw(st.integers(1, 4))))
    return a, b


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows))


# -- adapted basis against one kernel per column -----------------------------


def kernel_definition(f: Flag, h: Flag) -> Matrix:
    """Column k spans F^k intersect H^{d-k+1}, scaled to unit k-th F-coordinate.

    The line is the kernel of [F cols 1..k | H cols 1..d-k+1], taken from
    sympy so that it does not share the elimination inside `adapted_basis`;
    its first k coordinates give the combination of F's columns.
    """
    d = f.dim
    f_cols = list(zip(*f.frame.rows_tuple()))
    h_cols = list(zip(*h.frame.rows_tuple()))
    out = []
    for k in range(1, d + 1):
        stacked = f_cols[:k] + h_cols[:d - k + 1]
        kern = to_sympy(tuple(tuple(c[i] for c in stacked) for i in range(d))).nullspace()
        assert len(kern) == 1
        coeffs = from_sympy(kern[0].T)[0][:k]
        out.append(tuple(
            sum((coeffs[i] * f_cols[i][r] for i in range(k)), Fraction(0)) / coeffs[k - 1]
            for r in range(d)
        ))
    return Matrix(tuple(tuple(c[i] for c in out) for i in range(d)))


@st.composite
def flag_pairs(draw, entries):
    d = draw(st.integers(2, 4))
    frames = []
    for _ in range(2):
        rows = draw(grids(entries, rows=d))
        assume(_grid_det(rows) != 0)
        frames.append(Flag(Matrix(rows)))
    return frames


class TestAdaptedBasis:
    @SETTINGS
    @given(st.one_of(flag_pairs(integers), flag_pairs(rationals)))
    def test_matches_kernel_definition(self, pair):
        f, h = pair
        if not transverse(f, h):
            with pytest.raises(NotTransverse, match="no adapted basis exists"):
                adapted_basis(f, h)
            return
        assert adapted_basis(f, h).matrix == kernel_definition(f, h)


@st.composite
def flag_triples(draw, entries):
    """(shared, [f, h, g]): g's first `shared` frame columns are h's, so g is
    not transverse to h whenever shared > 0 (both contain h's first line)."""
    d = draw(st.integers(2, 4))
    f, h, g = (draw(grids(entries, rows=d)) for _ in range(3))
    shared = draw(st.integers(0, d - 1))
    g = tuple(hr[:shared] + gr[shared:] for hr, gr in zip(h, g))
    assume(all(_grid_det(rows) != 0 for rows in (f, h, g)))
    return shared, [Flag(Matrix(rows)) for rows in (f, h, g)]


class TestTransporter:
    @SETTINGS
    @given(st.one_of(flag_triples(integers), flag_triples(rationals)))
    def test_matches_reverse_echelon_definition(self, triple):
        shared, (f, h, g) = triple
        if not (transverse(f, h) and transverse(f, g)):
            with pytest.raises(NotTransverse):
                transporter(f, h, g)
            return
        if shared:
            assert not transverse(g, h)
        p_inv = to_sympy(kernel_definition(f, h).rows_tuple()).inv()
        c = Matrix(from_sympy(p_inv * to_sympy(g.frame.rows_tuple())))
        assert transporter(f, h, g) == reverse_column_echelon(c)


# -- solve and inverse against sympy -------------------------------------------


class TestSolve:
    @SETTINGS
    @given(st.one_of(square_pairs(integers), square_pairs(rationals)))
    def test_solve_matches_sympy(self, ab):
        a, b = ab
        sa = to_sympy(a)
        if sa.det() == 0:
            with pytest.raises(SingularMatrix):
                _scaled_solve(_cleared(a), [_cleared(b)])
            return
        x, den = _scaled_solve(_cleared(a), [_cleared(b)])
        assert _fractions(x, [den] * len(x[0])) == from_sympy(sa.LUsolve(to_sympy(b)))

    @SETTINGS
    @given(st.one_of(
        grids(integers), grids(rationals),
        rect_grids(integers, square=True), rect_grids(rationals, square=True),
    ))
    def test_inverse_matches_sympy(self, rows):
        m, sm = Matrix(rows), to_sympy(rows)
        if sm.det() == 0:
            with pytest.raises(SingularMatrix):
                m.inverse()
            return
        assert m.inverse().rows_tuple() == from_sympy(sm.inv())

    @SETTINGS
    @given(st.one_of(
        grids(integers), grids(rationals),
        rect_grids(integers, square=True), rect_grids(rationals, square=True),
    ))
    def test_det_matches_sympy(self, rows):
        det = to_sympy(rows).det()
        assert _grid_det(rows) == Fraction(int(det.p), int(det.q))


# -- cleared blocks against the joined Fraction rows ------------------------------


def rational_frame(rng: random.Random, d: int) -> Matrix:
    """An invertible frame whose rows have denominators up to 4, drawn per row,
    so that the row scales of two frames differ."""
    while True:
        bounds = [rng.randint(1, 4) for _ in range(d)]
        m = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, q)) for _ in range(d)]
                    for q in bounds])
        if m.det() != 0:
            return m


def coordinates(f: Flag, hs: list[Flag]) -> list:
    """The coordinates of each h in hs over f, up to a refusal, then the refusal."""
    out: list = []
    try:
        out.extend(_coordinates(f._rows, [h._rows for h in hs], "not transverse"))
    except NotTransverse as exc:
        out.append(str(exc))
    return out


def recorded_solves(monkeypatch, module) -> list:
    """Every result of `_scaled_solve` called through `module`, in order."""
    calls = []
    real = module._scaled_solve

    def solve(a, bs):
        calls.append(real(a, bs))
        return calls[-1]

    monkeypatch.setattr(module, "_scaled_solve", solve)
    return calls


class TestClearedBlocks:
    """A flag clears its frame once, and solves join cleared blocks row by row
    over the lcm of their row scales.  That gives the integers of the old
    route, which clears each joined Fraction row of [A | B_1 | ... | B_m]
    (`helpers.reference_scaled_solve`), so coordinates, flag equality and
    inverses return the same integers, denominators included."""

    def test_flag_keeps_its_cleared_frame(self):
        rng = random.Random(2_201)
        for d in range(1, 7):
            m = rational_frame(rng, d)
            assert Flag(m)._rows == _cleared(m.rows_tuple())

    def test_coordinates_match_joined_fraction_rows(self, monkeypatch):
        rng = random.Random(2_202)
        joins = 0
        for d in range(2, 6):
            for n in (2, 3, 5):
                flags = [Flag(rational_frame(rng, d)) for _ in range(n)]
                f, hs = flags[0], flags[1:]
                blocks = [f._rows] + [h._rows for h in hs]
                joins += sum(len({blk[i][1] for blk in blocks}) > 1 for i in range(d))
                got = coordinates(f, hs)
                joined = [sum(rows, ()) for rows in zip(*(h.frame.rows_tuple() for h in hs))]
                with monkeypatch.context() as m:
                    m.setattr(flags_module, "_scaled_solve",
                              lambda a, bs: reference_scaled_solve(f.frame.rows_tuple(), joined))
                    want = coordinates(f, hs)
                assert got == want, (d, n)
        assert joins > 0

    def test_flag_equality_matches_joined_fraction_rows(self, monkeypatch):
        rng = random.Random(2_203)
        calls = recorded_solves(monkeypatch, flags_module)
        equal = 0
        for d in range(1, 6):
            for _ in range(8):
                f = Flag(rational_frame(rng, d))
                t = Matrix([[Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) if i == j
                             else Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if i < j else 0
                             for j in range(d)] for i in range(d)])
                for g in (Flag(f.frame @ t), Flag(rational_frame(rng, d))):
                    got = f == g
                    want = reference_scaled_solve(f.frame.rows_tuple(), g.frame.rows_tuple())
                    assert calls[-1] == want
                    assert got == _is_upper(want[0])
                    equal += got
        assert equal >= 40

    def test_inverse_matches_joined_fraction_rows(self, monkeypatch):
        rng = random.Random(2_204)
        calls = recorded_solves(monkeypatch, linalg_module)
        for d in range(1, 7):
            for _ in range(6):
                m = rational_frame(rng, d)
                inv = m.inverse()
                x, den = reference_scaled_solve(m.rows_tuple(), Matrix.identity(d).rows_tuple())
                assert calls[-1] == (x, den)
                assert inv.rows_tuple() == _fractions(x, [den] * d)


# -- rank and pivot columns against sympy -------------------------------------


def eliminated_by_both(grid, swaps):
    """((pivots, sign), grid) from `_bareiss` and from `reference_bareiss`,
    each run on its own copy of an integer grid."""
    mine, ref = [list(r) for r in grid], [list(r) for r in grid]
    return (_bareiss(mine, swaps), mine), (reference_bareiss(ref, swaps), ref)


class TestRankEchelon:
    @SETTINGS
    @given(st.one_of(rect_grids(integers), rect_grids(rationals)))
    def test_grid_rank_matches_sympy(self, rows):
        assert _grid_rank([r for r, _ in _cleared(rows)]) == to_sympy(rows).rank()

    @SETTINGS
    @given(st.one_of(rect_grids(integers), rect_grids(rationals)))
    def test_bareiss_pivots_match_sympy_rref(self, rows):
        assert tuple(_bareiss([r for r, _ in _cleared(rows)])[0]) == to_sympy(rows).rref()[1]

    @SETTINGS
    @given(st.one_of(rect_grids(integers), rect_grids(rationals)), st.booleans())
    def test_bareiss_matches_reference_loop(self, rows, swaps):
        """Rows with a zero multiplier are only rescaled, or left as they are:
        the same grid, multipliers included, pivots and sign as the loop that
        updates every row, on grids with skipped columns too."""
        got, want = eliminated_by_both([r for r, _ in _cleared(rows)], swaps)
        assert got == want

    @SETTINGS
    @given(st.integers(1, 6).flatmap(lambda d: grids(st.integers(-4, 4), rows=d)), st.booleans())
    def test_bareiss_matches_reference_on_upper_grids(self, rows, swaps):
        upper = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
        got, want = eliminated_by_both(upper, swaps)
        assert got == want

    @pytest.mark.parametrize("shape", [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)])
    @pytest.mark.parametrize("swaps", [True, False])
    def test_bareiss_matches_reference_on_barbot_frames(self, shape, swaps):
        """Barbot frames and the pair blocks of their coordinates, where most
        multipliers are zero."""
        points = [ProjectivePoint(p, q) for p, q in [(1, 0), (-3, 1), (0, 1), (2, 3), (5, 1)]]
        flags = [barbot_flag(barbot_spec(*shape), x) for x in points]
        blocks = [[r for r, _ in f._rows] for f in flags]
        for f, h in combinations(flags, 2):
            x, _ = _scaled_solve(f._rows, [h._rows])
            blocks.append([list(col[::-1]) for col in zip(*x)])
        for grid in blocks:
            got, want = eliminated_by_both(grid, swaps)
            assert got == want

    @pytest.mark.parametrize("swaps", [True, False])
    def test_zero_multiplier_rows(self, swaps):
        """Below a pivot equal to the one before, a zero-multiplier row is left
        as it is; below a different one it is rescaled by their ratio."""
        cases = [
            ([[1, 2, 3], [0, 1, 4], [0, 0, 5]], [[1, 2, 3], [0, 1, 4], [0, 0, 5]]),
            ([[2, 1, 1], [0, 3, 1], [0, 0, 5]], [[2, 1, 1], [0, 6, 2], [0, 0, 30]]),
        ]
        for grid, eliminated in cases:
            got, want = eliminated_by_both(grid, swaps)
            assert got == want == (([0, 1, 2], 1), eliminated)


# -- integer-dot product against the plain Fraction product ------------------


@st.composite
def matrix_pairs(draw, entries):
    a = draw(grids(entries))
    return Matrix(a), Matrix(draw(grids(entries, rows=len(a))))


def naive_product(a: Matrix, b: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    cols = list(zip(*b.rows_tuple()))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
        for row in a.rows_tuple()
    )


class TestMatmul:
    @SETTINGS
    @given(st.one_of(matrix_pairs(integers), matrix_pairs(rationals)))
    def test_matches_naive_product(self, ab):
        a, b = ab
        product = a @ b
        assert product.rows_tuple() == naive_product(a, b)
        assert all(type(x) is Fraction for r in product.rows_tuple() for x in r)


class TestScaledPowers:
    def test_matches_plain_products(self):
        """`_scaled_powers` multiplies by one row update per nonzero entry;
        `helpers.reference_scaled_powers` by one dot product per entry.  Dense,
        strictly upper and zero-row grids with negative entries, d = 1..7."""
        rng = random.Random(2_404)
        for d in range(1, 8):
            for kind in ("dense", "strictly upper", "zero rows"):
                for _ in range(5):
                    g = [[rng.randint(-9, 9) if kind != "strictly upper" or j > i else 0
                          for j in range(d)] for i in range(d)]
                    if kind == "zero rows":
                        for i in rng.sample(range(d), rng.randint(1, d)):
                            g[i] = [0] * d
                    s = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(d)]
                    count = rng.randint(0, d + 1)
                    assert _scaled_powers(g, s, count) == reference_scaled_powers(g, s, count)


# -- unit triangular back substitution against inverse() @ --------------------


@st.composite
def unipotent_systems(draw, entries):
    d = draw(st.integers(1, 5))
    u = tuple(
        tuple(Fraction(1) if i == j else draw(entries) if j > i else Fraction(0)
              for j in range(d))
        for i in range(d)
    )
    return Matrix(u), Matrix(draw(grids(entries, rows=d)))


def integer_columns(m: Matrix, signs) -> tuple[list[list[int]], list[int]]:
    """(U, δ) with m = U diag(1/δ): column k cleared by its lcm times signs[k]."""
    cols = [(r, s * sign) for (r, s), sign in zip(_cleared(zip(*m.rows_tuple())), signs)]
    return [list(row) for row in zip(*(r if s > 0 else [-x for x in r] for r, s in cols))], [
        s for _, s in cols
    ]


class TestBackSubstitution:
    @SETTINGS
    @given(st.one_of(unipotent_systems(integers), unipotent_systems(rationals)),
           st.lists(st.sampled_from((1, -1)), min_size=10, max_size=10))
    def test_matches_inverse_product(self, ub, signs):
        """The Fraction reference and the integer `_quotient`, with column
        denominators of either sign, both give u^-1 b; `_quotient` returns
        each column over a positive scale with which it has gcd 1."""
        u, b = ub
        want = (u.inverse() @ b).rows_tuple()
        assert back_substitute(u.rows_tuple(), b.rows_tuple()) == want
        (uy, _), (ux, dx) = integer_columns(u, signs[:5]), integer_columns(b, signs[5:])
        g, s = _quotient(uy, ux, dx)
        assert _fractions(g, s) == want
        assert all(sj > 0 for sj in s)
        assert all(gcd(*col, sj) == 1 for col, sj in zip(zip(*g), s))

    def test_quotient_matches_reference(self):
        """`_quotient` returns the reference's (G, s) bit for bit, on seeded
        triangular U_y with diagonals of either sign, for U_x upper
        triangular (a chain factor), arbitrary with zero columns and
        columns whose lowest nonzero row lies above the diagonal, and ū
        shifted up one row over ū's own δ (the threshold's M = c^-1 S c)."""
        rng = random.Random(21)

        def entry():
            return rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))

        def nonzero():
            return rng.choice((1, -1)) * rng.choice((1, rng.randint(2, 9), rng.randint(10, 10**6)))

        def upper(diagonal):
            d = len(diagonal)
            return [[diagonal[i] if i == j else entry() if j > i else 0 for j in range(d)]
                    for i in range(d)]

        for d in range(1, 9):
            for _ in range(40):
                dy, dx = [nonzero() for _ in range(d)], [nonzero() for _ in range(d)]
                uy = upper(dy)
                ragged = [[entry() for _ in range(d)] for _ in range(d)]
                for j in range(d):
                    top = rng.randint(-1, d - 1)  # -1 leaves the column zero
                    for i in range(top + 1, d):
                        ragged[i][j] = 0
                for ux, den in ((upper(dx), dx), (ragged, dx), (uy[1:] + [[0] * d], dy)):
                    assert _quotient(uy, ux, den) == reference_quotient(uy, ux, den), (uy, ux, den)


# -- minor scans: condensation against sympy, staged against oracle ------------


GENERATORS = {
    "positive": lambda d, rng: random_tp(d, rng.randint(0, 10**9)),
    "boundary": gen_boundary,
    "perturbed": gen_perturbed,
    "uniform": gen_uniform,
}


@st.composite
def unipotents(draw, max_d):
    """Upper unipotent inputs that are positive, on the boundary or (mostly) outside."""
    d = draw(st.integers(2, max_d))
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    return GENERATORS[kind](d, random.Random(draw(st.integers(0, 2**32))))


class TestMinorScans:
    @settings(SETTINGS, max_examples=25)
    @given(unipotents(12))
    def test_condensed_levels_match_sympy(self, m):
        grid = [r for r, _ in _cleared(m.rows_tuple())]
        d, sm = m.dim, sympy.Matrix(grid)
        order = [(k, a, b) for k in range(1, d + 1)
                 for a in range(1, d - k + 2) for b in range(a, d - k + 2)]
        seen, stop = [], d
        for k, a, b, value in _contiguous_minors(grid):
            if k > stop:  # callers stop within one level of the first non-positive minor
                break
            assert value == sm[a - 1:a - 1 + k, b - 1:b - 1 + k].det()
            seen.append((k, a, b))
            if value <= 0:
                stop = min(stop, k + 1)
        assert seen == order[:len(seen)]
        assert len(seen) == len(order) or seen[-1][0] == stop

    @settings(SETTINGS, max_examples=40)
    @given(unipotents(10))
    def test_staged_agrees_with_oracle_and_reference(self, m):
        staged_counter, oracle_counter = DetCounter(), DetCounter()
        staged = tp_staged(m, counter=staged_counter)
        oracle = tp_oracle(m, counter=oracle_counter)
        assert (staged.status, staged.witness) == (oracle.status, oracle.witness)
        assert (staged.status, staged.witness, staged_counter.evaluations) == staged_bareiss_scan(m)
        if staged.is_positive:
            assert staged_counter.evaluations == staged_minor_count(m.dim)
            assert oracle_counter.evaluations == count_nontrivial(m.dim)
        else:
            # the consecutive scan and at most every nontrivial minor of the
            # witness's size; the Neville elimination evaluates no minor
            d, k = m.dim, staged.witness.index.size
            bound = staged_minor_count(d) + count_nontrivial(d, [k])
            assert staged_counter.evaluations <= bound
