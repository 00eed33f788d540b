"""Differential tests of the integer pair coordinates against the Fraction route.

The reference is the route the integer one replaced, kept in helpers:
F^-1 H from `_scaled_solve` divided out into Fractions, a reverse
column-echelon form built in Fractions and re-checked by a Fraction
product (`fraction_coordinates`), and chain factors by Fraction back
substitution (`back_substitute`).  Tuples are drawn by a derandomized
hypothesis over d = 1..7: random integer and rational frames, random
frames with a flag that shares leading columns with another (so that
pair is never transverse), Veronese flags and Barbot flags.  The
zero-pivot transversality of the pair coordinates, and so the engine's
refusal of a family, are compared with the determinant test
`transverse`, and the chain route with the quad route.  The check that
each pair block's elimination E is its fraction-free LU factorization,
an undo of the elimination, is compared with the lcm-scaled product it
replaced (`lu_identity_holds`), on every pair block and on corrupted
copies of E.
"""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from posiflag import (
    Flag,
    Matrix,
    NotTransverse,
    ProjectivePoint,
    ZeroSuperdiagonal,
    barbot_flag,
    barbot_spec,
    is_positive_tuple_chain,
    is_positive_tuple_quad,
    transporter,
    transverse,
    veronese_flag,
)
import posiflag.flags as flags_module
from posiflag.flags import _coordinates, _undoes_to
from posiflag.linalg import _fractions, _grid_det, _quotient
from posiflag.tuples import _TupleEngine
from helpers import all_anchors, back_substitute, fraction_coordinates, lu_identity_holds

SETTINGS = settings(
    max_examples=6, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

entries = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def points(draw, n):
    """n distinct points in cyclic order, so Veronese tuples are positive."""
    pts = draw(st.lists(
        st.tuples(st.integers(-9, 9), st.integers(0, 9)).filter(lambda pq: pq != (0, 0)),
        min_size=n, max_size=n,
    ).map(lambda pqs: [ProjectivePoint(p, q) for p, q in pqs]))
    assume(len(set(pts)) == n)
    return sorted(pts, key=lambda x: x.angle_key)


@st.composite
def frame(draw, d):
    rows = [[draw(entries) for _ in range(d)] for _ in range(d)]
    m = Matrix(rows)
    assume(_grid_det(m.rows_tuple()) != 0)
    return m


@st.composite
def flag_tuples(draw, kind, shape, n):
    """n flags of one kind; shape is the dimension, or a Barbot (d, j)."""
    if kind == "veronese":
        return [veronese_flag(x, shape) for x in draw(points(n))]
    if kind == "barbot":
        return [barbot_flag(barbot_spec(*shape), x) for x in draw(points(n))]
    frames = [draw(frame(shape)) for _ in range(n)]
    if kind == "shared":
        # flag j takes flag i's first k columns, so the two contain one line
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(1, shape - 1))
        rows = [ri[:k] + rj[k:] for ri, rj in zip(frames[i].rows_tuple(), frames[j].rows_tuple())]
        assume(_grid_det(rows) != 0)
        frames[j] = Matrix(rows)
    return [Flag(m) for m in frames]


CASES = ([("random", d) for d in range(1, 8)] + [("shared", d) for d in range(2, 8)]
         + [("veronese", d) for d in range(2, 8)]
         + [("barbot", shape) for shape in [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)]])
cases = pytest.mark.parametrize("kind,shape", CASES, ids=[f"{k} {s}" for k, s in CASES])


def outcome(fn, *args):
    """A result, or the kind and message of the NotTransverse raised instead."""
    try:
        return fn(*args)
    except NotTransverse as exc:
        return ("NotTransverse", exc.pair, str(exc))


def pair_coordinates(f, h, failure):
    """The integer coordinates (ū, δ) of h over f, as a one-flag solve."""
    return next(_coordinates(f._rows, (h._rows,), failure))


def integer_coordinates(f, h, failure):
    """The integer pair coordinates ū diag(1/δ) as a Fraction matrix."""
    return Matrix(_fractions(*pair_coordinates(f, h, failure)))


def reference_transporter(f, h, g):
    c_h = fraction_coordinates(f, h, "flags are not transverse; no adapted basis exists")
    c_g = fraction_coordinates(f, g, "base flag and target flag are not transverse")
    return Matrix(back_substitute(c_h.rows_tuple(), c_g.rows_tuple()))


class TestIntegerCoordinates:
    @cases
    @SETTINGS
    @given(data=st.data())
    def test_match_fraction_route(self, kind, shape, data):
        """u, every transporter (the chain factors) and c^-1 S c match the
        reference, and non-transverse pairs fail with the same message."""
        flags = data.draw(flag_tuples(kind, shape, 3))
        msg = "flags are not transverse"
        for f, h in combinations(flags, 2):
            got = outcome(integer_coordinates, f, h, msg)
            assert got == outcome(fraction_coordinates, f, h, msg)
            if isinstance(got, Matrix):
                d, c = f.dim, got.rows_tuple()
                ubar, delta = pair_coordinates(f, h, msg)
                shifted = back_substitute(c, c[1:] + ((0,) * d,))
                assert _fractions(*_quotient(ubar, ubar[1:] + [[0] * d], delta)) == shifted
        for f, h, g in ((flags[0], flags[2], flags[1]), (flags[0], flags[1], flags[2]),
                        (flags[1], flags[2], flags[0])):
            assert outcome(transporter, f, h, g) == outcome(reference_transporter, f, h, g)

    @cases
    @SETTINGS
    @given(data=st.data())
    def test_engine_transversality_is_the_determinant_test(self, kind, shape, data):
        """A zero pivot of the pair coordinates is exactly a failure of the
        determinant test, and building every pair of the engine refuses a
        family at its first one."""
        flags = data.draw(flag_tuples(kind, shape, 4))
        msg = "flags are not transverse"
        for f, h in combinations(flags, 2):
            assert (outcome(pair_coordinates, f, h, msg)[0] != "NotTransverse") == transverse(f, h)
        pairwise = all(transverse(f, h) for f, h in combinations(flags, 2))
        assert isinstance(outcome(all_anchors, flags), _TupleEngine) == pairwise

    @cases
    @settings(SETTINGS, max_examples=3)
    @given(data=st.data())
    def test_chain_and_quad_agree(self, kind, shape, data):
        flags = data.draw(flag_tuples(kind, shape, 5))
        try:
            chain = is_positive_tuple_chain(flags)[0].is_positive
        except ZeroSuperdiagonal:
            chain = False
        except NotTransverse as exc:
            assert outcome(is_positive_tuple_quad, flags) == outcome(is_positive_tuple_chain, flags)
            assert not transverse(*(flags[p - 1] for p in exc.pair))
            return
        try:
            quad = is_positive_tuple_quad(flags).is_positive
        except ZeroSuperdiagonal:
            quad = False
        assert chain == quad


def eliminated_blocks(flags):
    """(A, E) for every pair block that `_coordinates` eliminates with a
    pivot in every column, over all pairs of flags."""
    blocks = []
    real = flags_module._bareiss

    def recorded(a, swaps=True):
        before = [row[:] for row in a]
        pivots, sign = real(a, swaps)
        if len(pivots) == len(a):
            blocks.append((before, [row[:] for row in a]))
        return pivots, sign

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flags_module, "_bareiss", recorded)
        for f, h in combinations(flags, 2):
            outcome(pair_coordinates, f, h, "flags are not transverse")
    return blocks


def corruptions(e):
    """Copies of E with one entry moved by -1, +1 or doubled, and with one
    row negated, keeping every diagonal entry nonzero."""
    d = len(e)
    for i in range(d):
        for j in range(d):
            x = e[i][j]
            for y in {x - 1, x + 1, 2 * x} - {x}:
                if i != j or y:
                    bad = [row[:] for row in e]
                    bad[i][j] = y
                    yield bad
        yield [[-x for x in row] if k == i else row[:] for k, row in enumerate(e)]


class TestEliminationCheck:
    @cases
    @settings(SETTINGS, max_examples=3)
    @given(data=st.data())
    def test_undo_rejects_exactly_what_the_product_rejects(self, kind, shape, data):
        """Every eliminated pair block passes both checks, and every corrupted
        copy of its E fails the undo exactly when it fails the lcm-scaled
        product."""
        blocks = eliminated_blocks(data.draw(flag_tuples(kind, shape, 3)))
        for a, e in blocks:
            assert _undoes_to(e, a) and lu_identity_holds(a, e)
            for bad in corruptions(e):
                assert _undoes_to(bad, a) == lu_identity_holds(a, bad)
