import random
from fractions import Fraction
from math import comb

import pytest

from posiflag import (
    BadParameters,
    DimensionMismatch,
    Matrix,
    MoebiusElement,
    ProjectivePoint,
    SingularMatrix,
    Status,
    ZeroSuperdiagonal,
    barbot_flag,
    barbot_matrix,
    barbot_spec,
    cyclically_ordered,
    g_from_point,
    is_positive_triple,
    jordan_block_sizes,
    pascal,
    standard_flags,
    sym_power,
    tp_staged,
    transverse,
    veronese_flag,
)
from helpers import distinct_points

F = Fraction

PARABOLIC = MoebiusElement.of(1, 1, 0, 1)


def rand_moebius(rng: random.Random) -> MoebiusElement:
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c != 0:
            return MoebiusElement.of(a, b, c, d)


class TestProjectivePoint:
    def test_canonical_representative(self):
        assert ProjectivePoint(2, -4) == ProjectivePoint(-1, 2)
        assert ProjectivePoint(-3, 0) == ProjectivePoint(1, 0)
        p = ProjectivePoint(4, -6)
        assert (p.p, p.q) == (-2, 3)

    def test_rejects_origin(self):
        with pytest.raises(BadParameters):
            ProjectivePoint(0, 0)

    def test_str(self):
        assert str(ProjectivePoint(1, 2)) == "[1:2]"

    def test_cyclic_order(self):
        pts = [ProjectivePoint(1, 0), ProjectivePoint(2, 1), ProjectivePoint(0, 1),
               ProjectivePoint(-1, 1)]
        assert cyclically_ordered(pts)
        assert cyclically_ordered(pts[1:] + pts[:1])
        assert not cyclically_ordered([pts[0], pts[2], pts[1], pts[3]])
        assert not cyclically_ordered([pts[0], pts[1], ProjectivePoint(-2, 0)])
        assert cyclically_ordered(pts[:1]) and cyclically_ordered([])


class TestMoebius:
    def test_validation(self):
        with pytest.raises(SingularMatrix):
            MoebiusElement.of(1, 2, 2, 4)
        with pytest.raises(DimensionMismatch):
            MoebiusElement(Matrix.identity(3))

    def test_of_takes_entries_as_matrix_does(self):
        with pytest.raises(BadParameters, match="got float"):
            MoebiusElement.of(0.1, 0, 0, 1)
        assert MoebiusElement.of("1/2", 0, 0, 2).matrix == Matrix.diagonal((F(1, 2), 2))

    def test_hyperbolicity(self):
        assert MoebiusElement.of(2, 0, 0, F(1, 2)).is_hyperbolic
        assert not MoebiusElement.of(1, 1, 0, 1).is_hyperbolic
        assert not MoebiusElement.of(0, -1, 1, 0).is_hyperbolic
        # negative determinant is never hyperbolic under this convention
        assert not MoebiusElement.of(2, 0, 0, -1).is_hyperbolic

    def test_power_and_inverse(self):
        g = MoebiusElement.of(1, 1, 0, 1)
        assert g.power(5).matrix == Matrix(((1, 5), (0, 1)))
        assert g.power(-2).matrix == Matrix(((1, -2), (0, 1)))
        assert g.power(0).matrix == Matrix.identity(2)
        h = rand_moebius(random.Random(2))
        assert (h @ h.inverse()).matrix == Matrix.identity(2)

    def test_act_on_point(self):
        g = MoebiusElement.of(0, -1, 1, 0)
        assert g.act(ProjectivePoint(1, 0)) == ProjectivePoint(0, 1)

    def test_g_from_point_sends_e1(self):
        rng = random.Random(44)
        for x in distinct_points(12, rng):
            assert g_from_point(x).act(ProjectivePoint(1, 0)) == x


class TestSymPower:
    def test_d2_is_identity_rep(self):
        g = MoebiusElement.of(1, 2, 3, 4)
        assert sym_power(g, 2) == g.matrix

    def test_swap_becomes_antidiagonal(self):
        swap = MoebiusElement.of(0, 1, 1, 0)
        assert sym_power(swap, 3) == Matrix.reversal(3)

    def test_diagonal_scales_monomials(self):
        s = F(3, 2)
        g = MoebiusElement.of(s, 0, 0, 1 / s)
        assert sym_power(g, 3) == Matrix.diagonal((s**2, 1, s**-2))

    def test_rejects_bad_dimension(self):
        with pytest.raises(BadParameters):
            sym_power(PARABOLIC, 0)

    def test_multiplicative(self):
        rng = random.Random(10)
        for d in (2, 3, 4, 5):
            g, h = rand_moebius(rng), rand_moebius(rng)
            assert sym_power(g @ h, d) == sym_power(g, d) @ sym_power(h, d)

    def test_respects_inverse(self):
        rng = random.Random(12)
        for d in (3, 4):
            g = rand_moebius(rng)
            assert sym_power(g.inverse(), d) == sym_power(g, d).inverse()

    def test_positive_shear_is_totally_positive(self):
        rng = random.Random(16)
        for d in (2, 3, 4, 5, 6):
            t = F(rng.randint(1, 9), rng.randint(1, 9))
            u = MoebiusElement.of(1, t, 0, 1)
            assert tp_staged(sym_power(u, d)).status is Status.POSITIVE

    def test_parabolic_is_single_jordan_block(self):
        for d in range(2, 9):
            assert jordan_block_sizes(sym_power(PARABOLIC, d)) == (d,)


class TestPascal:
    def test_known_values(self):
        assert pascal(1) == Matrix(((1,),))
        assert pascal(3) == Matrix(((1, 1, 1), (0, 1, 2), (0, 0, 1)))
        with pytest.raises(BadParameters, match="pascal needs d >= 1, got 0"):
            pascal(0)

    def test_entries_are_binomials(self):
        q = pascal(6)
        for i in range(1, 7):
            for j in range(1, 7):
                want = comb(j - 1, i - 1) if i <= j else 0
                assert q.entry(i, j) == want

    def test_matches_sym_power_of_shear(self):
        for d in range(1, 11):
            assert pascal(d) == sym_power(PARABOLIC, d)


class TestVeronese:
    def test_endpoints(self):
        asc, desc = standard_flags(4)
        assert veronese_flag(ProjectivePoint(1, 0), 4) == asc
        assert veronese_flag(ProjectivePoint(0, 1), 4) == desc

    def test_requires_d_at_least_2(self):
        with pytest.raises(BadParameters):
            veronese_flag(ProjectivePoint(1, 0), 1)

    def test_pairs_transverse(self):
        rng = random.Random(23)
        for d in (3, 4, 5):
            pts = distinct_points(6, rng)
            flags = [veronese_flag(x, d) for x in pts]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert transverse(flags[i], flags[j])

    def test_ordered_triples_positive(self):
        rng = random.Random(29)
        for d in (3, 4, 5):
            for _ in range(8):
                x, y, z = distinct_points(3, rng)
                v, _ = is_positive_triple(
                    veronese_flag(x, d), veronese_flag(y, d), veronese_flag(z, d)
                )
                assert v.status is Status.POSITIVE


class TestBarbotSpec:
    def test_known_permutations(self):
        assert barbot_spec(3, 1).perm == (1, 3, 2)
        assert barbot_spec(5, 1).perm == (1, 2, 5, 3, 4)
        assert barbot_spec(5, 2).perm == (1, 4, 2, 5, 3)
        assert barbot_spec(7, 1).perm == (1, 2, 3, 7, 4, 5, 6)
        assert barbot_spec(7, 2).perm == (1, 2, 6, 3, 7, 4, 5)
        assert barbot_spec(7, 3).perm == (1, 5, 2, 6, 3, 7, 4)

    def test_k_formula(self):
        assert barbot_spec(3, 1).k == 1
        assert barbot_spec(5, 1).k == 2
        assert barbot_spec(5, 2).k == 1
        assert barbot_spec(7, 3).k == 1

    def test_rejects_invalid(self):
        with pytest.raises(BadParameters):
            barbot_spec(4, 1)
        with pytest.raises(BadParameters):
            barbot_spec(3, 2)
        with pytest.raises(BadParameters):
            barbot_spec(5, 0)
        with pytest.raises(BadParameters):
            barbot_spec(1, 1)


class TestBarbotMatrix:
    def test_identity(self):
        spec = barbot_spec(5, 2)
        assert barbot_matrix(spec, MoebiusElement.identity()) == Matrix.identity(5)

    def test_parabolic_jordan_types(self):
        cases = {
            (3, 1): (2, 1),
            (5, 1): (4, 1),
            (5, 2): (3, 2),
            (7, 1): (6, 1),
            (7, 2): (5, 2),
            (7, 3): (4, 3),
        }
        for (d, j), want in cases.items():
            m = barbot_matrix(barbot_spec(d, j), PARABOLIC)
            assert jordan_block_sizes(m) == want

    def test_multiplicative(self):
        rng = random.Random(37)
        spec = barbot_spec(5, 2)
        for _ in range(5):
            g, h = rand_moebius(rng), rand_moebius(rng)
            assert barbot_matrix(spec, g @ h) == barbot_matrix(spec, g) @ barbot_matrix(spec, h)

    def test_entries_follow_the_interleaved_basis(self):
        # identity, Jordan types and multiplicativity all survive conjugation
        # by a permutation; this pins which entry goes where, straight from
        # the definition: the two symmetric powers on standard indices perm[r]
        rng = random.Random(53)
        for d, j in ((3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3), (9, 4)):
            spec = barbot_spec(d, j)
            m1 = d - j
            for _ in range(5):
                while True:
                    a, b, c, e = (F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4))
                    if a * e != b * c:
                        break
                g = MoebiusElement.of(a, b, c, e)
                big, small = sym_power(g, m1), sym_power(g, j)

                def entry(r, c):
                    if r <= m1 and c <= m1:
                        return big.entry(r, c)
                    if r > m1 and c > m1:
                        return small.entry(r - m1, c - m1)
                    return F(0)

                want = Matrix([[entry(r, c) for c in spec.perm] for r in spec.perm])
                assert barbot_matrix(spec, g) == want


class TestBarbotFlag:
    def test_endpoints_in_permuted_coordinates(self):
        # all output lives in the interleaved-basis coordinates, where the
        # two endpoint flags are exactly the standard ascending/descending
        for d, j in ((3, 1), (5, 2), (7, 3)):
            spec = barbot_spec(d, j)
            asc, desc = standard_flags(d)
            plus = barbot_flag(spec, ProjectivePoint(1, 0))
            minus = barbot_flag(spec, ProjectivePoint(0, 1))
            assert plus == asc
            assert minus == desc
            assert transverse(plus, minus)

    def test_equivariance(self):
        rng = random.Random(41)
        for d, j in ((3, 1), (5, 2)):
            spec = barbot_spec(d, j)
            for _ in range(5):
                g = rand_moebius(rng)
                x = distinct_points(1, rng)[0]
                left = barbot_flag(spec, g.act(x))
                right = barbot_flag(spec, x).apply(barbot_matrix(spec, g))
                assert left == right

    def test_pairs_transverse(self):
        rng = random.Random(53)
        for d, j in ((3, 1), (5, 1), (5, 2), (7, 3)):
            spec = barbot_spec(d, j)
            pts = distinct_points(5, rng)
            flags = [barbot_flag(spec, x) for x in pts]
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    assert transverse(flags[a], flags[b])

    def test_no_triple_is_positive(self):
        rng = random.Random(59)
        for d, j in ((3, 1), (5, 1), (5, 2), (7, 3)):
            spec = barbot_spec(d, j)
            for _ in range(6):
                x, y, z = distinct_points(3, rng)
                flags = [barbot_flag(spec, w) for w in (x, y, z)]
                try:
                    v, _ = is_positive_triple(*flags)
                except ZeroSuperdiagonal:
                    continue
                assert v.status is not Status.POSITIVE
