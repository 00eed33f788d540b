import random
from fractions import Fraction
from itertools import combinations

import pytest

from posiflag import (
    BadParameters,
    DimensionMismatch,
    Flag,
    FlagMapSample,
    Matrix,
    NotTransverse,
    PreconditionViolated,
    ProjectivePoint,
    Status,
    ZeroSuperdiagonal,
    barbot_flag,
    barbot_spec,
    check_sampled_positivity,
    is_positive_triple,
    is_positive_tuple_chain,
    is_positive_tuple_quad,
    pascal,
    random_tp,
    sign_normalize,
    standard_flags,
    tp_staged,
    transverse,
    veronese_flag,
)
from helpers import (
    distinct_points,
    gen_nonpositive_tuple,
    gen_positive_tuple,
    poison_factor,
    tuple_from_factors,
)

F = Fraction

V_SHEAR = Matrix(((1, 5, 0), (0, 1, 0), (0, 0, 1)))
FLIP = Matrix.diagonal((1, -1, 1))


class TestSignNormalize:
    def test_already_positive(self):
        u = pascal(3)
        d, u2 = sign_normalize(u)
        assert d == Matrix.identity(3)
        assert u2 == u

    def test_flip_conjugate_recovers_pascal(self):
        u = FLIP @ pascal(3) @ FLIP
        d, u2 = sign_normalize(u)
        assert d == FLIP
        assert u2 == pascal(3)

    def test_zero_superdiagonal(self):
        u = Matrix(((1, 0, 1), (0, 1, 1), (0, 0, 1)))
        with pytest.raises(ZeroSuperdiagonal) as info:
            sign_normalize(u)
        assert info.value.position == 1

    def test_self_inverse_conjugation(self):
        rng = random.Random(4)
        for _ in range(10):
            u = random_tp(3, rng.randint(0, 10**9))
            signs = [1] + [rng.choice([1, -1]) for _ in range(2)]
            s = Matrix.diagonal(signs)
            d, u2 = sign_normalize(s @ u @ s)
            assert d == s
            assert u2 == u


class TestTriple:
    def test_pascal_shift_positive(self):
        asc, desc = standard_flags(3)
        verdict, cert = is_positive_triple(asc, desc.apply(pascal(3)), desc)
        assert verdict.status is Status.POSITIVE
        assert len(cert.factors) == 1
        assert cert.normalized_factors[0] == pascal(3)
        assert cert.sign == Matrix.identity(3)
        assert cert.replays([asc, desc.apply(pascal(3)), desc])
        assert not cert.replays([asc, desc])
        assert not cert.replays([asc, desc, desc])

    def test_sign_flip_absorbed(self):
        asc, desc = standard_flags(3)
        middle = Flag(FLIP @ pascal(3) @ Matrix.reversal(3))
        verdict, cert = is_positive_triple(asc, middle, desc)
        assert verdict.status is Status.POSITIVE
        assert cert.sign == FLIP

    def test_tenth_power_sheared_is_not_transverse(self):
        # middle = Q^10 . (v.descending), third = v.descending: the pair
        # (2,3) degenerates because the transporter hits the boundary
        asc, desc = standard_flags(3)
        third = desc.apply(V_SHEAR)
        q10 = pascal(3).power(10)
        middle = third.apply(q10)
        assert not transverse(middle, third)
        with pytest.raises(NotTransverse) as info:
            is_positive_triple(asc, middle, third)
        assert info.value.pair == (2, 3)
        # the underlying boundary fact: the normalized transporter has a
        # vanishing corner entry
        m = V_SHEAR.inverse() @ q10 @ V_SHEAR
        assert m.entry(1, 3) == 0
        v = tp_staged(m)
        assert v.status is Status.NONNEGATIVE_BOUNDARY
        assert v.witness.index.rows == (1,) and v.witness.index.cols == (3,)

    def test_common_action_invariance(self):
        rng = random.Random(8)
        asc, desc = standard_flags(3)
        flags = [asc, desc.apply(pascal(3)), desc]
        for _ in range(10):
            while True:
                g = Matrix(
                    tuple(
                        tuple(F(rng.randint(-4, 4)) for _ in range(3))
                        for _ in range(3)
                    )
                )
                if g.det() != 0:
                    break
            moved = [f.apply(g) for f in flags]
            try:
                verdict, _ = is_positive_triple(*moved)
            except NotTransverse:
                pytest.fail("transversality must be preserved by a common action")
            assert verdict.status is Status.POSITIVE

    def test_frame_rescaling_irrelevant(self):
        # multiplying frame columns by nonzero scalars leaves flags, and
        # hence verdicts, unchanged
        rng = random.Random(21)
        asc, desc = standard_flags(3)
        flags = [asc, desc.apply(pascal(3)), desc]
        rescaled = []
        for f in flags:
            scales = Matrix.diagonal(
                [F(rng.choice([1, -1]) * rng.randint(1, 7), rng.randint(1, 3)) for _ in range(3)]
            )
            rescaled.append(Flag(f.frame @ scales))
        assert all(a == b for a, b in zip(flags, rescaled))
        verdict, _ = is_positive_triple(*rescaled)
        assert verdict.status is Status.POSITIVE


class TestChain:
    def test_rejects_short_and_mixed(self):
        asc, desc = standard_flags(3)
        with pytest.raises(BadParameters):
            is_positive_tuple_chain([asc, desc])
        a2, d2 = standard_flags(2)
        with pytest.raises(DimensionMismatch):
            is_positive_tuple_chain([asc, a2, d2])

    def test_transversality_check_order(self):
        asc, desc = standard_flags(3)
        with pytest.raises(NotTransverse) as info:
            is_positive_tuple_chain([asc, desc, asc])
        assert info.value.pair == (1, 3)
        with pytest.raises(NotTransverse) as info:
            is_positive_tuple_chain([asc, asc, desc, desc])
        assert info.value.pair == (1, 2)
        with pytest.raises(NotTransverse) as info:
            is_positive_tuple_chain([asc, desc, desc])
        assert info.value.pair == (2, 3)

    def test_n3_reduces_to_triple(self):
        rng = random.Random(14)
        for _ in range(10):
            flags = gen_positive_tuple(3, 3, rng)
            vt, ct = is_positive_triple(*flags)
            vc, cc = is_positive_tuple_chain(flags)
            assert vt.status is vc.status
            assert ct.factors == cc.factors
            assert ct.sign == cc.sign

    def test_constructed_positive_tuples(self):
        rng = random.Random(33)
        for d, n in ((3, 4), (4, 4), (4, 5), (3, 5)):
            flags = gen_positive_tuple(d, n, rng)
            verdict, cert = is_positive_tuple_chain(flags)
            assert verdict.status is Status.POSITIVE
            assert len(cert.factors) == n - 2
            assert all(v.status is Status.POSITIVE for v in cert.verdicts)
            assert cert.replays(flags)

    def test_chain_identity_in_adapted_coordinates(self):
        # F_j must equal (u_{n-1}...u_j).F_n after moving everything into
        # the certificate frame
        rng = random.Random(47)
        flags = gen_positive_tuple(3, 5, rng)
        _, cert = is_positive_tuple_chain(flags)
        p = cert.adapted.matrix
        n = len(flags)
        prod = Matrix.identity(3)
        for j in range(n - 1, 1, -1):
            prod = prod @ cert.factors[j - 2]
            ambient = p @ prod @ p.inverse()
            assert flags[-1].apply(ambient) == flags[j - 1]

    def test_poisoned_tuples_fail(self):
        rng = random.Random(58)
        for _ in range(10):
            flags = gen_nonpositive_tuple(3, 4, rng)
            try:
                verdict, _ = is_positive_tuple_chain(flags)
            except ZeroSuperdiagonal:
                continue
            assert verdict.status is not Status.POSITIVE

    def test_poisoned_generator_needs_three_dimensions(self):
        # the poisoned minor ((1,2),(2,3)) does not exist in a 2 x 2 factor
        for d in (1, 2):
            with pytest.raises(ValueError, match="needs d >= 3"):
                gen_nonpositive_tuple(d, 4, random.Random(0))

    def test_cyclic_and_reversal_invariance(self):
        rng = random.Random(62)

        def ok(flags):
            try:
                v, _ = is_positive_tuple_chain(flags)
                return v.status is Status.POSITIVE
            except (ZeroSuperdiagonal, NotTransverse):
                return False

        for gen in (gen_positive_tuple, gen_nonpositive_tuple):
            for _ in range(5):
                flags = gen(3, 4, rng)
                base = ok(flags)
                for r in range(1, len(flags)):
                    rotated = flags[r:] + flags[:r]
                    assert ok(rotated) == base
                assert ok(list(reversed(flags))) == base

    def test_subtuple_heredity(self):
        rng = random.Random(70)
        flags = gen_positive_tuple(3, 5, rng)
        for size in (3, 4):
            for idxs in combinations(range(5), size):
                sub = [flags[i] for i in idxs]
                v, _ = is_positive_tuple_chain(sub)
                assert v.status is Status.POSITIVE


class TestQuad:
    def test_n3_matches_triple(self):
        rng = random.Random(81)
        flags = gen_positive_tuple(3, 3, rng)
        assert is_positive_tuple_quad(flags).status is Status.POSITIVE

    def test_agrees_with_chain(self):
        rng = random.Random(90)
        for gen in (gen_positive_tuple, gen_nonpositive_tuple):
            for _ in range(5):
                flags = gen(3, 5, rng)
                try:
                    chain_pos = is_positive_tuple_chain(flags)[0].status is Status.POSITIVE
                except ZeroSuperdiagonal:
                    chain_pos = False
                try:
                    quad_pos = is_positive_tuple_quad(flags).status is Status.POSITIVE
                except ZeroSuperdiagonal:
                    quad_pos = False
                assert chain_pos == quad_pos

    def test_interloper_detected_by_both_methods(self):
        pts = [ProjectivePoint(*t) for t in ((1, 0), (2, 1), (1, 1), (1, 2))]
        flags = [veronese_flag(x, 3) for x in pts]
        assert is_positive_tuple_chain(flags)[0].status is Status.POSITIVE
        assert is_positive_tuple_quad(flags).status is Status.POSITIVE
        mixed = list(flags)
        mixed[2] = barbot_flag(barbot_spec(3, 1), pts[2])
        assert is_positive_tuple_chain(mixed)[0].status is Status.OUTSIDE
        assert is_positive_tuple_quad(mixed).status is Status.OUTSIDE


class TestFlagMapSample:
    def make_flags(self, n):
        rng = random.Random(5)
        return tuple(gen_positive_tuple(3, n, rng))

    def test_valid_sample(self):
        pts = (ProjectivePoint(1, 0), ProjectivePoint(2, 1), ProjectivePoint(1, 1))
        sample = FlagMapSample(pts, self.make_flags(3))
        assert len(sample.points) == 3

    def test_rejects_length_mismatch(self):
        pts = (ProjectivePoint(1, 0), ProjectivePoint(2, 1), ProjectivePoint(1, 1))
        with pytest.raises(PreconditionViolated):
            FlagMapSample(pts, self.make_flags(4))

    def test_rejects_too_few(self):
        pts = (ProjectivePoint(1, 0), ProjectivePoint(2, 1))
        flags = self.make_flags(3)[:2]
        with pytest.raises(PreconditionViolated):
            FlagMapSample(pts, flags)

    def test_rejects_repeated_point(self):
        # (2,1) and (-2,-1) are the same projective point
        pts = (ProjectivePoint(1, 0), ProjectivePoint(2, 1), ProjectivePoint(-2, -1))
        with pytest.raises(PreconditionViolated):
            FlagMapSample(pts, self.make_flags(3))

    def test_rejects_unsorted_cycle(self):
        pts = (ProjectivePoint(1, 1), ProjectivePoint(2, 1), ProjectivePoint(1, 0))
        with pytest.raises(PreconditionViolated):
            FlagMapSample(pts, self.make_flags(3))

    def test_rotation_of_cycle_accepted(self):
        # cyclic order is what matters, not which point comes first
        base = [ProjectivePoint(1, 0), ProjectivePoint(3, 1), ProjectivePoint(1, 2)]
        flags = self.make_flags(3)
        for r in range(3):
            FlagMapSample(tuple(base[r:] + base[:r]), flags)


def mixed_dims():
    """[asc3, desc3, asc3 . pascal(3), asc4]: three flags of dimension 3, one of 4."""
    asc, desc = standard_flags(3)
    return [asc, desc, asc.apply(pascal(3)), standard_flags(4)[0]]


class TestMixedDimensions:
    MESSAGE = "flags in a tuple must share one dimension"

    def test_chain(self):
        with pytest.raises(DimensionMismatch, match=self.MESSAGE):
            is_positive_tuple_chain(mixed_dims())

    def test_quad(self):
        with pytest.raises(DimensionMismatch, match=self.MESSAGE):
            is_positive_tuple_quad(mixed_dims())

    def test_flag_map_sample(self):
        pts = tuple(ProjectivePoint(*t) for t in ((1, 0), (2, 1), (1, 1), (1, 2)))
        with pytest.raises(DimensionMismatch, match=self.MESSAGE):
            FlagMapSample(pts, tuple(mixed_dims()))


class TestSampledPositivity:
    def test_veronese_consistent(self):
        rng = random.Random(3)
        pts = distinct_points(6, rng)
        flags = tuple(veronese_flag(x, 4) for x in pts)
        report = check_sampled_positivity(FlagMapSample(tuple(pts), flags))
        assert report.status == "consistent"
        assert report.positive_triple == (1, 2, 3)
        assert report.failing_quad is None
        assert report.quads_checked == 15

    def test_barbot_vacuous(self):
        rng = random.Random(6)
        pts = distinct_points(6, rng)
        spec = barbot_spec(5, 2)
        flags = tuple(barbot_flag(spec, x) for x in pts)
        report = check_sampled_positivity(FlagMapSample(tuple(pts), flags))
        assert report.status == "vacuously consistent, no positive triple"
        assert report.positive_triple is None
        assert report.triples_scanned == 20
        assert report.quads_checked == 0

    def test_synthetic_inconsistent(self):
        # hand-built counterexample: a chain tuple with one poisoned factor
        # still contains a positive triple, so quadruple propagation fails
        rng = random.Random(0)
        factors = [random_tp(3, rng.randint(0, 10**9)) for _ in range(2)]
        factors[1] = poison_factor(factors[1], rng)
        flags = tuple(tuple_from_factors(3, factors))
        pts = tuple(distinct_points(4, rng))
        report = check_sampled_positivity(FlagMapSample(pts, flags))
        assert report.status == "inconsistent"
        assert report.positive_triple == (1, 2, 3)
        assert report.failing_quad == (1, 2, 3, 4)
