import math
import random
from collections import Counter
from fractions import Fraction
from types import ModuleType

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posiflag import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    Flag,
    FloatFlag,
    InvariantViolated,
    LimitEntry,
    Matrix,
    MoebiusElement,
    NotHyperbolic,
    NotSingleJordanBlock,
    NotTransverse,
    PosiflagError,
    PreconditionViolated,
    ProjectivePoint,
    RationalEigenlineRequired,
    SingularGapTooSmall,
    SingularProfile,
    attracting_fixed_point,
    barbot_flag,
    barbot_matrix,
    barbot_spec,
    flag_distance,
    float_flag,
    g_from_point,
    limit_convergence,
    pascal,
    power_positivity_threshold,
    singular_ratio_profile,
    standard_flags,
    svd_flag,
)
from posiflag import dynamics
from posiflag.dynamics import _svd, _tau_hat
from posiflag.positivity import _contiguous_minors
from helpers import (
    hadamard_squared,
    kernel_fixed_flag,
    power_triple_positive,
    random_mild_hyperbolic,
    random_single_block,
    rejection_path,
    threshold_reference,
    whole_grid_powers,
    whole_grid_threshold,
)

F = Fraction

V_SHEAR = Matrix(((1, 5, 0), (0, 1, 0), (0, 0, 1)))


def np_of(m: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m.rows_tuple()])


class TestSvdFlag:
    def test_diagonal_gives_coordinate_flag(self):
        fl = svd_flag(np.diag([4.0, 1.0, 0.25]))
        asc, _ = standard_flags(3)
        assert flag_distance(fl, float_flag(asc)) < 1e-12

    def test_identity_rejected(self):
        with pytest.raises(SingularGapTooSmall) as info:
            svd_flag(np.eye(3))
        assert info.value.min_gap == pytest.approx(1.0)

    def test_non_square_rejected(self):
        with pytest.raises(BadParameters):
            svd_flag(np.ones((2, 3)))
        with pytest.raises(BadParameters):
            svd_flag(np.ones(3))
        # a square outer shape whose entries are not real scalars
        for bad in (np.zeros((2, 2, 2)), np.ones((2, 2, 1)),
                    [[[1, 2], [3, 4]], [[5, 6], [7, 8]]], [["x", 0], [0, 1]]):
            with pytest.raises(BadParameters, match="real entries"):
                svd_flag(bad)

    def test_block_family_power_approaches_endpoint(self):
        # the family at h^5, h = diag(2, 1/2), is already within 1e-6 of
        # the flag at the attracting point [1:0]
        spec = barbot_spec(3, 1)
        h = MoebiusElement.of(2, 0, 0, F(1, 2))
        mat = np_of(barbot_matrix(spec, h.power(5)))
        target = float_flag(barbot_flag(spec, ProjectivePoint(1, 0)))
        assert flag_distance(svd_flag(mat), target) < 1e-6


    def test_non_finite_entries_rejected_before_any_rotation(self, monkeypatch):
        # numpy's SVD failed on nan with its own LinAlgError and accepted inf
        # with an inf gap; neither reaches the kernel now
        calls = []
        monkeypatch.setattr(dynamics, "_svd", lambda rows: calls.append(rows))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(BadParameters, match="finite entries"):
                svd_flag([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(BadParameters, match="finite entries"):
            svd_flag(np.array([[1.0, 2.0], [np.nan, 1.0]]))
        assert calls == []

    def test_zero_matrix_has_inf_gaps_and_a_coordinate_frame(self):
        fl = svd_flag(np.zeros((3, 3)))
        assert fl.min_gap == math.inf
        assert fl.frame == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert list(np.linalg.svd(np.zeros((3, 3)), compute_uv=False)) == [0.0, 0.0, 0.0]

    def test_graded_diagonal_keeps_each_vector_with_its_value(self):
        # 1e-20 and 1e-30 sit below the rotation floor; their vectors must
        # follow their values (e2 before e1), as numpy's U does
        a = [[1e-30, 0.0, 0.0], [0.0, 1e-20, 0.0], [0.0, 0.0, 1.0]]
        fl = svd_flag(a)
        un, sn, _ = np.linalg.svd(np.array(a))
        assert np.array_equal(np.abs(np.array(fl.frame)), np.abs(un))
        assert fl.min_gap == pytest.approx(sn[1] / sn[2], rel=1e-15)

    def test_float_flags_are_values_with_a_derived_dim(self):
        a = [[3.0, 1.0], [0.0, 1.0]]
        assert svd_flag(a) == svd_flag(a)
        assert FloatFlag(svd_flag(a).frame, 5.0).dim == 2
        fl = float_flag(standard_flags(3)[0])
        assert fl.dim == 3 and fl.min_gap is None

    def test_frame_is_a_tuple_of_rows(self):
        fl = svd_flag([[0.0, 3.0], [1.0, 0.0]])
        assert isinstance(fl.frame, tuple) and all(isinstance(row, tuple) for row in fl.frame)
        # the leading left singular vector is e_1, for the singular value 3
        assert abs(fl.frame[0][0]) == 1.0 and fl.frame[1][0] == 0.0
        assert fl.min_gap == 3.0


def sine_distance(u: np.ndarray, v: np.ndarray, depths) -> float:
    """Largest sine of a principal angle between span u[:, :k] and span
    v[:, :k] over the given depths, by projection residuals, which stay
    accurate for small angles where acos(sigma_min) is quantized at ~1e-8."""
    return max(
        np.linalg.norm(u[:, :k] - v[:, :k] @ (v[:, :k].T @ u[:, :k]), 2) for k in depths
    )


def seeded_square(d: int, rng: random.Random) -> list[list[float]]:
    return [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)]


class TestJacobiAgainstNumpy:
    """The float kernel against numpy.linalg.svd, a test-only reference."""

    def test_clear_matrices_match(self):
        rng = random.Random(71)
        seen = 0
        for d in range(2, 9):
            for _ in range(12):
                a = seeded_square(d, rng)
                un, sn, _ = np.linalg.svd(np.array(a))
                if sn[0] / sn[-1] >= 1e8:
                    continue
                seen += 1
                values, u = _svd(a)
                assert all(values[i] >= values[i + 1] for i in range(d - 1))
                assert max(abs(x - y) / y for x, y in zip(values, sn)) < 1e-12
                uu = np.array(u).T
                assert np.abs(uu.T @ uu - np.eye(d)).max() < 1e-13
                assert sine_distance(uu, un, range(1, d)) < 1e-10
        assert seen >= 80

    @pytest.mark.parametrize("drop", [1, 2])
    def test_rank_deficient_matrices_match(self, drop):
        # integer products B C of rank d - drop: numpy reports the missing
        # singular values as noise near 0, and so does the kernel; the
        # leading d - drop directions are canonical and must agree
        rng = random.Random(40 + drop)
        seen = 0
        for d in range(drop + 1, 9):
            for _ in range(6):
                r = d - drop
                b = np.array([[rng.randint(-5, 5) for _ in range(r)] for _ in range(d)], float)
                c = np.array([[rng.randint(-5, 5) for _ in range(d)] for _ in range(r)], float)
                a = b @ c
                un, sn, _ = np.linalg.svd(a)
                if sn[r - 1] < 1e-6 * sn[0] or min(
                    (sn[i] / sn[i + 1] for i in range(r - 1)), default=2) < 1.01:
                    continue
                seen += 1
                values, u = _svd(a.tolist())
                assert max(abs(x - y) for x, y in zip(values, sn)) < 1e-12 * sn[0]
                assert max(abs(x - y) / y for x, y in zip(values[:r], sn[:r])) < 1e-12
                uu = np.array(u).T
                assert np.abs(uu.T @ uu - np.eye(d)).max() < 1e-13
                assert sine_distance(uu, un, range(1, r + 1)) < 1e-10
        assert seen >= 20

    def test_graded_and_extreme_scales(self):
        # power-of-two scaling keeps squares in range at either end of it
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            a = [[3.0 * scale, 1.0 * scale], [1.0 * scale, 2.0 * scale]]
            values, _ = _svd(a)
            want = np.linalg.svd(np.array([[3.0, 1.0], [1.0, 2.0]]), compute_uv=False) * scale
            assert all(abs(x - y) <= 1e-14 * y for x, y in zip(values, want))
        values, _ = _svd([[2.0**40, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0**-40]])
        assert values == [2.0**40, 1.0, 2.0**-40]

    def test_entries_spanning_more_than_the_square_range(self):
        # scaling the largest entry to 1 would flush 2^-1200 to zero; the
        # kernel must see 2^-600 as numpy does
        a = [[2.0**600, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0**-600]]
        assert _svd(a)[0] == list(np.linalg.svd(np.array(a), compute_uv=False))
        spec, g = barbot_spec(3, 1), MoebiusElement.of(2, 0, 0, F(1, 2))
        sn = np.linalg.svd(np.array(_tau_hat(spec, g, 600)), compute_uv=False)
        measured = [m for _, m, _ in singular_ratio_profile(spec, g, 600)]
        assert measured == pytest.approx([sn[0] / sn[1], sn[1] / sn[2]], rel=1e-15)

    def test_column_graded_matrices_match_mpmath(self):
        # columns scaled by 1, 1e-12, 1e-24, ...: the small columns fall
        # below the rotation floor and are solved on their own scale, so
        # every singular value keeps its relative accuracy
        rng = random.Random(12)
        seen = 0
        with mpmath.workdps(80):
            while seen < 20:
                d = rng.randint(2, 6)
                b = seeded_square(d, rng)
                if np.linalg.cond(np.array(b)) > 10:
                    continue
                seen += 1
                a = [[x * 10.0 ** (-12 * k) for k, x in enumerate(row)] for row in b]
                want = sorted(mpmath.svd_r(mpmath.matrix(a), compute_uv=False), reverse=True)
                values, u = _svd(a)
                assert max(abs(x - y) / y for x, y in zip(values, want)) < 1e-14
                uu = np.array(u).T
                assert np.abs(uu.T @ uu - np.eye(d)).max() < 1e-13

    def test_singular_value_past_the_float_range(self):
        with pytest.raises(PreconditionViolated, match="singular values are outside the float range"):
            svd_flag([[1e308, 1e308], [1e308, 1e308]])

    def test_sweep_cap_raises_invariant_violated(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_SWEEPS", 1)
        with pytest.raises(InvariantViolated, match="did not converge in 1 sweeps"):
            _svd(seeded_square(5, random.Random(3)))


class TestFlagDistance:
    def test_zero_on_equal(self):
        asc, desc = standard_flags(3)
        assert flag_distance(float_flag(asc), float_flag(asc)) == 0.0

    def test_right_angle_between_standard_flags(self):
        asc, desc = standard_flags(3)
        assert flag_distance(float_flag(asc), float_flag(desc)) == pytest.approx(math.pi / 2)

    def test_float_flag_outside_float_range(self):
        frame = Matrix(((1, 10**400), (0, 1)))
        with pytest.raises(PreconditionViolated, match="outside the float range"):
            float_flag(Flag(frame))

    def test_float_flag_whose_float_copy_is_dependent(self):
        # exactly invertible, but 2^-1100 rounds to 0.0 and both float
        # columns become e_1
        frame = Matrix(((1, 1), (0, F(1, 2**1100))))
        with pytest.raises(PreconditionViolated, match="flag frame is outside the float range"):
            float_flag(Flag(frame))

    def test_dim_mismatch(self):
        a2 = float_flag(standard_flags(2)[0])
        a3 = float_flag(standard_flags(3)[0])
        with pytest.raises(DimensionMismatch):
            flag_distance(a2, a3)


class TestSingularProfileType:
    def test_gaps(self):
        p = SingularProfile((8.0, 2.0, 1.0))
        assert p.gaps == (4.0, 2.0)

    def test_rejects_increasing_or_nonpositive_values(self):
        with pytest.raises(BadParameters):
            SingularProfile((1.0, 2.0))
        with pytest.raises(BadParameters):
            SingularProfile((2.0, 0.0))

    @pytest.mark.parametrize(
        "values", [(math.nan,), (math.nan, 1.0), (1.0, math.nan), (2.0, math.nan, 1.0)]
    )
    def test_rejects_nan(self, values):
        with pytest.raises(BadParameters, match="singular values must"):
            SingularProfile(values)


THRESHOLD_KINDS = ["single", "pascal", "split", "identity", "nonunipotent",
                   "nontransverse", "mismatch"]


def threshold_case(d: int, kind: str, cap: int, rng: random.Random):
    """(u, G, cap) with u = h U h^-1 for a random invertible integer h.

    U is a random single-block upper unipotent, pascal(d), a split one (a
    zero superdiagonal entry), the identity, or a non-unipotent one (a
    diagonal entry 2).  G = h G0 for a random frame G0; for "nontransverse"
    G0's first column lies in the span of e_1..e_{d-1}, so G meets u's
    fixed flag h F_asc, and for "mismatch" G has another dimension.
    """
    def frame(n, transverse=True):
        while True:
            m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if not transverse:
                m = Matrix([row if i < n - 1 else (0,) + row[1:]
                            for i, row in enumerate(m.rows_tuple())])
            if m.det() != 0:
                return m

    if kind == "pascal":
        big_u = pascal(d)
    elif kind == "identity":
        big_u = Matrix.identity(d)
    else:
        rows = [list(r) for r in random_single_block(d, rng).rows_tuple()]
        i = rng.randrange(d - 1)
        if kind == "split":
            rows[i][i + 1] = F(0)
        elif kind == "nonunipotent":
            rows[i][i] = F(2)
        big_u = Matrix(rows)
    h = frame(d)
    if kind == "mismatch":
        g = Flag(frame(d + rng.choice((-1, 1)) if d > 2 else d + 1))
    else:
        g = Flag(h @ frame(d, kind != "nontransverse"))
    return h @ big_u @ h.inverse(), g, cap


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PosiflagError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def threshold_cases(draw):
    return threshold_case(
        draw(st.integers(2, 6)), draw(st.sampled_from(THRESHOLD_KINDS)),
        draw(st.sampled_from([5, 30, 80])), random.Random(draw(st.integers(0, 2**32))),
    )


# pascal(d) against the descending flag sheared by I + a E_12, threshold (d-1)a + 1
SHEARED_PASCAL_CASES = ([(3, a) for a in (8, 10, 12, 14)] + [(4, a) for a in (3, 5, 7, 9)]
                        + [(5, a) for a in (2, 4, 6, 7)] + [(6, a) for a in (1, 3, 5)])


class TestThreshold:
    def test_descending_is_immediate(self):
        _, desc = standard_flags(3)
        assert power_positivity_threshold(pascal(3), desc) == 1

    def test_sheared_flag_needs_eleven(self):
        _, desc = standard_flags(3)
        g = desc.apply(V_SHEAR)
        assert power_positivity_threshold(pascal(3), g) == 11

    def test_dim_two(self):
        u = Matrix(((1, 1), (0, 1)))
        _, desc = standard_flags(2)
        assert power_positivity_threshold(u, desc) == 1

    def test_minimality_and_persistence(self):
        _, desc = standard_flags(3)
        g = desc.apply(V_SHEAR)
        u = pascal(3)
        t = power_positivity_threshold(u, g)
        assert not power_triple_positive(u, t - 1, g)
        for extra in range(6):
            assert power_triple_positive(u, t + extra, g)

    def test_cap_below_one_is_bad_parameters(self):
        _, desc = standard_flags(3)
        for cap in (0, -4):
            with pytest.raises(BadParameters, match=f"cap must be at least 1, got {cap}"):
                power_positivity_threshold(pascal(3), desc, cap=cap)

    def test_boundary_at_ten_is_non_transverse(self):
        from posiflag import transverse

        _, desc = standard_flags(3)
        g = desc.apply(V_SHEAR)
        assert not transverse(g.apply(pascal(3).power(10)), g)

    def test_conjugation_covariance(self):
        rng = random.Random(97)
        _, desc = standard_flags(3)
        g = desc.apply(V_SHEAR)
        u = pascal(3)
        base = power_positivity_threshold(u, g)
        for _ in range(5):
            while True:
                h = Matrix(
                    tuple(
                        tuple(F(rng.randint(-3, 3)) for _ in range(3))
                        for _ in range(3)
                    )
                )
                if h.det() != 0:
                    break
            moved = power_positivity_threshold(h @ u @ h.inverse(), g.apply(h))
            assert moved == base

    def test_cap_exceeded(self):
        _, desc = standard_flags(3)
        g = desc.apply(V_SHEAR)
        with pytest.raises(CapExceeded) as info:
            power_positivity_threshold(pascal(3), g, cap=5)
        assert info.value.cap == 5

    def test_rejects_split_jordan_type(self):
        _, desc = standard_flags(3)
        with pytest.raises(NotSingleJordanBlock):
            power_positivity_threshold(Matrix.identity(3), desc)

    def test_rejects_flag_meeting_fixed_flag(self):
        asc, _ = standard_flags(3)
        with pytest.raises(NotTransverse):
            power_positivity_threshold(pascal(3), asc)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(threshold_cases())
    def test_matches_per_t_reference(self, case):
        # same t, or the same exception type and message, as the per-t
        # reference and as the search that scans every power's whole grid;
        # a threshold also persists for five more powers
        u, g, cap = case
        got = outcome(power_positivity_threshold, u, g, cap)
        assert got == outcome(threshold_reference, u, g, cap)
        assert got == outcome(whole_grid_threshold, u, g, cap)
        if got[0] == "ok":
            fixed = kernel_fixed_flag(u)
            assert all(power_triple_positive(u, got[1] + e, g, fixed) for e in range(1, 6))

    def test_seeded_corpus_reaches_every_rejection_path(self):
        """Single-block and pascal cases reject powers by an entry of the
        first row, by an entry of a later row, and by a larger minor with
        every entry positive; the row-by-row search agrees with the
        whole-grid one on each case."""
        rng = random.Random(23)
        paths = Counter()
        for _ in range(60):
            case = threshold_case(rng.randint(2, 6), rng.choice(("single", "pascal")), 80, rng)
            assert outcome(power_positivity_threshold, *case) == outcome(whole_grid_threshold, *case)
            try:
                for _, grid in whole_grid_powers(*case):
                    path = rejection_path(grid)
                    if path is None:
                        break
                    paths[path] += 1
            except NotTransverse:
                continue
        assert set(paths) == {"first row", "later row", "minor"}, paths

    def test_one_minor_scan_per_search(self, monkeypatch):
        """Work pin: pascal(d) against the descending flag sheared by
        I + a E_12 has threshold (d-1)a + 1, and every earlier power fails
        at a grid entry, so the search scans consecutive minors once."""
        scans = []

        def counted(grid):
            scans.append(len(grid))
            return _contiguous_minors(grid)

        monkeypatch.setattr(dynamics, "_contiguous_minors", counted)
        for d, a in SHEARED_PASCAL_CASES:
            _, desc = standard_flags(d)
            g = desc.apply(Matrix.elementary(d, 1, 2, a))
            scans.clear()
            assert power_positivity_threshold(pascal(d), g) == (d - 1) * a + 1
            assert scans == [d], f"d={d} a={a}: {len(scans)} scans"

    def test_search_builds_no_flag_and_one_power_table(self, monkeypatch):
        """Work pin on the sheared pascal cases: the fixed flag comes as u's
        integer Jordan chain, so a search builds no Flag and no powers of
        u - I, and takes the powers of one grid, M's, once."""
        import posiflag

        calls = Counter()
        powered = []
        real_init = Flag.__init__

        def counted_init(self, frame):
            calls["Flag"] += 1
            real_init(self, frame)

        def counted(real):
            def wrapper(*args):
                calls["_scaled_powers"] += 1
                powered.append((len(args[0]), args[2]))
                return real(*args)
            return wrapper

        monkeypatch.setattr(Flag, "__init__", counted_init)
        modules = [m for m in vars(posiflag).values() if isinstance(m, ModuleType)]
        for module in modules:
            if hasattr(module, "_scaled_powers"):
                monkeypatch.setattr(module, "_scaled_powers", counted(module._scaled_powers))
        for d, a in SHEARED_PASCAL_CASES:
            _, desc = standard_flags(d)
            g = desc.apply(Matrix.elementary(d, 1, 2, a))
            calls.clear()
            powered.clear()
            assert power_positivity_threshold(pascal(d), g) == (d - 1) * a + 1
            assert calls == Counter(_scaled_powers=1), f"d={d} a={a}: {dict(calls)}"
            assert powered == [(d, d - 1)], f"d={d} a={a}: {powered}"

    def test_coordinates_stay_within_hadamard_bound(self, monkeypatch):
        """Work pin on integer size, on the sheared pascal cases: every entry
        of the coordinates c = ū diag(1/δ) of g over the Jordan chain's
        integer frame is, up to sign, a d x d determinant of columns of the
        two frames, so at most Hadamard's bound on their d longest columns.
        At d = 6 that is 27 bits; an elimination started from 1 instead of
        the solve's determinant gave 132."""
        seen = []
        real = dynamics._coordinates

        def recorded(f, hs, failure):
            for c in real(f, hs, failure):
                seen.append(([r for r, _ in f], [r for r, _ in hs[0]], c))
                yield c

        monkeypatch.setattr(dynamics, "_coordinates", recorded)
        for d, a in SHEARED_PASCAL_CASES:
            _, desc = standard_flags(d)
            seen.clear()
            assert power_positivity_threshold(pascal(d), desc.apply(Matrix.elementary(d, 1, 2, a)))
            (f, h, (ubar, delta)), = seen
            entries = [x for row in ubar for x in row] + delta
            assert max(x * x for x in entries) <= hadamard_squared(d, f, h), (d, a)
            if d == 6:
                assert max(abs(x).bit_length() for x in entries) <= 32, a

    def test_dependent_chain_is_an_invariant_violation(self, monkeypatch):
        """A chain that is not a basis cannot come out of `_jordan_chain`; if
        it did, the search reports a broken invariant, not a singular input."""
        _, desc = standard_flags(3)
        dependent = [[0, 0, 1], [0, 1, 0], [0, 2, 0]]
        monkeypatch.setattr(dynamics, "_jordan_chain", lambda u: (dependent, 1))
        with pytest.raises(InvariantViolated, match="a Jordan chain must be a basis"):
            power_positivity_threshold(pascal(3), desc)

    def test_cases_cover_every_outcome(self):
        rng = random.Random(5)
        seen = {
            outcome(power_positivity_threshold, *threshold_case(d, kind, cap, rng))[0]
            for d in (2, 4, 6) for kind in THRESHOLD_KINDS for cap in (5, 30, 80)
        }
        assert seen == {"ok", "CapExceeded", "NotTransverse", "NotSingleJordanBlock",
                        "NotUnipotent", "DimensionMismatch"}


class TestAttractingFixedPoint:
    def test_diagonal(self):
        g = MoebiusElement.of(2, 0, 0, F(1, 2))
        assert attracting_fixed_point(g) == ProjectivePoint(1, 0)
        assert attracting_fixed_point(g.inverse()) == ProjectivePoint(0, 1)

    def test_conjugated(self):
        h = Matrix(((3, 1), (2, 1)))
        core = Matrix.diagonal((F(6, 5), F(5, 6)))
        g = MoebiusElement(h @ core @ h.inverse())
        assert attracting_fixed_point(g) == ProjectivePoint(3, 2)
        assert attracting_fixed_point(g.inverse()) == ProjectivePoint(1, 1)

    def test_lower_triangular(self):
        # b = 0 and c != 0: the eigenline of 2 is spanned by (2 - 1/2, 1)
        assert attracting_fixed_point(MoebiusElement.of(2, 0, 1, F(1, 2))) == ProjectivePoint(3, 2)

    def test_requires_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            attracting_fixed_point(MoebiusElement.of(1, 1, 0, 1))

    def test_irrational_eigenline_reported(self):
        g = MoebiusElement.of(2, 1, 1, 1)
        assert g.is_hyperbolic
        with pytest.raises(RationalEigenlineRequired):
            attracting_fixed_point(g)


class TestSingularRatioProfile:
    def test_diagonal_five_one(self):
        g = MoebiusElement.of(2, 0, 0, F(1, 2))
        profile = singular_ratio_profile(barbot_spec(5, 1), g, 1)
        # r = 4, k = 2: gaps (r, sqrt r, sqrt r, r) = (4, 2, 2, 4)
        want = [4.0, 2.0, 2.0, 4.0]
        for (i, measured, predicted), w in zip(profile, want):
            assert predicted == pytest.approx(w, rel=1e-12)
            assert measured == pytest.approx(w, rel=1e-9)

    def test_diagonal_three_one(self):
        # k = 1 puts both gaps in the square-root branch: profile (s, s)
        g = MoebiusElement.of(3, 0, 0, F(1, 3))
        profile = singular_ratio_profile(barbot_spec(3, 1), g, 1)
        assert len(profile) == 2
        for i, measured, predicted in profile:
            assert predicted == pytest.approx(3.0, rel=1e-12)
            assert measured == pytest.approx(3.0, rel=1e-9)

    def test_random_hyperbolic_matches_prediction(self):
        rng = random.Random(113)
        for d, j in ((3, 1), (5, 1), (5, 2), (7, 3)):
            spec = barbot_spec(d, j)
            for _ in range(4):
                g = random_mild_hyperbolic(rng)
                for i, measured, predicted in singular_ratio_profile(spec, g, 5):
                    assert abs(measured - predicted) <= 1e-8 * predicted

    def test_requires_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            singular_ratio_profile(barbot_spec(3, 1), MoebiusElement.of(1, 1, 0, 1), 3)


class TestWeightedBasis:
    def test_rotation_like_elements_act_by_isometries(self):
        # the weights and the per-block unit-determinant scaling together
        # make g_from_point(x)^n orthogonal in the measured basis
        for d, j in ((3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)):
            spec = barbot_spec(d, j)
            for p, q in ((1, 2), (-3, 5), (7, 1), (0, 1)):
                g = g_from_point(ProjectivePoint(p, q))
                for n in (1, 2, 3):
                    tau = np.array(_tau_hat(spec, g, n))
                    assert np.abs(tau.T @ tau - np.eye(d)).max() < 1e-12


    @pytest.mark.parametrize("d, j", [(3, 1), (5, 2), (7, 3)])
    def test_graded_entries_match_mpmath(self, d, j):
        # a non-diagonal g with det 5 spreads tau-hat's entries over many
        # orders of magnitude; each must be the correctly scaled value to a
        # few roundings, checked against the exact entries at 50 digits
        spec = barbot_spec(d, j)
        g = MoebiusElement.of(3, 1, 1, 2)
        blocks = dynamics._blocks(spec)
        with mpmath.workdps(50):
            w = [mpmath.sqrt(math.comb(m - 1, i - 1)) for m, i in blocks]
            for n in (1, 6, 15):
                exact = barbot_matrix(spec, g.power(n)).rows_tuple()
                absdet = mpmath.mpf(abs(g.det).numerator) / abs(g.det).denominator
                got = _tau_hat(spec, g, n)
                for i, (m, _) in enumerate(blocks):
                    scale = absdet ** (mpmath.mpf(n * (m - 1)) / 2)
                    for k, x in enumerate(exact[i]):
                        want = mpmath.mpf(x.numerator) / x.denominator / scale * w[k] / w[i]
                        assert abs(got[i][k] - want) <= 1e-15 * abs(want), (n, i, k)

    def test_vanishing_determinant_is_outside_the_float_range(self):
        # |det g| = 2^-1200 rounds to 0.0, so the det scaling divides by zero
        tiny = F(1, 2**600)
        with pytest.raises(PreconditionViolated, match="g\\^n is outside the float range at n = 1"):
            _tau_hat(barbot_spec(3, 1), MoebiusElement.of(tiny, 0, 0, tiny), 1)


class TestLimitConvergence:
    def test_empty_series(self):
        g = MoebiusElement.of(2, 0, 0, F(1, 2))
        assert limit_convergence(barbot_spec(3, 1), g, 0) == []

    def test_diagonal_reaches_target(self):
        g = MoebiusElement.of(2, 0, 0, F(1, 2))
        series = limit_convergence(barbot_spec(3, 1), g, 50)
        assert len(series) == 50
        final = series[-1]
        assert isinstance(final, LimitEntry)
        assert not final.skipped
        assert final.distance < 1e-9

    def test_inverse_converges_to_repelling_line(self):
        g = MoebiusElement.of(2, 0, 0, F(1, 2))
        assert attracting_fixed_point(g.inverse()) == ProjectivePoint(0, 1)
        series = limit_convergence(barbot_spec(3, 1), g.inverse(), 50)
        assert series[-1].distance < 1e-9

    def test_conjugated_decreasing_tail(self):
        h = Matrix(((3, 1), (2, 1)))
        core = Matrix.diagonal((F(6, 5), F(5, 6)))
        g = MoebiusElement(h @ core @ h.inverse())
        series = limit_convergence(barbot_spec(5, 2), g, 50)
        live = {e.n: e.distance for e in series if not e.skipped}
        assert live[50] < 1e-6
        # decreasing over a window safely above the float noise floor
        window = [live[n] for n in (10, 20, 30, 40) if n in live]
        assert len(window) == 4
        assert all(b < a for a, b in zip(window, window[1:]))

    @pytest.mark.parametrize("d, j, n_max", [(3, 1, 70), (5, 2, 40)])
    def test_diagonal_past_the_rotation_floor_matches_numpy(self, d, j, n_max):
        # g = diag(1/2, 2) attracts to [0:1], so tau-hat is diagonal and
        # increasing in basis order; from n = 25 at (5,2) and n = 51 at (3,1)
        # its small values are below the rotation floor, and the SVD flag
        # must still be numpy's U, at distance 0 from the limit
        spec, g = barbot_spec(d, j), MoebiusElement.of(F(1, 2), 0, 0, 2)
        series = limit_convergence(spec, g, n_max)
        assert [(e.skipped, e.distance) for e in series] == [(False, 0.0)] * n_max
        for n in range(n_max - 15, n_max + 1):
            tau = _tau_hat(spec, g, n)
            un = np.linalg.svd(np.array(tau))[0]
            assert np.array_equal(np.abs(np.array(svd_flag(tau).frame)), np.abs(un)), n

    def test_narrow_gaps_are_skipped(self):
        # singular value ratios near 1 + 1e-12 are below the 1 + 1e-8 tolerance
        eps = F(1, 10**12)
        g = MoebiusElement.of(1 + eps, 0, 0, 1 / (1 + eps))
        series = limit_convergence(barbot_spec(3, 1), g, 3)
        assert [(e.n, e.skipped, e.distance) for e in series] == [
            (1, True, None), (2, True, None), (3, True, None)
        ]
        assert all(1 <= e.min_gap < 1 + 1e-8 for e in series)

    def test_limit_flag_outside_float_range(self):
        g = MoebiusElement.of(F(1, 2), 10**400, 0, 2)
        with pytest.raises(PreconditionViolated, match="the limit flag is outside the float range"):
            limit_convergence(barbot_spec(3, 1), g, 3)

    def test_requires_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            limit_convergence(barbot_spec(3, 1), MoebiusElement.of(0, -1, 1, 0), 5)
