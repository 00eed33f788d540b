import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import posiflag.flags as flags_module
from posiflag import (
    AdaptedBasis,
    BadParameters,
    DimensionMismatch,
    Flag,
    IndexOutOfRange,
    InvariantViolated,
    Matrix,
    NotSingleJordanBlock,
    NotTransverse,
    NotUnipotent,
    PosiflagError,
    SingularMatrix,
    Status,
    adapted_basis,
    is_positive_tuple_chain,
    pascal,
    random_tp,
    standard_flags,
    tp_staged,
    transporter,
    transverse,
    unipotent_fixed_flag,
)
from posiflag.linalg import _cleared, _grid_rank
from helpers import gen_boundary, kernel_fixed_flag, random_single_block, reference_fixed_flag

F = Fraction


def rand_flag(d: int, rng: random.Random) -> Flag:
    while True:
        m = Matrix(
            tuple(
                tuple(F(rng.randint(-4, 4)) for _ in range(d)) for _ in range(d)
            )
        )
        if m.det() != 0:
            return Flag(m)


# each routine of two or three flags (or a basis and flags) given two dimensions
_ASC2, _DESC2 = standard_flags(2)
_ASC3, _DESC3 = standard_flags(3)
DIMENSION_MISMATCHES = {
    "transverse": lambda: transverse(_ASC2, _DESC3),
    "AdaptedBasis": lambda: AdaptedBasis(Matrix.identity(2), (_ASC3, _DESC3)),
    "adapted_basis": lambda: adapted_basis(_ASC3, _DESC2),
    "transporter": lambda: transporter(_ASC3, _DESC3, _ASC2),
}


@pytest.mark.parametrize("call", DIMENSION_MISMATCHES.values(), ids=DIMENSION_MISMATCHES)
def test_flags_of_two_dimensions_are_rejected(call):
    with pytest.raises(DimensionMismatch):
        call()


class TestFlagType:
    def test_rejects_singular_frame(self):
        with pytest.raises(SingularMatrix):
            Flag(Matrix(((1, 2), (2, 4))))

    def test_equality_is_subspace_equality(self):
        a = Flag(Matrix.identity(3))
        b = Flag(Matrix(((2, 7, 1), (0, 3, 1), (0, 0, 5))))
        assert a == b
        c = Flag(Matrix.reversal(3))
        assert a != c
        assert a != Flag(Matrix.identity(2)) and a != Matrix.identity(3)
        assert a.__eq__(Matrix.identity(3)) is NotImplemented

    def test_equality_matches_the_rank_definition(self):
        """F^-1 G upper triangular against rank [F^k | G^k] = k for every k,
        on frame pairs sharing their first m columns, so both outcomes occur."""
        rng = random.Random(47)
        seen = set()
        for _ in range(120):
            d = rng.randint(1, 5)
            f = rand_flag(d, rng)
            m = rng.randint(0, d)
            while True:
                cols = [f.column(k) for k in range(1, m + 1)]
                cols += [tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(d - m)]
                frame = Matrix([[c[i] for c in cols] for i in range(d)])
                if frame.det() != 0:
                    break
            g = Flag(frame)
            a, b = [f.column(k) for k in range(1, d + 1)], cols
            want = all(
                _grid_rank([r for r, _ in _cleared([c[i] for c in a[:k] + b[:k]] for i in range(d))])
                == k
                for k in range(1, d)
            )
            assert (f == g) == want
            seen.add(want)
        assert seen == {True, False}

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Flag(Matrix.identity(2)))

    def test_immutable(self):
        """A flag keeps its frame's cleared rows, so no attribute may be rebound."""
        f = Flag(Matrix.identity(2))
        for name in ("frame", "dim", "_rows"):
            with pytest.raises(AttributeError):
                setattr(f, name, Matrix.reversal(2))

    def test_contains(self):
        asc, _ = standard_flags(3)
        assert asc.contains((F(5), F(0), F(0)), 1)
        assert not asc.contains((F(0), F(1), F(0)), 1)
        assert asc.contains((F(1), F(1), F(0)), 2)
        assert asc.contains((F(1), F(1), F(1)), 3)

    def test_contains_the_zero_subspace(self):
        asc, _ = standard_flags(3)
        assert asc.contains((F(0), F(0), F(0)), 0)
        assert not asc.contains((F(1), F(0), F(0)), 0)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_contains_rejects_a_subspace_out_of_range(self, k):
        asc, _ = standard_flags(3)
        with pytest.raises(IndexOutOfRange, match=f"subspace {k} out of range .* dimension 3"):
            asc.contains((F(1), F(0), F(0)), k)

    def test_contains_takes_entries_as_matrix_does(self):
        """A vector's entries follow Matrix's rule: integers, Fractions and
        rational strings are read exactly, and a float is a bad parameter."""
        asc, _ = standard_flags(3)
        assert asc.contains(("1/2", 3, F(0)), 2)
        assert not asc.contains(("1/2", 0, "-2/3"), 2)
        with pytest.raises(BadParameters, match="got float"):
            asc.contains((0.5, 0, 0), 1)

    def test_contains_rejects_a_longer_vector(self):
        asc, _ = standard_flags(2)
        with pytest.raises(DimensionMismatch, match="3 coordinates .* dimension 2"):
            asc.contains((F(1), F(0), F(5)), 1)

    def test_contains_rejects_a_shorter_vector(self):
        asc, _ = standard_flags(2)
        with pytest.raises(DimensionMismatch, match="1 coordinates .* dimension 2"):
            asc.contains((F(1),), 1)

    def test_apply_is_left_action(self):
        rng = random.Random(1)
        flag = rand_flag(3, rng)
        g = random_tp(3, 17)
        h = random_tp(3, 23)
        assert flag.apply(g @ h) == flag.apply(h).apply(g)


class TestStandardAndTransverse:
    def test_standard_flags_d2(self):
        asc, desc = standard_flags(2)
        assert asc.contains((F(1), F(0)), 1)
        assert desc.contains((F(0), F(1)), 1)
        assert asc != desc

    def test_ascending_descending_transverse(self):
        for d in (2, 3, 4, 5):
            asc, desc = standard_flags(d)
            assert transverse(asc, desc)

    def test_self_never_transverse(self):
        for d in (2, 3, 4):
            asc, _ = standard_flags(d)
            assert not transverse(asc, asc)

    def test_symmetric(self):
        rng = random.Random(31)
        for _ in range(20):
            f, g = rand_flag(3, rng), rand_flag(3, rng)
            assert transverse(f, g) == transverse(g, f)


class TestAdaptedBasis:
    def test_standard_pair_gives_identity(self):
        asc, desc = standard_flags(3)
        assert adapted_basis(asc, desc).matrix == Matrix.identity(3)

    def test_reversed_pair_gives_reversal(self):
        asc, desc = standard_flags(3)
        assert adapted_basis(desc, asc).matrix == Matrix.reversal(3)

    def test_sheared_descending(self):
        # H = v.descending with v = I + 5 E_12: columns come out as v's
        asc, desc = standard_flags(3)
        v = Matrix(((1, 5, 0), (0, 1, 0), (0, 0, 1)))
        h = desc.apply(v)
        assert adapted_basis(asc, h).matrix == v

    def test_requires_transverse(self):
        asc, _ = standard_flags(3)
        with pytest.raises(NotTransverse):
            adapted_basis(asc, asc)

    def test_columns_lie_in_both_flags(self):
        rng = random.Random(13)
        d = 4
        for _ in range(15):
            f, h = rand_flag(d, rng), rand_flag(d, rng)
            if not transverse(f, h):
                continue
            p = adapted_basis(f, h).matrix
            for k in range(1, d + 1):
                col = p.column(k)
                assert any(x != 0 for x in col)
                assert f.contains(col, k)
                assert h.contains(col, d - k + 1)


class TestTransporter:
    def test_same_flag_gives_identity(self):
        asc, desc = standard_flags(4)
        assert transporter(asc, desc, desc) == Matrix.identity(4)

    def test_pascal_shift(self):
        asc, desc = standard_flags(3)
        q = pascal(3)
        assert transporter(asc, desc, desc.apply(q)) == q

    def test_conjugated_power(self):
        # H = v.descending, G = Q^t.H: transporter is v^-1 Q^t v
        asc, desc = standard_flags(3)
        v = Matrix(((1, 5, 0), (0, 1, 0), (0, 0, 1)))
        h = desc.apply(v)
        for t in (1, 2, 7):
            q_t = pascal(3).power(t)
            g = h.apply(q_t)
            assert transporter(asc, h, g) == v.inverse() @ q_t @ v

    def test_moves_h_to_g_in_ambient_coordinates(self):
        rng = random.Random(71)
        d = 4
        asc, desc = standard_flags(d)
        for _ in range(10):
            g_flag = desc.apply(random_tp(d, rng.randint(0, 10**9)))
            u = transporter(asc, desc, g_flag)
            p = adapted_basis(asc, desc).matrix
            ambient = p @ u @ p.inverse()
            assert desc.apply(ambient) == g_flag
            assert asc.apply(ambient) == asc

    def test_uniqueness_under_perturbation(self):
        asc, desc = standard_flags(3)
        g = desc.apply(pascal(3))
        u = transporter(asc, desc, g)
        p = adapted_basis(asc, desc).matrix
        bump = Matrix.elementary(3, 1, 3, F(1, 2))
        other = p @ (u @ bump) @ p.inverse()
        assert desc.apply(other) != g

    def test_requires_transversality(self):
        asc, desc = standard_flags(3)
        with pytest.raises(NotTransverse):
            transporter(asc, asc, desc)
        with pytest.raises(NotTransverse):
            transporter(asc, desc, asc)

    def test_boundary_transporter_means_non_transverse_images(self):
        rng = random.Random(19)
        for d in (3, 4):
            for _ in range(10):
                u = gen_boundary(d, rng)
                asc, desc = standard_flags(d)
                g = desc.apply(u)
                back = transporter(asc, desc, g)
                assert back == u
                assert tp_staged(back).status is Status.NONNEGATIVE_BOUNDARY
                assert not transverse(g, desc)


class TestUnipotentFixedFlag:
    def test_pascal_fixes_ascending(self):
        for d in (2, 3, 4, 5):
            asc, _ = standard_flags(d)
            fixed = unipotent_fixed_flag(pascal(d))
            assert fixed == asc
            assert fixed.apply(pascal(d)) == fixed

    def test_generic_regular_unipotent(self):
        u = Matrix(((1, 2, 5), (0, 1, 3), (0, 0, 1)))
        fixed = unipotent_fixed_flag(u)
        assert fixed.apply(u) == fixed

    def test_requires_single_jordan_block(self):
        with pytest.raises(NotSingleJordanBlock):
            unipotent_fixed_flag(Matrix.identity(3))
        split = Matrix(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
        with pytest.raises(NotSingleJordanBlock):
            unipotent_fixed_flag(split)

    def test_jordan_frame_conjugates_to_shift(self):
        # F^-1 u F = I + S exactly, S the superdiagonal shift, and the flag
        # is the one the kernels of (u - I)^k span
        rng = random.Random(31)
        for d in (1, 2, 3, 4, 5, 6):
            i_plus_shift = Matrix([[int(j in (i, i + 1)) for j in range(d)] for i in range(d)])
            for _ in range(6):
                h = rand_flag(d, rng).frame
                u = h @ random_single_block(d, rng) @ h.inverse()
                fixed = unipotent_fixed_flag(u)
                assert fixed.frame.inverse() @ u @ fixed.frame == i_plus_shift
                assert fixed == kernel_fixed_flag(u)

    def test_not_unipotent_reported_before_split(self):
        for m in (Matrix.diagonal((1, 1, 2)), Matrix.diagonal((1, 1, -1)),
                  Matrix(((2, 1, 0), (0, 1, 0), (0, 0, 1)))):
            with pytest.raises(NotUnipotent, match=r"\(u - I\)\^dim != 0"):
                unipotent_fixed_flag(m)
        with pytest.raises(NotSingleJordanBlock, match="needs a single Jordan block"):
            unipotent_fixed_flag(Matrix(((1, 0, 1), (0, 1, 1), (0, 0, 1))))


FIXED_FLAG_KINDS = ["upper", "lower", "conjugated", "rational", "split", "identity",
                    "nonunipotent", "rank2", "cyclic", "dense"]


def fixed_flag_case(d: int, kind: str, rng: random.Random) -> Matrix:
    """A d x d matrix of one kind: a single-block upper unipotent, its
    transpose, or its conjugate by an integer or a rational h; a split
    Jordan type (a zero superdiagonal entry) or the identity; a single
    block with one diagonal entry moved off 1; h diag(1, ..., 1, 2, 2) h^-1,
    whose N^(d-1) has rank 2; I + P for the cyclic shift P, whose chain
    is a basis although N^d = I; or a dense integer matrix."""
    def invertible(rational=False):
        while True:
            h = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1)
                         for _ in range(d)] for _ in range(d)])
            if h.det() != 0:
                return h

    def conjugate(m, rational=False):
        h = invertible(rational)
        return h @ m @ h.inverse()

    block = random_single_block(d, rng)
    if kind == "upper":
        return block
    if kind == "lower":
        return Matrix(list(zip(*block.rows_tuple())))
    if kind in ("conjugated", "rational"):
        return conjugate(block, kind == "rational")
    if kind == "identity":
        return Matrix.identity(d)
    if kind == "dense":
        return Matrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
    if kind == "rank2":
        return conjugate(Matrix.diagonal([1] * (d - 2) + [2, 2]))
    if kind == "cyclic":
        return conjugate(Matrix([[int(i == j) + int(j == (i + 1) % d) for j in range(d)]
                                 for i in range(d)]))
    rows = [list(r) for r in block.rows_tuple()]
    i = rng.randrange(d - 1) if kind == "split" else rng.randrange(d)
    if kind == "split":
        rows[i][i + 1] = F(0)
    else:
        rows[i][i] = F(rng.choice((2, -1, F(1, 2))))
    return conjugate(Matrix(rows), rng.random() < 0.5)


def nilpotent_power(u: Matrix, k: int) -> Matrix:
    """(u - I)^k."""
    return Matrix([[x - (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(u.rows_tuple())]).power(k)


class TestJordanChain:
    """`unipotent_fixed_flag` takes u's Jordan chain from 2d - 1 vector
    products (`linalg._jordan_chain`); the d + 1 matrix powers it replaced
    are kept as `helpers.reference_fixed_flag`."""

    def test_matches_powers_route_on_seeded_corpus(self):
        """Frames bit for bit, or the same exception type and message, for
        d = 1..7 over every kind.  A lower-triangular block makes the row
        search pass row 0, and a non-nilpotent N with N^(d-1) of rank 2 must
        still raise NotUnipotent."""
        rng = random.Random(2_401)

        def outcome(fn, u):
            try:
                return "ok", fn(u).frame.rows_tuple()
            except PosiflagError as exc:
                return type(exc).__name__, str(exc)

        seen = Counter()
        for d in range(1, 8):
            for kind in FIXED_FLAG_KINDS:
                if d < 2 and kind in ("lower", "split", "rank2", "cyclic"):
                    continue
                for _ in range(4):
                    u = fixed_flag_case(d, kind, rng)
                    got = outcome(unipotent_fixed_flag, u)
                    assert got == outcome(reference_fixed_flag, u), (d, kind, u)
                    seen[kind, got[0]] += 1
                    if kind == "lower":
                        assert not any(nilpotent_power(u, d - 1).row(1))
                    if kind == "rank2":
                        rows = _cleared(nilpotent_power(u, d - 1).rows_tuple())
                        assert _grid_rank([r for r, _ in rows]) == 2
        for kind in ("upper", "lower", "conjugated", "rational"):
            assert seen[kind, "ok"] > 0, kind
        assert seen["split", "NotSingleJordanBlock"] > 0
        assert seen["identity", "NotSingleJordanBlock"] > 0
        for kind in ("nonunipotent", "rank2", "cyclic"):
            assert seen[kind, "NotUnipotent"] == sum(n for (k, _), n in seen.items() if k == kind)


def skew_reduction(monkeypatch):
    """Corrupt adapted_basis: double the first row of each eliminated grid
    past its pivot, so the integer coordinates ū stay upper triangular over
    F's frame but no longer span the lines of H."""
    real = flags_module._bareiss

    def skewed(a, swaps=True):
        pivots, sign = real(a, swaps)
        a[0][pivots[0] + 1:] = [2 * x for x in a[0][pivots[0] + 1:]]
        return pivots, sign

    monkeypatch.setattr(flags_module, "_bareiss", skewed)


# one entry of each eliminated 3x3 pair block, by what it holds
CORRUPTED_ENTRIES = {"multiplier": (1, 0), "pivot": (1, 1), "last row": (2, 2)}


def corrupt_entry(monkeypatch, i, j):
    """Corrupt adapted_basis: move entry (i, j) of each eliminated grid,
    doubled when nonzero and set to 1 when zero, so no pivot becomes zero."""
    real = flags_module._bareiss

    def corrupted(a, swaps=True):
        out = real(a, swaps)
        a[i][j] += a[i][j] or 1
        return out

    monkeypatch.setattr(flags_module, "_bareiss", corrupted)


class TestInvariants:
    def test_corrupted_adapted_basis_is_an_explicit_error(self, monkeypatch):
        asc, desc = standard_flags(3)
        h = desc.apply(pascal(3))
        skew_reduction(monkeypatch)
        with pytest.raises(InvariantViolated, match="descending flag"):
            adapted_basis(asc, h)
        with pytest.raises(InvariantViolated, match="descending flag"):
            is_positive_tuple_chain([asc, desc.apply(pascal(3).power(2)), h])
        # transporter builds no adapted basis: only the coordinates' own check sees it
        with pytest.raises(InvariantViolated, match="descending flag"):
            transporter(asc, h, desc.apply(pascal(3).power(2)))

    @pytest.mark.parametrize("cell", CORRUPTED_ENTRIES.values(), ids=CORRUPTED_ENTRIES)
    def test_corrupted_entry_is_an_explicit_error(self, monkeypatch, cell):
        """A multiplier, a pivot or the last row's entry of the elimination,
        corrupted, fails the coordinates' own check on every route."""
        asc, desc = standard_flags(3)
        h, g = desc.apply(pascal(3)), desc.apply(pascal(3).power(2))
        corrupt_entry(monkeypatch, *cell)
        with pytest.raises(InvariantViolated, match="descending flag"):
            adapted_basis(asc, h)
        with pytest.raises(InvariantViolated, match="descending flag"):
            transporter(asc, h, g)
        with pytest.raises(InvariantViolated, match="descending flag"):
            is_positive_tuple_chain([asc, g, h])

    def test_basis_not_adapted_to_its_source(self):
        asc, desc = standard_flags(3)
        with pytest.raises(InvariantViolated):
            AdaptedBasis(Matrix.identity(3), (asc, desc.apply(pascal(3))))
        with pytest.raises(InvariantViolated):
            AdaptedBasis(Matrix.diagonal((1, 1, 0)), (asc, desc))

    def test_checks_survive_optimize_flag(self):
        code = (
            "import posiflag.flags as m\n"
            "from posiflag import InvariantViolated, pascal, standard_flags\n"
            "real = m._scaled_solve\n"
            "def doubled(a, b):\n"
            "    x, den = real(a, b)\n"
            "    return [[2 * v for v in r] if i == 0 else r for i, r in enumerate(x)], den\n"
            "m._scaled_solve = doubled\n"
            "asc, desc = standard_flags(3)\n"
            "try:\n"
            "    m.adapted_basis(asc, desc.apply(pascal(3)))\n"
            "except InvariantViolated:\n"
            "    print('raised')\n"
        )
        # the child imports the same posiflag as this process
        env = {**os.environ, "PYTHONPATH": str(Path(flags_module.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert out.stdout.strip() == "raised"

    def test_corrupted_entries_raise_under_optimize_flag(self):
        code = (
            "import posiflag.flags as m\n"
            "from posiflag import InvariantViolated, is_positive_tuple_chain, pascal, standard_flags\n"
            "real = m._bareiss\n"
            "asc, desc = standard_flags(3)\n"
            "h, g = desc.apply(pascal(3)), desc.apply(pascal(3).power(2))\n"
            f"for i, j in {list(CORRUPTED_ENTRIES.values())!r}:\n"
            "    def corrupted(a, swaps=True, i=i, j=j):\n"
            "        out = real(a, swaps)\n"
            "        a[i][j] += a[i][j] or 1\n"
            "        return out\n"
            "    m._bareiss = corrupted\n"
            "    for route in (lambda: m.adapted_basis(asc, h), lambda: m.transporter(asc, h, g),\n"
            "                  lambda: is_positive_tuple_chain([asc, g, h])):\n"
            "        try:\n"
            "            route()\n"
            "            print('passed')\n"
            "        except InvariantViolated as exc:\n"
            "            print('raised' if 'descending flag' in str(exc) else exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(flags_module.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=env, check=True)
        assert out.stdout.split("\n") == ["raised"] * 9 + [""]
