"""Shared generators and independent oracles for the test suite.

The determinant and minor-scan oracles here are deliberately naive
(recursive cofactor expansion, direct enumeration) so that frozen test
values never depend on the code paths under test.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from unittest.mock import patch

import sympy

from posiflag import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    Flag,
    InvariantViolated,
    Matrix,
    MinorIndex,
    NotSingleJordanBlock,
    NotTransverse,
    NotUnipotent,
    ProjectivePoint,
    SingularMatrix,
    Status,
    Witness,
    ZeroSuperdiagonal,
    is_positive_triple,
    is_upper_unipotent,
    jordan_block_sizes,
    random_tp,
    standard_flags,
    tp_staged,
    transverse,
)
from posiflag.flags import _coordinates, unipotent_fixed_flag
from posiflag.linalg import (
    _back_substitute, _bareiss, _cleared, _column_scaled, _fractions, _quotient,
    _ratio, _scaled_powers,
)
from posiflag.positivity import _contiguous_minors
from posiflag.reps import MoebiusElement
from posiflag.tuples import _TupleEngine


def reference_bareiss(a: list[list[int]], swaps: bool = True) -> tuple[list[int], int]:
    """`linalg._bareiss` as first written, kept as the reference: every row
    below the pivot row gets the full update, whatever its multiplier."""
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if a[r][c] == 0:
            swap = next((i for i in range(r + 1, nrows) if a[i][c]), None) if swaps else None
            if swap is None:
                continue
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        row_r = a[r]
        pivot = row_r[c]
        for i in range(r + 1, nrows):
            row_i = a[i]
            aic = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pivot - aic * row_r[j]) // prev
        pivots.append(c)
        prev = pivot
    return pivots, sign


def cofactor_det(grid: list[list[Fraction]]) -> Fraction:
    """Recursive first-row cofactor expansion; quadratic-free reference."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = Fraction(0)
    for j in range(n):
        if grid[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1:] for row in grid[1:]]
        total += (-1) ** j * grid[0][j] * cofactor_det(sub)
    return total


def naive_minor(m: Matrix, rows, cols) -> Fraction:
    grid = [[m.entry(i, j) for j in cols] for i in rows]
    return cofactor_det(grid)


def naive_scan(m: Matrix):
    """Reference three-state scan over all nontrivial minors.

    Returns (status_name, witness_index_or_None) with the witness the
    first non-positive nontrivial minor in (size, rows, cols) order.
    """
    d = m.dim
    first = None
    saw_negative = False
    for k in range(1, d + 1):
        for rows in combinations(range(1, d + 1), k):
            for cols in combinations(range(1, d + 1), k):
                if any(i > j for i, j in zip(rows, cols)):
                    continue
                val = naive_minor(m, rows, cols)
                if val <= 0 and first is None:
                    first = (rows, cols, val)
                if val < 0:
                    saw_negative = True
    if saw_negative:
        return "Outside", first
    if first is not None:
        return "NonnegativeBoundary", first
    return "Positive", None


def staged_bareiss_scan(m: Matrix):
    """The staged scan with each minor its own determinant.

    Visits the nontrivial minors with consecutive row and column runs in
    (size, rows, cols) order, each evaluated by `Matrix.minor` (one
    fraction-free elimination per minor).  At the first non-positive one,
    of size k, visits the k x k nontrivial minors in (rows, cols) order up
    to the first non-positive one, the witness.  A zero witness is
    followed by the row-initial minors (rows 1..j for j = 1..d, any j
    columns; Gasca and Pena's initial-minor test for total nonnegativity)
    up to the first negative one, which makes the status Outside.  Returns
    (status, witness, evaluations), counting each minor of the scan and
    the witness search once as `tp_staged` does; the row-initial minors
    stand in for its Neville elimination, which counts none.
    """
    d = m.dim
    count = 0
    for k in range(1, d + 1):
        for a in range(1, d - k + 2):
            for b in range(a, d - k + 2):
                count += 1
                if m.minor(MinorIndex(range(a, a + k), range(b, b + k))) <= 0:
                    return _staged_fallback(m, k, count)
    return Status.POSITIVE, None, count


def _staged_fallback(m: Matrix, k: int, count: int):
    d = m.dim
    for rows in combinations(range(1, d + 1), k):
        for cols in combinations(range(1, d + 1), k):
            if any(i > j for i, j in zip(rows, cols)):
                continue
            count += 1
            index = MinorIndex(rows, cols)
            value = m.minor(index)
            if value <= 0:
                witness = Witness(index, value)
                if value < 0:
                    return Status.OUTSIDE, witness, count
                for j in range(1, d + 1):
                    for initial in combinations(range(1, d + 1), j):
                        if m.minor(MinorIndex(range(1, j + 1), initial)) < 0:
                            return Status.OUTSIDE, witness, count
                return Status.NONNEGATIVE_BOUNDARY, witness, count
    raise InvariantViolated("a failing consecutive level has a non-positive nontrivial minor")


def tuple_table_scan(m: Matrix):
    """`tp_oracle`'s table of every nontrivial minor, keyed by index tuples.

    The oracle's earlier form, kept as a differential reference for its
    plan-indexed table: rows cleared to the integer grid G, each size-k
    minor expanded along its last row into the size k-1 minors of the
    previous table, every entry counted as it is computed, and a stop at
    the first negative one.  Returns (status, witness, evaluations).
    """
    cleared = _cleared(m.rows_tuple())
    grid, row_scales = [r for r, _ in cleared], [t for _, t in cleared]
    d = len(grid)
    indices = range(1, d + 1)
    evaluations = 0
    # rows -> {cols -> minor} for the nontrivial minors of the previous size,
    # both keys in lexicographic order
    prev: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {(): {(): 1}}
    first_offender: tuple[MinorIndex, Fraction] | None = None
    saw_zero = False
    for k in range(1, d + 1):
        cur: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for rows in combinations(indices, k):
            head = rows[:-1]
            last = rows[-1]
            row_vals = grid[last - 1]
            sub = prev[head]
            table = cur[rows] = {}
            for base in sub:
                for c in range(max(base[-1] + 1 if base else 1, last), d + 1):
                    cols = base + (c,)
                    acc = 0
                    sign = 1 if k % 2 == 1 else -1
                    for p in range(k):
                        e = row_vals[cols[p] - 1]
                        if e:
                            acc += sign * e * sub[cols[:p] + cols[p + 1:]]
                        sign = -sign
                    table[cols] = acc
                    evaluations += 1
                    if acc <= 0:
                        if first_offender is None:
                            scale = prod(row_scales[i - 1] for i in rows)
                            first_offender = (MinorIndex(rows, cols), _ratio(acc, scale))
                        if acc < 0:
                            idx, val = first_offender
                            return Status.OUTSIDE, Witness(idx, val), evaluations
                        saw_zero = True
        prev = cur
    if saw_zero:
        idx, val = first_offender  # type: ignore[misc]
        return Status.NONNEGATIVE_BOUNDARY, Witness(idx, val), evaluations
    return Status.POSITIVE, None, evaluations


def count_nontrivial(d: int, sizes=None) -> int:
    """Number of nontrivial minors of a d x d matrix, of the given sizes (all by default)."""
    total = 0
    for k in sizes or range(1, d + 1):
        for rows in combinations(range(1, d + 1), k):
            for cols in combinations(range(1, d + 1), k):
                if all(i <= j for i, j in zip(rows, cols)):
                    total += 1
    return total


def random_tp_by_products(d: int, seed: int) -> Matrix:
    """`random_tp` by its definition: the staircase word (1)(2,1)...(d-1,...,1)
    of elementary factors I + t E_{i,i+1}, multiplied out as full Matrix
    products, with the same draws of t."""
    rng = random.Random(seed)
    m = Matrix.identity(d)
    for stage in range(1, d):
        for i in range(stage, 0, -1):
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            m = m @ Matrix.elementary(d, i, i + 1, t)
    return m


def staircase_word(d: int, params) -> Matrix:
    """The staircase word (1)(2,1)...(d-1,...,1) of factors I + t E_{i,i+1},
    with the d(d-1)/2 parameters t taken from `params` in that order, each
    factor applied as one column update."""
    params = iter(params)
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for stage in range(1, d):
        for i in range(stage, 0, -1):
            t = next(params)
            for row in rows[:i]:
                row[i] += t * row[i - 1]
    return Matrix(rows)


def gen_uniform(d: int, rng: random.Random) -> Matrix:
    """Upper unipotent with uniform small integer entries."""
    rows = []
    for i in range(d):
        row = [Fraction(0)] * i + [Fraction(1)]
        row += [Fraction(rng.randint(-3, 3)) for _ in range(d - i - 1)]
        rows.append(tuple(row))
    return Matrix(tuple(rows))


def gen_perturbed(d: int, rng: random.Random) -> Matrix:
    """Fully positive sample with one entry nudged by a small rational."""
    m = random_tp(d, rng.randint(0, 10**9))
    rows = [list(r) for r in m.rows_tuple()]
    i = rng.randrange(d - 1)
    j = rng.randrange(i + 1, d)
    rows[i][j] += Fraction(rng.randint(-2, 2), rng.randint(1, 5))
    return Matrix(tuple(tuple(r) for r in rows))


def gen_nudged_down(d: int, rng: random.Random) -> Matrix:
    """Fully positive sample with one entry above the superdiagonal scaled
    down by at most 1%; mostly Outside, with a late witness (d >= 3)."""
    rows = [list(r) for r in random_tp(d, rng.randint(0, 10**9)).rows_tuple()]
    i = rng.randrange(d - 2)
    j = rng.randrange(i + 2, d)
    rows[i][j] *= 1 - Fraction(rng.randint(1, 100), 10_000)
    return Matrix(tuple(tuple(r) for r in rows))


BOUNDARY_DRAWS = 1000


def gen_boundary(d: int, rng: random.Random) -> Matrix:
    """NonnegativeBoundary sample: staircase word with one zeroed parameter.

    Redraws while `tp_staged` says otherwise, at most BOUNDARY_DRAWS
    times; then RuntimeError, so a staged route that never says
    boundary fails the test that asked instead of hanging it.
    """
    n_params = d * (d - 1) // 2
    for _ in range(BOUNDARY_DRAWS):
        zero_at = rng.randrange(n_params)
        m = staircase_word(d, (
            Fraction(0) if k == zero_at else Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for k in range(n_params)
        ))
        if tp_staged(m).status is Status.NONNEGATIVE_BOUNDARY:
            return m
    raise RuntimeError(
        f"gen_boundary: no NonnegativeBoundary staircase word in {BOUNDARY_DRAWS} draws at d = {d}"
    )


def poison_factor(u: Matrix, rng: random.Random) -> Matrix:
    """Force minor((1,2),(2,3)) negative while keeping superdiagonals positive."""
    rows = [list(r) for r in u.rows_tuple()]
    rows[0][2] = rows[0][1] * rows[1][2] + Fraction(rng.randint(1, 3))
    return Matrix(tuple(tuple(r) for r in rows))


def tuple_from_factors(d: int, factors: list[Matrix]) -> list[Flag]:
    """Assemble the flag tuple whose chain factorization is the given list."""
    asc, desc = standard_flags(d)
    n = len(factors) + 2
    cumulative = {n: Matrix.identity(d)}
    prod = Matrix.identity(d)
    for j in range(n - 1, 1, -1):
        prod = prod @ factors[j - 2]
        cumulative[j] = prod
    return [asc] + [desc.apply(cumulative[j]) for j in range(2, n)] + [desc]


def reverse_column_echelon(c: Matrix) -> Matrix | None:
    """The upper unipotent u with c = (u . reversal) t for an upper triangular t.

    Plain Fraction column reduction: column m of c, less its multiples of
    the columns reduced before it, gets pivot 1 at coordinate d-m+1 and
    zeros below it, and is column d-m+1 of u.  None when a pivot is zero,
    which happens exactly when c's flag is not transverse to the ascending
    one.  With c = P^-1 G for P adapted to (F, H), u is the transporter
    of (F, H, G) by its definition.
    """
    d = c.dim
    reduced: list[list[Fraction]] = []
    for m in range(d):
        v = list(c.column(m + 1))
        for j, w in enumerate(reduced):
            coef = v[d - 1 - j]
            v = [x - coef * y for x, y in zip(v, w)]
        pivot = v[d - 1 - m]
        if pivot == 0:
            return None
        reduced.append([x / pivot for x in v])
    return Matrix([[reduced[d - 1 - j][i] for j in range(d)] for i in range(d)])


def all_anchors(flags: list[Flag]) -> _TupleEngine:
    """A new engine over `flags` with the coordinates of every pair built,
    or the NotTransverse that building them raises."""
    engine = _TupleEngine(flags)
    engine.anchors()
    return engine


def all_pairs_transverse(flags: list[Flag]) -> bool:
    return all(
        transverse(flags[i], flags[j])
        for i in range(len(flags))
        for j in range(i + 1, len(flags))
    )


def gen_positive_tuple(d: int, n: int, rng: random.Random) -> list[Flag]:
    while True:
        factors = [random_tp(d, rng.randint(0, 10**9)) for _ in range(n - 2)]
        flags = tuple_from_factors(d, factors)
        if all_pairs_transverse(flags):
            return flags


def gen_nonpositive_tuple(d: int, n: int, rng: random.Random) -> list[Flag]:
    """A pairwise transverse n-tuple of d-dimensional flags whose chain has
    one poisoned factor (see `poison_factor`), so it is not positive.
    The poisoned minor ((1,2),(2,3)) needs d >= 3; smaller d raises ValueError."""
    if d < 3:
        raise ValueError(f"poisoning minor ((1,2),(2,3)) needs d >= 3, got d = {d}")
    while True:
        factors = [random_tp(d, rng.randint(0, 10**9)) for _ in range(n - 2)]
        idx = rng.randrange(len(factors))
        factors[idx] = poison_factor(factors[idx], rng)
        flags = tuple_from_factors(d, factors)
        if all_pairs_transverse(flags):
            return flags


def distinct_points(n: int, rng: random.Random) -> list[ProjectivePoint]:
    """n distinct projective points in strict cyclic order."""
    pts: set[ProjectivePoint] = set()
    while len(pts) < n:
        p, q = rng.randint(-9, 9), rng.randint(0, 9)
        if (p, q) != (0, 0):
            pts.add(ProjectivePoint(p, q))
    return sorted(pts, key=lambda x: x.angle_key)


# integer conjugates of mild rational diagonals: hyperbolic, rational
# eigenlines, and conditioned well enough that float SVD noise stays an
# order of magnitude under the 1e-8 comparisons they are used in
_CONJUGATORS = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((3, 1), (2, 1)),
    ((2, 1), (1, 1)),
    ((1, 2), (1, 3)),
]
_STRETCHES = [
    Fraction(6, 5),
    Fraction(5, 4),
    Fraction(4, 3),
]


def random_mild_hyperbolic(rng: random.Random) -> MoebiusElement:
    s = rng.choice(_STRETCHES)
    h_rows = rng.choice(_CONJUGATORS)
    h = Matrix(tuple(tuple(Fraction(x) for x in row) for row in h_rows))
    core = Matrix(((s, Fraction(0)), (Fraction(0), 1 / s)))
    return MoebiusElement(h @ core @ h.inverse())


def random_single_block(d: int, rng: random.Random) -> Matrix:
    """Upper unipotent with nonzero superdiagonal, so one Jordan block."""
    supers = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-2, 3)]
    others = [0, 0, 1, 2, -1, -2, Fraction(1, 3)]
    return Matrix([
        [0] * i + [1] + [rng.choice(supers if j == i + 1 else others) for j in range(i + 1, d)]
        for i in range(d)
    ])


def kernel_fixed_flag(u: Matrix) -> Flag:
    """The fixed flag of a single-block unipotent u, from kernels.

    Column k is the first vector of sympy's kernel basis of N^k, N = u - I,
    that N^(k-1) does not annihilate, so the first k columns span ker N^k.
    Raises NotSingleJordanBlock when a kernel has the wrong dimension.
    """
    d = u.dim
    n = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in u.rows_tuple()]) - sympy.eye(d)
    cols = []
    for k in range(1, d + 1):
        kern = (n ** k).nullspace()
        if len(kern) != k:
            raise NotSingleJordanBlock("kernels of (u - I)^k must grow by one")
        below = n ** (k - 1)
        cols.append(next(v for v in kern if any(below * v)))
    return Flag(Matrix([[Fraction(int(c[i].p), int(c[i].q)) for c in cols] for i in range(d)]))


def reference_fixed_flag(u: Matrix) -> Flag:
    """`flags.unipotent_fixed_flag` as it was before it read u's Jordan
    chain off 2d - 1 vector products, kept as the reference: all d + 1
    integer powers of s N (`_scaled_powers` of N column-scaled, and
    NotUnipotent when N^d != 0), j the first nonzero column of N^(d-1),
    and column m of the frame N^(d-m) e_j."""
    d = u.dim
    n = [[x - 1 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(u.rows_tuple())]
    powers, s = _scaled_powers(*_column_scaled(n), d)
    if any(map(any, powers[d])):
        raise NotUnipotent("matrix is not unipotent: (u - I)^dim != 0")
    j = next((j for j in range(d) if any(row[j] for row in powers[d - 1])), None)
    if j is None:
        raise NotSingleJordanBlock("fixed flag construction needs a single Jordan block")
    frame = [[powers[d - m][i][j] for m in range(1, d + 1)] for i in range(d)]
    return Flag(Matrix._of(_fractions(frame, [s ** (d - m) for m in range(1, d + 1)])))


def reference_scaled_powers(g, s, count) -> tuple[list[list[list[int]]], int]:
    """`linalg._scaled_powers` by plain products, kept as the reference:
    ([B^0, ..., B^count], t), B = G diag(t/s) and t = lcm(s), each power
    the previous one times B, one dot product per entry."""
    t = lcm(*s)
    b = [[x * (t // sj) for x, sj in zip(row, s)] for row in g]
    cols = list(zip(*b))
    powers = [[[int(i == j) for j in range(len(b))] for i in range(len(b))]]
    for _ in range(count):
        powers.append([[sum(map(mul, row, col)) for col in cols] for row in powers[-1]])
    return powers, t


def power_triple_positive(u: Matrix, t: int, g: Flag, fixed: Flag | None = None) -> bool:
    """Whether (F, u^t G, G) is a positive triple, F = the fixed flag of u,
    rebuilt from scratch through the public triple certificate."""
    fixed = fixed if fixed is not None else kernel_fixed_flag(u)
    try:
        verdict, _ = is_positive_triple(fixed, g.apply(u.power(t)), g)
    except (NotTransverse, ZeroSuperdiagonal):
        return False
    return verdict.is_positive


def brute_threshold(u: Matrix, g: Flag, cap: int) -> int | None:
    """First t in 1..cap with a positive triple, one per-t certificate each."""
    fixed = kernel_fixed_flag(u)
    return next((t for t in range(1, cap + 1) if power_triple_positive(u, t, g, fixed)), None)


def threshold_reference(u: Matrix, g: Flag, cap: int) -> int:
    """`power_positivity_threshold` by its documented contract.

    Checks in the same order with the same messages: unipotent (through
    `jordan_block_sizes`), one Jordan block, one dimension, G transverse
    to the kernel-built fixed flag; then `brute_threshold` up to the cap.
    """
    if jordan_block_sizes(u) != (u.dim,):
        raise NotSingleJordanBlock("threshold search needs a single Jordan block")
    if g.dim != u.dim:
        raise DimensionMismatch(f"flag dims differ: {u.dim} vs {g.dim}")
    if not transverse(kernel_fixed_flag(u), g):
        raise NotTransverse("flag must be transverse to the fixed flag")
    t = brute_threshold(u, g, cap)
    if t is None:
        raise CapExceeded(f"no positive power found for t in [1, {cap}]", cap=cap)
    return t


def whole_grid_powers(u: Matrix, g: Flag, cap: int):
    """Yield (t, grid) for t = 1..cap: the whole integer grid s^(d-1) V^t of
    `power_positivity_threshold`, built as it was before the search learned
    to reject a power row by row.  The set-up, its checks and messages are
    the search's own."""
    if cap < 1:
        raise BadParameters(f"cap must be at least 1, got {cap}")
    try:
        fixed = unipotent_fixed_flag(u)
    except NotSingleJordanBlock:
        raise NotSingleJordanBlock("threshold search needs a single Jordan block") from None
    d = u.dim
    if g.dim != d:
        raise DimensionMismatch(f"flag dims differ: {d} vs {g.dim}")
    c, delta = next(
        _coordinates(fixed._rows, (g._rows,), "flag must be transverse to the fixed flag")
    )
    m, ms = _quotient(c, c[1:] + [[0] * d], delta)
    if any(any(row[:i + 1]) for i, row in enumerate(m)) or any(
        m[i][i + 1] != ms[i + 1] for i in range(d - 1)
    ):
        raise InvariantViolated("c^-1 S c must be strictly upper with unit superdiagonal")
    powers, s = _scaled_powers(m, ms, d - 1)
    terms: list[list[list[int]]] = [[[] for _ in range(d)] for _ in range(d)]
    for k, power in enumerate(powers):
        scale = s ** (d - 1 - k)
        for i in range(d - k):
            for j in range(i + k, d):
                terms[i][j].append(scale * power[i][j])
    binom = [1] + [0] * (d - 1)
    for t in range(1, cap + 1):
        for k in range(d - 1, 0, -1):
            binom[k] += binom[k - 1]
        yield t, [[sum(map(mul, binom, entry)) for entry in row] for row in terms]


def whole_grid_threshold(u: Matrix, g: Flag, cap: int) -> int:
    """The threshold search that scans every power's whole grid by
    consecutive minors: the differential reference of the row-by-row
    rejection in `power_positivity_threshold`."""
    for t, grid in whole_grid_powers(u, g, cap):
        if all(value > 0 for *_, value in _contiguous_minors(grid)):
            return t
    raise CapExceeded(f"no positive power found for t in [1, {cap}]", cap=cap)


def rejection_path(grid: list[list[int]]) -> str | None:
    """How a power's grid fails: "first row" or "later row" for its first
    non-positive entry on or above the diagonal, "minor" when every entry
    is positive and a consecutive minor of size >= 2 is not; None if it
    passes."""
    first = next((key for *key, value in _contiguous_minors(grid) if value <= 0), None)
    if first is None:
        return None
    k, a, _ = first
    return "minor" if k > 1 else "first row" if a == 1 else "later row"


# -- the Fraction coordinate route, kept as a differential reference ----------


def fraction_reverse_echelon(c: Matrix, failure: str):
    """Write c = (u . reversal) t with u upper unipotent and t upper triangular,
    in Fractions: (reduced columns, pivot rows d, d-1, ..., and t).

    The columns of c, coordinates reversed, are the rows of A = t^T U with
    U unit upper triangular; one fraction-free elimination of A (rows
    scaled to integers) gives U from its final rows and t from its
    multipliers.  Raises NotTransverse(failure) at a zero pivot.
    """
    d = c.dim
    scaled = _cleared(col[::-1] for col in zip(*c.rows_tuple()))
    a = [r for r, _ in scaled]
    if len(_bareiss(a, swaps=False)[0]) < d:
        raise NotTransverse(failure)
    leading = [1] + [a[k][k] for k in range(d - 1)]
    zero, one = Fraction(0), Fraction(1)
    placed = [
        [Fraction(row[r], row[m]) if r > m else one if r == m else zero
         for r in range(d - 1, -1, -1)]
        for m, row in enumerate(a)
    ]
    t = [
        [Fraction(a[m][i], leading[i] * scaled[m][1]) if i <= m else zero for m in range(d)]
        for i in range(d)
    ]
    return placed, t


def lu_identity_holds(a: list[list[int]], e: list[list[int]]) -> bool:
    """The check `flags._coordinates` first made of a pair block's
    elimination, kept as the reference: whether L diag(q/(p_0 p_1), ...,
    q/(p_(d-1) p_d)) U' = q A, for q = lcm(p_k p_(k+1)), L the lower part
    of E with its diagonal, U' its upper part and p_k its diagonal
    (p_0 = 1).  E must have no zero on its diagonal."""
    d = len(a)
    p = [1] + [row[m] for m, row in enumerate(e)]
    dens = [p[m] * p[m + 1] for m in range(d)]
    q = lcm(*dens)
    weights = [q // den for den in dens]
    l_rows = [list(map(mul, row[:i + 1], weights)) for i, row in enumerate(e)]
    u_cols = [[row[j] for row in e[:j + 1]] for j in range(d)]
    return all(
        sum(map(mul, l_row, u_col)) == q * v
        for l_row, a_row in zip(l_rows, a)
        for u_col, v in zip(u_cols, a_row)
    )


def fraction_coordinates(f: Flag, h: Flag, failure: str) -> Matrix:
    """The coordinates of h over f by the Fraction route: F^-1 H from
    `reference_scaled_solve` divided out into Fractions,
    `fraction_reverse_echelon`, and a Fraction product re-checking the form."""
    x, den = reference_scaled_solve(f.frame.rows_tuple(), h.frame.rows_tuple())
    c = Matrix([[Fraction(v, den) for v in row] for row in x])
    placed, t = fraction_reverse_echelon(c, failure)
    u = Matrix([[col[i] for col in placed[::-1]] for i in range(c.dim)])
    if not is_upper_unipotent(u):
        raise InvariantViolated(
            "each F^k intersect H^{d-k+1} must be a one-dimensional line with unit k-th coordinate"
        )
    if Matrix([[col[i] for col in placed] for i in range(c.dim)]) @ Matrix(t) != c:
        raise InvariantViolated("adapted coordinates must carry the descending flag to H")
    return u


def reference_scaled_solve(a, b) -> tuple[list[list[int]], int]:
    """`linalg._scaled_solve` as it was before it took cleared blocks, kept
    as the reference: (X, D) with X / D = A^-1 B for Fraction grids A and
    B, each row of [A | B] cleared by the lcm of its denominators as one
    joined row, then eliminated and back-substituted."""
    n = len(a)
    m = [r for r, _ in _cleared(tuple(ra) + tuple(rb) for ra, rb in zip(a, b))]
    if _bareiss(m)[0][:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    den = m[-1][n - 1]
    return _back_substitute(m, [row[n:] for row in m], den), den


def back_substitute(u, b) -> tuple[tuple[Fraction, ...], ...]:
    """U^-1 B for an upper unipotent grid U, by Fraction back substitution."""
    n = len(u)
    x: list[tuple[Fraction, ...]] = [()] * n
    for i in range(n - 1, -1, -1):
        terms = [(c, x[k]) for k, c in enumerate(u[i][i + 1:], i + 1) if c]
        x[i] = tuple(
            bij - sum(c * xk[j] for c, xk in terms if xk[j]) for j, bij in enumerate(b[i])
        )
    return tuple(x)


def reference_quotient(uy, ux, dx) -> tuple[list[list[int]], list[int]]:
    """`linalg._quotient` as first written, kept as the reference: (G, s)
    with G diag(1/s) = diag(δ_y) U_y^-1 U_x diag(1/δ_x), δ_y the diagonal
    of U_y.  Each column is a fraction-free back substitution from its
    lowest nonzero row `top`: with Q_i = δ_y[i] ... δ_y[top], the entries
    W_i = Q_i (U_y^-1 U_x)[i][j] are integers, W_top = U_x[top][j] and
    W_i = Q_{i+1} U_x[i][j] - sum over i < k <= top of
    U_y[i][k] W_k δ_y[i+1] ... δ_y[k-1], summed Horner-fashion.  Entry
    (i, j) is W_i / (Q_{i+1} δ_x[j]) = W_i P_i / (Q_0 δ_x[j]), P_i =
    δ_y[0] ... δ_y[i], so the column is put over one denominator and
    divided by the gcd of its numerators and that denominator, signed so
    that s[j] > 0."""
    n = len(uy)
    dy = [row[i] for i, row in enumerate(uy)]
    g = [[0] * n for _ in range(n)]
    s = []
    for j, den in enumerate(dx):
        col = [row[j] for row in ux]
        top = max((i for i, v in enumerate(col) if v), default=-1)
        w = [0] * n
        q = 1  # Q_{i+1}
        for i in range(top, -1, -1):
            row = uy[i]
            acc = 0
            for k in range(top, i, -1):
                acc = acc * dy[k] + row[k] * w[k]
            w[i] = q * col[i] - acc
            q *= dy[i]
        # q is now Q_0; scale W_i by P_i = δ_y[0] ... δ_y[i]
        p = 1
        for i in range(top + 1):
            p *= dy[i]
            w[i] *= p
        den *= q
        div = gcd(*w, den)
        if den < 0:
            div = -div
        for i in range(top + 1):
            g[i][j] = w[i] // div
        s.append(den // div)
    return g, s


def per_pair_coordinates(f: Flag, h: Flag, failure: str):
    """(ū, δ), the integer coordinates of h over f by the per-pair route: the
    one-flag call of `_coordinates`, one `_scaled_solve` of F against H
    alone.  Raises NotTransverse(failure) at a zero pivot."""
    return next(_coordinates(f._rows, (h._rows,), failure))


def reference_laplace_step(
    row: list[int], sub: dict[int, int], last: int, terms: dict[int, list[tuple[int, int]]]
) -> dict[int, int]:
    """The oracle's last-row Laplace step as first written, one row set's
    table of minors, kept as the reference for `positivity._index_plan`:
    every set of `sub` looks up its part at or above `last` in `terms` and
    is extended by each column from max(its highest + 1, `last`) to d - 1,
    each minor expanded by the full alternating sum along its last row."""
    d = len(row)
    table = {}
    for base, minor in sub.items():
        high = base >> last << last
        top_down = terms.get(high)
        if top_down is None:
            top_down = terms[high] = [
                (j, 1 << j) for j in range(high.bit_length() - 1, last - 1, -1) if high >> j & 1
            ]
        for c in range(max(base.bit_length(), last), d):
            bit = 1 << c
            acc = row[c] * minor
            negative = True
            for j, jbit in top_down:
                if negative:
                    acc -= row[j] * sub[base ^ jbit | bit]
                else:
                    acc += row[j] * sub[base ^ jbit | bit]
                negative = not negative
            table[base | bit] = acc
    return table


class CliResult:
    """One in-process CLI run: its exit code, the captured streams, and the
    exception that ended it (None after exit code 0)."""

    def __init__(self, exit_code: int, stdout: str, stderr: str, exception: BaseException | None):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.exception = exception

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


class CliRunner:
    """Runs a CLI entry point in process, with stdout and stderr captured and
    the environment extended by `env` for the run.  An exit by SystemExit
    gives its code; any other exception gives exit code 1 and is kept."""

    def invoke(self, main, args, env=None) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        exception = None
        with patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return CliResult(code, out.getvalue(), err.getvalue(), exception)
