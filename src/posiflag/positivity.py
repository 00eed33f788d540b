"""Total-positivity decisions for unipotent upper-triangular matrices.

A unipotent upper-triangular matrix is fully totally positive when every
nontrivial minor (row tuple componentwise at most the column tuple) is
strictly positive; it sits on the nonnegative boundary when all such
minors are >= 0 with at least one zero, and outside otherwise.

Two independent decision routes are provided and kept deliberately
distinct:

* `tp_oracle` scans every nontrivial minor of every size, evaluating the
  values by shared-subminor cofactor expansion along the last row: one
  table per row set, in column order, each built from the table of its
  rows less the last by one Laplace step.  Which entries each step reads
  depends on d alone, so it is written down once per dimension as an
  index plan (`_index_plan`: each level built on first use, each row
  set's part by `_laplace_step`), and a scan is a few list passes per
  level over it.
  Building the plan costs the first call at each d about five later
  scans, and it stays cached for the two dimensions used last: about
  0.2 MB at d = 9, 0.55 MB at d = 10, 1.8 MB at d = 11 and 10.5 MB at
  d = 12;
* `tp_staged` scans, level by level, only the minors whose row and column
  tuples are both consecutive runs, computing each level from the two
  below it by Desnanot-Jacobi condensation (Dodgson, 1866).  If every
  level passes, the matrix is fully totally positive: whenever all
  smaller nontrivial minors are positive, a non-positive k x k nontrivial
  minor forces a non-positive k x k minor with consecutive row and column
  runs (the consecutive-minor criterion, cf. Gasca-Pena 1992), so the
  consecutive scan loses nothing.  On a failure at level k every smaller
  nontrivial minor is positive, so the first witness has size k: it is
  sought among the k x k nontrivial minors alone, with a determinant only
  for those whose sign the scan has not settled, and a zero witness is
  settled by one column Neville elimination (Gasca-Pena's test for
  total nonnegativity), O(d^3) integer steps that evaluate no minor.
  Status and witness match the oracle exactly, the two routes share no
  minor evaluation, and no table of all minors is built.

Both routes scan an integer grid G with the matrix equal to
diag(1/r) G diag(1/c) for positive row and column scales r and c (the
oracle's c is all ones), so signs are unaffected and only a witness
value is divided by its scales.
`tp_staged` and `tp_oracle` clear each row's denominators (c = 1); the
tuple engine hands its chain factors, already column-scaled integers,
straight to the staged scan (`_staged_scan`).  Both routes report the
same three-state verdict, and the witness for a non-positive verdict is
always the first non-positive nontrivial minor in lexicographic (size,
rows, cols) order.

`bench` runs both routes on identical random fully positive inputs and
reports their evaluation counts and times (the CLI's `bench`).
"""

from __future__ import annotations

import random
import sys
import time
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, islice
from math import gcd, prod
from operator import ge, itemgetter

from .errors import (
    BadParameters, InvariantViolated, NotUnipotentUpperTriangular, PreconditionViolated,
)
from .linalg import Matrix, MinorIndex, _Value, _cleared, _det, _is_upper, _ratio

__all__ = [
    "BoundaryReport", "DetCounter", "PositivityVerdict", "Status", "Witness",
    "boundary_corner_check", "is_upper_unipotent", "random_tp", "staged_minor_count",
    "tp_oracle", "tp_staged",
]


class Status(Enum):
    POSITIVE = "Positive"
    NONNEGATIVE_BOUNDARY = "NonnegativeBoundary"
    OUTSIDE = "Outside"


class Witness(_Value):
    __slots__ = ("index", "value")


class PositivityVerdict(_Value):
    """Three-state verdict with an optional offending minor.

    `witness` is present exactly when status is not Positive and records
    the first non-positive nontrivial minor in lexicographic (size, rows,
    cols) order; re-evaluating that minor on the input reproduces `value`.
    `method` names the route that produced the verdict.
    """

    __slots__ = ("status", "witness", "method")

    @property
    def is_positive(self) -> bool:
        return self.status is Status.POSITIVE


class BoundaryReport(_Value):
    """Where a boundary matrix first degenerates.

    `level` is the smallest minor size with a vanishing nontrivial minor,
    `failing_index` a vanishing minor at that level with consecutive row
    and column runs, and `corner_value` the value of the top-right corner
    minor with rows (1..k) and columns (d-k+1..d) — zero whenever the
    levels below are fully positive.
    """

    __slots__ = ("level", "failing_index", "corner_index", "corner_value")


class DetCounter:
    """Counts minor evaluations for benchmarking: each table entry of the
    oracle, each consecutive minor of the staged scan and each determinant
    its witness search takes.  A minor whose sign is known is not counted."""

    __slots__ = ("evaluations",)

    def __init__(self):
        self.evaluations = 0


def is_upper_unipotent(m: Matrix) -> bool:
    """Whether m is upper triangular with unit diagonal."""
    rows = m.rows_tuple()
    return _is_upper(rows) and all(row[i] == 1 for i, row in enumerate(rows))


def _require_upper_unipotent(m: Matrix):
    if not is_upper_unipotent(m):
        raise NotUnipotentUpperTriangular(
            "input must be upper triangular with unit diagonal"
        )


def _contiguous_minors(grid: list[list[int]]):
    """Yield (k, a, b, value) for the nontrivial consecutive minors of a grid.

    `grid` is an upper triangular integer grid; the minor with rows
    a..a+k-1 and columns b..b+k-1 (1-based, b >= a) comes in order of k,
    then a, then b.  Level 1 is the grid itself, and each later level
    follows from the two below it by the Desnanot-Jacobi identity
        M_k(a,b) = (M_{k-1}(a,b) M_{k-1}(a+1,b+1)
                    - M_{k-1}(a,b+1) M_{k-1}(a+1,b)) / M_{k-2}(a+1,b+1),
    with M_0 = 1.  For b = a the minor M_{k-1}(a+1,a) has a strictly upper
    triangular block and vanishes, so its product is dropped.  The division
    is exact.  Its divisor is a nontrivial minor two levels down, positive
    because callers stop within one level of the first non-positive minor;
    a non-positive divisor or a remainder raises InvariantViolated.  A scan
    is O(d^3) integer operations.
    """
    d = len(grid)
    prev = [row[a:] for a, row in enumerate(grid)]
    for a, row in enumerate(prev, 1):
        for b, value in enumerate(row, a):
            yield 1, a, b, value
    below = [[1] * (d + 1 - a) for a in range(d + 1)]
    for k in range(2, d + 1):
        level = []
        for a in range(d - k + 1):
            # 0-based: prev[a][j] is M_{k-1}(a+1, a+1+j), below[a][j] is M_{k-2}(a+1, a+1+j)
            p, q, div_row = prev[a], prev[a + 1], below[a + 1]
            row = []
            for j in range(d - k + 1 - a):
                num = p[j] * q[j] - p[j + 1] * q[j - 1] if j else p[0] * q[0]
                div = div_row[j]
                if div <= 0:
                    raise InvariantViolated("a condensation divisor must be a positive minor")
                value, rem = divmod(num, div)
                if rem:
                    raise InvariantViolated("a condensation step must divide exactly")
                row.append(value)
                yield k, a + 1, a + 1 + j, value
            level.append(row)
        below, prev = prev, level


def _packed(values: list[int], bound: int):
    """`values`, ints in range(bound), in the narrowest flat container:
    bytes, an unsigned array, or past 64 bits a tuple."""
    if bound <= 1 << 8:
        return bytes(values)
    from array import array  # a shared library: only oracle calls load it, not every start-up
    for code in "HIQ":
        if bound <= 1 << 8 * array(code).itemsize:
            return array(code, values)
    return tuple(values)


def _laplace_step(
    sub: dict[int, int], last: int, d: int, terms: dict[int, list[tuple[int, int]]],
    level: tuple,
):
    """Append to `level` the plan of one row set R + (`last`,): how the
    nontrivial minors of a d x d upper triangular grid G on those rows
    follow from the minors on R.

    Rows and columns are 0-based and a column set is a bitmask.  `sub` maps
    R's nontrivial column sets, in lexicographic order of their tuples, to
    their positions in the previous level's table; R's rows lie below
    `last`.  Each set is extended by a column c above its highest and at
    least `last`, which keeps that order, and the minor is expanded along
    its last row, whose columns below `last` are zeros of G.  A set holding
    column d-1 has no extension; one wholly below `last` gives G[last][c]
    times its minor; any other gives that product, then its columns j >=
    `last` from the highest down give alternately -G[last][j] and
    +G[last][j] times R's minor on the columns less j.  `terms` memoizes
    those j, signed, for one plan build, keyed by a set's part at or above
    `last`.  `level` holds lists of `_index_plan`'s fields but `starts`.
    """
    keys, cols, parents, entries, more_cols, more_parents = level
    row = 2 * d * last  # G[last][c] sits at row + c of the signed grid, -G[last][c] at row + d + c
    bits = [1 << c for c in range(d)]
    tail_bits, tail = bits[last:], range(row + last, row + d)
    for base, position in sub.items():
        start = base.bit_length()
        if start == d:
            continue
        if start <= last:
            keys += map(base.__or__, tail_bits)
            cols += tail
            parents += [position] * len(tail)
            continue
        high = base >> last << last
        top_down = terms.get(high)
        if top_down is None:
            top_down = terms[high] = [
                (j + d if n % 2 == 0 else j, bits[j])
                for n, j in enumerate(j for j in range(start - 1, last - 1, -1) if high >> j & 1)
            ]
        for c in range(start, d):
            bit = bits[c]
            entry = len(keys)
            keys.append(base | bit)
            cols.append(row + c)
            parents.append(position)
            for j, jbit in top_down:
                entries.append(entry)
                more_cols.append(row + j)
                more_parents.append(sub[base ^ jbit | bit])


@lru_cache(maxsize=2)
def _index_plan(d: int) -> dict[int, tuple]:
    """The oracle's index plan at dimension d: the positions its cofactor
    expansion reads, which depend on d alone.

    Level k (key k) is a tuple (starts, keys, cols, parents, entries,
    more_cols, more_parents).  Level k's table is the tables of the k-row
    sets, in `combinations` order, one after another: row set i fills
    positions starts[i] to starts[i+1], in column order.  Each entry has
    its column set in `keys`, and its first product's factors in `cols`, a
    position in the signed grid (`_level_table`), and `parents`, one in
    level k-1's table.  Each further term of an expansion has its entry
    and factors at the same place of `entries`, `more_cols` and
    `more_parents`.  `_laplace_step` writes one row set's part, and
    `_plan_level` builds a level on first use; every field is flat
    (`_packed`).  The plans of the two dimensions used last stay cached.
    """
    return {}


def _plan_level(plan: dict[int, tuple], d: int, k: int) -> tuple:
    """Level k of a dimension-d plan, building the levels up to k it lacks.

    Row sets that share a parent come together in `combinations` order, so
    one parent's column sets are indexed at a time.  A level is stored by
    `setdefault`, so one that two threads build at once is kept once.
    """
    terms: dict[int, list[tuple[int, int]]] = {}
    for size in range(len(plan), k):
        starts, keys = plan[size][:2] if size else ((0, 1), (0,))
        parent = {rows: i for i, rows in enumerate(combinations(range(d), size))}
        level: tuple[list[int], ...] = ([], [], [], [], [], [])
        ends = [0]
        for owner, group in groupby(combinations(range(d), size + 1), itemgetter(slice(-1))):
            a, b = starts[parent[owner]], starts[parent[owner] + 1]
            sub = dict(zip(keys[a:b], range(a, b)))
            for rows in group:
                _laplace_step(sub, rows[-1], d, terms, level)
                ends.append(len(level[0]))
        n, below, grid = ends[-1], starts[-1], 2 * d * d
        bounds = (n + 1, 1 << d, grid, below, n, grid, below)
        plan.setdefault(size + 1, tuple(map(_packed, (ends, *level), bounds)))
    return plan[k]


def _level_table(level: tuple, signed: list[int], prev: list[int]) -> list[int]:
    """A plan level's table from the previous level's, for the signed grid:
    G's rows, each followed by its negation, in one list."""
    _, _, cols, parents, entries, more_cols, more_parents = level
    table = [signed[c] * prev[p] for c, p in zip(cols, parents)]
    for entry, c, p in zip(entries, more_cols, more_parents):
        table[entry] += signed[c] * prev[p]
    return table


def _full_scan(
    grid: list[list[int]], row_scales: list[int], counter: DetCounter
) -> tuple[Status, Witness | None]:
    """Scan all nontrivial minors by shared-subminor cofactor expansion.

    The matrix is diag(1/r) G for the integer grid G and the positive row
    scales r, so each of its minors has the sign of G's.  Each row set R
    gets a table of its nontrivial minors in column order, each expanded
    along its last row into the table of R less that row, as the
    dimension's index plan (`_index_plan`) directs: O(k) multiplications a
    minor, about 1.5 on average.  The table holds only nontrivial minors
    (rows componentwise at most cols): removing a column from a nontrivial
    minor's columns and its last row from its rows leaves a nontrivial
    minor, so the expansion reads nothing else.  At d = 10 that is 58,785
    entries of the 184,755 minors.  Tables come in (size, rows) order, each
    in column order, one level of sizes at a time.  The first non-positive
    entry is the witness, its value divided by its rows' scales.  A
    negative entry forces Outside and stops the scan after its level; the
    count runs up to that entry.
    """
    d = len(grid)
    plan = _index_plan(d)
    signed = [x for row in grid for x in (*row, *[-x for x in row])]
    prev = [1]
    witness = None
    evaluations = 0
    for k in range(1, d + 1):
        level = _plan_level(plan, d, k)
        table = _level_table(level, signed, prev)
        low = min(table)
        if low < 0 or low == 0 and witness is None:
            starts, keys = level[:2]
            for n, value in enumerate(table):
                if value <= 0 and witness is None:
                    i = bisect_right(starts, n) - 1  # n lies in row set i's table
                    rows = next(islice(combinations(range(d), k), i, None))
                    cols = [c + 1 for c in range(d) if keys[n] >> c & 1]
                    index = MinorIndex([r + 1 for r in rows], cols)
                    witness = Witness(index, _ratio(value, prod(row_scales[r] for r in rows)))
                if value < 0:
                    counter.evaluations += evaluations + n + 1
                    return Status.OUTSIDE, witness
        evaluations += len(table)
        prev = table
    counter.evaluations += evaluations
    if witness is not None:
        return Status.NONNEGATIVE_BOUNDARY, witness
    return Status.POSITIVE, None


def _level_witness(
    grid: list[list[int]], stop: tuple[int, int, int, int], counter: DetCounter
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(rows, cols, value) of G's first non-positive nontrivial k x k minor
    in lexicographic (rows, cols) order, given `stop` = (k, a, b, value):
    the condensation's first non-positive minor, rows a..a+k-1 and columns
    b..b+k-1, with every nontrivial minor below size k positive.

    Only a minor whose sign is not yet known takes a `linalg._det`.  One
    with some r_i = c_i is skipped: G is upper triangular, so the minor is
    block upper triangular, split before position i and again after it,
    and is a product of smaller nontrivial minors and the positive
    diagonal entry G[r_i][r_i].  A consecutive minor before (a, b) is
    skipped too, as the condensation found it positive, and reaching
    (a, b) returns its value.  So the candidates are the minors with
    r_i < c_i for every i, and the search ends at (a, b) at the latest.
    """
    k, a, b, value = stop
    d = len(grid)
    for rows in combinations(range(1, d + 1), k):
        picked = [grid[i - 1] for i in rows]
        run = rows[-1] - rows[0] == k - 1
        for cols in combinations(range(rows[0] + 1, d + 1), k):
            if any(map(ge, rows, cols)):
                continue
            if run and cols[-1] - cols[0] == k - 1:
                if (rows[0], cols[0]) == (a, b):
                    return rows, cols, value
                continue
            counter.evaluations += 1
            minor = _det([[row[j - 1] for j in cols] for row in picked])
            if minor <= 0:
                return rows, cols, minor
    raise InvariantViolated("a failing level must hold a non-positive nontrivial minor")


def _neville_nonnegative(grid: list[list[int]]) -> bool:
    """Whether diag(1/r) G diag(1/c) is totally nonnegative, G an upper
    triangular integer grid with a positive diagonal, r and c positive.

    Column Neville elimination: in each row r from the top, for c = d-1
    down to r+1 (0-based), a nonzero x = G[r][c] is cleared by
    col_c <- |y| col_c - |x| col_(c-1), y = G[r][c-1], whose multiplier
    x / y must be positive; the column is then divided by its gcd.  Those
    positive scalings keep total nonnegativity.  Rows above r are zero
    right of their diagonal, so a step touches rows r..c: O(d^3) in all.
    """
    cols = [list(col) for col in zip(*grid)]
    for r in range(len(cols)):
        for c in range(len(cols) - 1, r, -1):
            right, left = cols[c], cols[c - 1]
            x, y = right[r], left[r]
            if x:
                if x * y <= 0:  # a zero left neighbour, or opposite signs
                    return False
                new = [abs(y) * p - abs(x) * q for p, q in zip(right[r:c + 1], left[r:c + 1])]
                h = gcd(*new)
                right[r:c + 1] = [v // h for v in new]
    return True


def _staged_scan(
    grid: list[list[int]], row_scales: list[int], col_scales: list[int], counter: DetCounter
) -> PositivityVerdict:
    """Staged verdict of u = diag(1/r) G diag(1/c), for an integer grid G
    with u unipotent upper triangular and positive row and column scales r
    and c.  Every minor of u has the sign of G's, and a witness value is
    G's divided by its rows' and its columns' scales.

    Only the nontrivial consecutive minors of G are tested
    (`_contiguous_minors`, O(d^3) in all), each counted as one evaluation.
    If all pass, u is fully totally positive.  Otherwise let k be the
    level of the first non-positive one.  By the consecutive-minor
    criterion every nontrivial minor of size below k is positive, so the
    oracle's first witness has size exactly k and comes no later than
    that consecutive minor: `_level_witness` finds it among the size-k
    nontrivial minors.  A negative witness means Outside.  A zero one
    leaves Outside or NonnegativeBoundary, the latter exactly when u is
    totally nonnegative: when the column Neville elimination of G
    (`_neville_nonnegative`) finds every multiplier >= 0.  That suffices,
    as a completed run writes u as a positive diagonal times factors
    I + t E_(i,i+1), every t >= 0; it is necessary by Gasca and Pena
    ("Total positivity and Neville elimination", Linear Algebra Appl. 165,
    1992; Fallat and Johnson, Totally Nonnegative Matrices, 2011, ch. 2).
    A non-positive verdict thus costs the consecutive scan up to its first
    non-positive minor, one elimination per size-k nontrivial minor before
    the witness whose sign is still open and, for a zero witness, O(d^3)
    uncounted integer steps, instead of the oracle's table of every
    nontrivial minor.  Status and witness agree with the oracle.
    """
    for stop in _contiguous_minors(grid):
        counter.evaluations += 1
        if stop[3] <= 0:
            rows, cols, minor = _level_witness(grid, stop, counter)
            scale = prod(row_scales[i - 1] for i in rows) * prod(col_scales[j - 1] for j in cols)
            witness = Witness(MinorIndex(rows, cols), _ratio(minor, scale))
            if minor < 0 or not _neville_nonnegative(grid):
                return PositivityVerdict(Status.OUTSIDE, witness, "staged")
            return PositivityVerdict(Status.NONNEGATIVE_BOUNDARY, witness, "staged")
    return PositivityVerdict(Status.POSITIVE, None, "staged")


def _row_scaled(u: Matrix) -> tuple[list[list[int]], list[int], list[int]]:
    """(G, r, c) with u = diag(1/r) G diag(1/c): rows cleared, c all ones
    (clearing columns instead makes the largest consecutive minor of a
    random fully positive input, d = 10..16, 12-20% longer in bits)."""
    cleared = _cleared(u.rows_tuple())
    return [r for r, _ in cleared], [t for _, t in cleared], [1] * u.dim


def tp_oracle(u: Matrix, *, counter: DetCounter | None = None) -> PositivityVerdict:
    """Brute-force verdict: every nontrivial minor of every size."""
    _require_upper_unipotent(u)
    grid, row_scales, _ = _row_scaled(u)
    status, witness = _full_scan(grid, row_scales, counter if counter is not None else DetCounter())
    return PositivityVerdict(status, witness, "oracle")


def tp_staged(u: Matrix, *, counter: DetCounter | None = None) -> PositivityVerdict:
    """Consecutive-minor staged verdict: `_staged_scan` of u's rows cleared.

    Status and witness agree with `tp_oracle` on every input.
    """
    _require_upper_unipotent(u)
    return _staged_scan(*_row_scaled(u), counter if counter is not None else DetCounter())


def staged_minor_count(d: int) -> int:
    """Number of minors the staged scan evaluates on a fully positive input."""
    return sum((d - k + 1) * (d - k + 2) // 2 for k in range(1, d + 1))


def boundary_corner_check(u: Matrix) -> BoundaryReport:
    """Locate the first degenerate level of a boundary matrix.

    Requires tp_staged(u) to be NonnegativeBoundary.  At the smallest level
    k with a vanishing nontrivial minor, some vanishing minor has
    consecutive row and column runs (the same reduction that justifies the
    staged scan), and the top-right corner minor with rows (1..k), columns
    (d-k+1..d) vanishes as well; the report records both.
    """
    verdict = tp_staged(u)
    if verdict.status is not Status.NONNEGATIVE_BOUNDARY:
        raise PreconditionViolated(
            f"boundary_corner_check requires a NonnegativeBoundary input, got {verdict.status.value}"
        )
    if verdict.witness is None:
        raise InvariantViolated("a boundary verdict must carry a witness")
    k = verdict.witness.index.size
    failing = None
    for size, a, b, value in _contiguous_minors(_row_scaled(u)[0]):
        if size > k:
            break
        if size == k and value == 0:
            failing = MinorIndex(tuple(range(a, a + k)), tuple(range(b, b + k)))
            break
    if failing is None:
        raise InvariantViolated("a boundary level must contain a consecutive vanishing minor")
    d = u.dim
    corner = MinorIndex(tuple(range(1, k + 1)), tuple(range(d - k + 1, d + 1)))
    return BoundaryReport(k, failing, corner, u.minor(corner))


def random_tp(d: int, seed: int) -> Matrix:
    """Deterministic random element of the fully positive set.

    Product of elementary factors I + t E_{i,i+1} with t a positive
    rational, following the full staircase pattern (1)(2,1)(3,2,1)...
    (d-1,...,1); such products exhaust the fully positive unipotent
    matrices as t ranges over positive values.
    """
    rng = random.Random(seed)
    rows = [list(row) for row in Matrix.identity(d).rows_tuple()]
    for stage in range(1, d):
        for i in range(stage, 0, -1):
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            # times I + t E_{i,i+1}: t * column i (zero below row i) joins column i+1
            for row in rows[:i]:
                row[i] += t * row[i - 1]
    return Matrix._of(tuple(map(tuple, rows)))


class BenchRow(_Value):
    __slots__ = ("d", "method", "dets", "time_ms")


class BenchReport(_Value):
    __slots__ = ("rows", "env")


def bench(d_values, samples: int, seed: int) -> BenchReport:
    """Instrumented comparison of the staged scan against the oracle.

    Runs both on identical random fully positive inputs.  Counts are
    per input and verified identical across samples; on these Positive
    inputs the staged count must equal its closed form.  The oracle's
    first sample at a d whose plan is not cached also builds it.
    """
    import platform

    if samples < 1:
        raise BadParameters(f"samples must be at least 1, got {samples}")
    rows = []
    for d in d_values:
        per_method: dict[str, tuple[int, float]] = {}
        for name, run in (("staged", tp_staged), ("oracle", tp_oracle)):
            counts = set()
            total = 0.0
            for s in range(samples):
                m = random_tp(d, seed * 1_000_003 + d * 1009 + s)
                counter = DetCounter()
                start = time.perf_counter()
                verdict = run(m, counter=counter)
                total += (time.perf_counter() - start) * 1000.0
                if not verdict.is_positive:
                    raise InvariantViolated("generator must produce fully positive inputs")
                counts.add(counter.evaluations)
            if len(counts) != 1:
                raise InvariantViolated("per-input counts must not vary across samples")
            per_method[name] = (counts.pop(), total)
        staged_dets = per_method["staged"][0]
        if staged_dets != staged_minor_count(d):
            raise InvariantViolated("staged count must match closed form")
        for name in ("staged", "oracle"):
            dets, total = per_method[name]
            rows.append(BenchRow(d, name, dets, total))
    env = f"python={platform.python_version()} platform={sys.platform}"
    return BenchReport(tuple(rows), env)
