"""Total-positivity decisions for unipotent upper-triangular matrices.

A unipotent upper-triangular matrix is fully totally positive when every
nontrivial minor (row tuple componentwise at most the column tuple) is
strictly positive; it sits on the nonnegative boundary when all such
minors are >= 0 with at least one zero, and outside otherwise.

Two independent decision routes are provided and kept deliberately
distinct:

* `tp_oracle` scans every nontrivial minor of every size, evaluating the
  values by shared-subminor cofactor expansion;
* `tp_staged` scans, level by level, only the minors whose row and column
  tuples are both consecutive runs, evaluating each one by fraction-free
  elimination.  If every level passes, the matrix is fully totally
  positive: whenever all smaller nontrivial minors are positive, a
  non-positive k x k nontrivial minor forces a non-positive k x k minor
  with consecutive row and column runs, so the consecutive scan loses
  nothing.  On a failure the nonnegativity scan is completed so that the
  reported status and witness match the oracle exactly.

Both routes report the same three-state verdict, and the witness for a
non-positive verdict is always the first non-positive nontrivial minor in
lexicographic (size, rows, cols) order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import InvariantViolated, NotUnipotentUpperTriangular, PreconditionViolated
from .linalg import Matrix, MinorIndex, _cleared, _det_bareiss_int, _is_unipotent, _ratio


class Status(Enum):
    POSITIVE = "Positive"
    NONNEGATIVE_BOUNDARY = "NonnegativeBoundary"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class Witness:
    index: MinorIndex
    value: Fraction


@dataclass(frozen=True)
class PositivityVerdict:
    """Three-state verdict with an optional offending minor.

    `witness` is present exactly when status is not Positive and records
    the first non-positive nontrivial minor in lexicographic (size, rows,
    cols) order; re-evaluating that minor on the input reproduces `value`.
    `method` names the route that produced the verdict.
    """

    status: Status
    witness: Witness | None
    method: str

    @property
    def is_positive(self) -> bool:
        return self.status is Status.POSITIVE


@dataclass(frozen=True)
class BoundaryReport:
    """Where a boundary matrix first degenerates.

    `level` is the smallest minor size with a vanishing nontrivial minor,
    `failing_index` a vanishing minor at that level with consecutive row
    and column runs, and `corner_value` the value of the top-right corner
    minor with rows (1..k) and columns (d-k+1..d) — zero whenever the
    levels below are fully positive.
    """

    level: int
    failing_index: MinorIndex
    corner_index: MinorIndex
    corner_value: Fraction


class DetCounter:
    """Counts determinant evaluations for benchmarking."""

    __slots__ = ("evaluations",)

    def __init__(self):
        self.evaluations = 0


def is_upper_unipotent(m: Matrix) -> bool:
    return _is_unipotent(m.rows_tuple())


def _require_upper_unipotent(m: Matrix):
    if not is_upper_unipotent(m):
        raise NotUnipotentUpperTriangular(
            "input must be upper triangular with unit diagonal"
        )


class MinorEvaluator:
    """Evaluates individual minors of one fixed matrix.

    Denominators are cleared once up front, row by row; each minor is then
    a single fraction-free integer elimination, divided by the product of
    its rows' scales.  Every call increments the attached counter.
    """

    def __init__(self, m: Matrix, counter: DetCounter | None = None):
        self.matrix = m
        self.grid, self.scales = zip(*_cleared(m.rows_tuple()))
        self.counter = counter if counter is not None else DetCounter()

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Fraction:
        self.counter.evaluations += 1
        sub = [[self.grid[i - 1][j - 1] for j in cols] for i in rows]
        return _ratio(_det_bareiss_int(sub), prod(self.scales[i - 1] for i in rows))


def _full_scan(
    m: Matrix, counter: DetCounter
) -> tuple[Status, Witness | None]:
    """Scan all nontrivial minors by shared-subminor cofactor expansion.

    Minors of size k are expanded along their last row into size k-1
    values, all of which are kept from the previous level, so each minor
    costs O(k) multiplications.  The scan works on the integer grid with
    each row's denominators cleared; the scales are positive, so signs are
    unaffected, and the witness value is divided by its rows' scales.
    Stops early once the status is forced to Outside.
    """
    d = m.dim
    grid, scales = zip(*_cleared(m.rows_tuple()))
    indices = range(1, d + 1)
    prev: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {((), ()): 1}
    first_offender: tuple[MinorIndex, Fraction] | None = None
    saw_zero = False
    for k in range(1, d + 1):
        cur: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for rows in combinations(indices, k):
            head = rows[:-1]
            last = rows[-1]
            row_vals = grid[last - 1]
            for cols in combinations(indices, k):
                acc = 0
                sign = 1 if k % 2 == 1 else -1
                for p in range(k):
                    e = row_vals[cols[p] - 1]
                    if e:
                        acc += sign * e * prev[(head, cols[:p] + cols[p + 1:])]
                    sign = -sign
                cur[(rows, cols)] = acc
                if all(i <= j for i, j in zip(rows, cols)):
                    counter.evaluations += 1
                    if acc <= 0:
                        if first_offender is None:
                            first_offender = (
                                MinorIndex(rows, cols),
                                _ratio(acc, prod(scales[i - 1] for i in rows)),
                            )
                        if acc < 0:
                            idx, val = first_offender
                            return Status.OUTSIDE, Witness(idx, val)
                        saw_zero = True
        prev = cur
    if saw_zero:
        idx, val = first_offender  # type: ignore[misc]
        return Status.NONNEGATIVE_BOUNDARY, Witness(idx, val)
    return Status.POSITIVE, None


def tp_oracle(u: Matrix, *, counter: DetCounter | None = None) -> PositivityVerdict:
    """Brute-force verdict: every nontrivial minor of every size."""
    _require_upper_unipotent(u)
    status, witness = _full_scan(u, counter if counter is not None else DetCounter())
    return PositivityVerdict(status, witness, "oracle")


def tp_staged(u: Matrix, *, counter: DetCounter | None = None) -> PositivityVerdict:
    """Consecutive-minor staged verdict.

    For k = 1..d only the nontrivial k x k minors with consecutive row and
    column runs are tested; all levels passing certifies full total
    positivity.  On the first non-positive consecutive minor the full
    nonnegativity scan is completed, so status and witness agree with
    `tp_oracle` on every input.
    """
    _require_upper_unipotent(u)
    d = u.dim
    cnt = counter if counter is not None else DetCounter()
    ev = MinorEvaluator(u, cnt)
    for k in range(1, d + 1):
        span = d - k + 1
        for a in range(1, span + 1):
            rows = tuple(range(a, a + k))
            for b in range(a, span + 1):
                cols = tuple(range(b, b + k))
                if ev.minor(rows, cols) <= 0:
                    status, witness = _full_scan(u, cnt)
                    return PositivityVerdict(status, witness, "staged")
    return PositivityVerdict(Status.POSITIVE, None, "staged")


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
    _require_upper_unipotent(u)
    verdict = tp_staged(u)
    if verdict.status is not Status.NONNEGATIVE_BOUNDARY:
        raise PreconditionViolated(
            f"boundary_corner_check requires a NonnegativeBoundary input, got {verdict.status.value}"
        )
    if verdict.witness is None:
        raise InvariantViolated("a boundary verdict must carry a witness")
    k = verdict.witness.index.size
    d = u.dim
    ev = MinorEvaluator(u)
    failing = None
    span = d - k + 1
    for a in range(1, span + 1):
        rows = tuple(range(a, a + k))
        for b in range(a, span + 1):
            cols = tuple(range(b, b + k))
            if ev.minor(rows, cols) == 0:
                failing = MinorIndex(rows, cols)
                break
        if failing is not None:
            break
    if failing is None:
        raise InvariantViolated("a boundary level must contain a consecutive vanishing minor")
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
    m = Matrix.identity(d)
    for stage in range(1, d):
        for i in range(stage, 0, -1):
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            m = m @ Matrix.elementary(d, i, i + 1, t)
    return m
