"""Exact linear algebra over arbitrary-precision rationals.

Entries are `fractions.Fraction`; no floating point ever enters.  Square
matrices are immutable, entries are stored reduced, and all public indices
are 1-based: rows and columns are numbered 1..d, and a minor is addressed
by strictly increasing 1-based row and column tuples.

Determinants, inverses, solves, ranks and products share one
idea: scale each row (or column) by the lcm of its denominators
(`_cleared`), compute in plain integers, and build `Fraction`s only at the
end.  Solves take their blocks already row-cleared and join each row
by the lcm of the blocks' row scales, so a flag's frame is cleared
once, when the Flag is built (see flags).  One fraction-free (Bareiss)
forward elimination, `_bareiss`, where every interior division is
exact, does all the elimination work:
determinants read its last pivot (`_det`), ranks count its pivots, and
solves and inverses back-substitute its triangular form (`_scaled_solve`).
Its first divisor is 1 unless the caller knows a factor common to the
grid's minors: a grid built from a solve's output D A^-1 B starts from
D, which every k x k minor carries k - 1 times, so no entry carries
those factors (see flags).
One integer back substitution, `_back_substitute`, does all the back
substitution work: solves and inverses scale it by the last pivot, and
quotients of triangular integer forms (`_quotient`) by the determinant
of the triangular divisor, so both stay in integers.  A quotient is
returned in the column-scaled form G diag(1/s), each column over one
positive scale with which it has gcd 1, and `_fractions` builds the
rational grid only where a Matrix is returned.  Powers of N = u - I stay
in integers too, as powers of s N for s the lcm of N's denominators:
Jordan types take every power (`_scaled_powers`), while a fixed flag
needs only the Jordan chain v, (sN)v, ..., (sN)^(d-1)v, which
`_jordan_chain` builds from 2d - 1 vector products (`_row_times`)
instead of d + 1 matrix powers.  Tests compare them against cofactor
expansion, sympy and Fraction reference routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    BadParameters,
    DimensionMismatch,
    IndexOutOfRange,
    NotSingleJordanBlock,
    NotUnipotent,
    SingularMatrix,
)

__all__ = ["Matrix", "MinorIndex", "jordan_block_sizes"]

# an integer grid G and nonzero column scales s, standing for G diag(1/s)
ColumnScaled = tuple[list[list[int]], list[int]]
# each row v of a rational grid as (v * s, s), s the lcm of its denominators
Cleared = list[tuple[list[int], int]]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise BadParameters(f"malformed entry {x!r}") from None
    raise BadParameters(f"entries must be integers or rationals, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# grid helpers: plain tuples of tuples of Fraction, any shape, 0-based.
# Used internally for rectangular work (solves against stacked frames, ranks
# of stacked vectors); the public Matrix type below is square only.
# They eliminate in `int` on grids whose rows `_cleared` made integral.


def _bareiss(a: list[list[int]], swaps: bool = True, p0: int = 1) -> tuple[list[int], int]:
    """Fraction-free forward elimination of a rectangular integer grid, in place.

    One-step Bareiss with first divisor p0: after the step on pivot row r,
    a[i][j] for i > r and j past the pivot column is the minor of the
    (row-swapped) grid on rows 0..r, i and the pivot columns so far plus
    column j, divided by p0^(r+1).  Every division by the previous pivot
    is exact, and the whole computation stays in plain integers, whenever
    each k x k minor of the grid is divisible by p0^(k-1): always for
    p0 = 1, and for p0 = ±det A when the grid's rows or columns are
    columns of p0 A^-1 B, for integer grids A and B (Sylvester's
    identity; Bareiss, Math. Comp. 22, 1968).  Row r is final once it is
    the pivot row: its pivot is the leading minor on rows 0..r and the
    pivot columns over p0^r, and the entries below the pivot keep the
    multipliers of that step.  A row whose multiplier is zero is only
    rescaled by pivot / prev, and left as it is when the two are equal.
    A column whose entry in the next pivot row is zero takes as pivot the
    first nonzero entry below it when `swaps` is set, and is skipped
    without a pivot otherwise.  Returns (pivot columns, sign of the row
    permutation).
    """
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    prev = p0
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
            if aic:
                for j in range(c + 1, ncols):
                    row_i[j] = (row_i[j] * pivot - aic * row_r[j]) // prev
            elif pivot != prev:
                for j in range(c + 1, ncols):
                    row_i[j] = row_i[j] * pivot // prev
        pivots.append(c)
        prev = pivot
    return pivots, sign


def _det(a: list[list[int]]) -> int:
    """Determinant of a square integer grid, by `_bareiss` in place.

    The last pivot is the signed determinant only when every column has
    one: with a column skipped, a[-1][-1] is a leftover entry, not 0.
    """
    pivots, sign = _bareiss(a)
    return sign * a[-1][-1] if len(pivots) == len(a) else 0


def _cleared(vectors: Iterable[Sequence[Fraction]]) -> Cleared:
    """Each vector as (v * s, s), s the lcm of its denominators, so v * s is integral."""
    out = []
    for v in vectors:
        s = lcm(*[x.denominator for x in v])
        if s == 1:
            out.append(([x.numerator for x in v], 1))
        else:
            out.append(([x.numerator * (s // x.denominator) for x in v], s))
    return out


def _column_scaled(rows: Sequence[Sequence[Fraction]]) -> ColumnScaled:
    """(G, s) with rows = G diag(1/s): each column cleared by the lcm of its denominators."""
    cols = _cleared(zip(*rows))
    return [list(row) for row in zip(*(c for c, _ in cols))], [t for _, t in cols]


def _row_times(r: Sequence[int], b: Sequence[Sequence[int]]) -> list[int]:
    """The row vector r B, one row update per nonzero entry of r."""
    acc = [0] * len(b[0])
    for x, row in zip(r, b):
        if x:
            acc = [a + x * y for a, y in zip(acc, row)]
    return acc


def _scaled_powers(
    g: Sequence[Sequence[int]], s: Sequence[int], count: int
) -> tuple[list[list[list[int]]], int]:
    """([B^0, ..., B^count], t) for B = t N, N = G diag(1/s) a square grid
    with positive column scales s and t = lcm(s), so every power is an
    integer grid.  When each column of G has gcd 1 with its scale, t is
    the lcm of all denominators of N.  Each row of B^(k+1) is the row of
    B^k times B (`_row_times`), so zero entries of B^k, most of a strictly
    upper triangular B's powers, cost nothing."""
    t = lcm(*s)
    weights = [t // sj for sj in s]
    b = [list(map(mul, row, weights)) for row in g]
    powers = [[[int(i == j) for j in range(len(b))] for i in range(len(b))]]
    for _ in range(count):
        powers.append([_row_times(row, b) for row in powers[-1]])
    return powers, t


def _ratio(n: int, d: int) -> Fraction:
    """n/d as a Fraction; for d = 1 the one-argument form skips the gcd."""
    return Fraction(n) if d == 1 else Fraction(n, d)


def _fractions(g: Sequence[Sequence[int]], s: Sequence[int]) -> tuple[tuple[Fraction, ...], ...]:
    """The rational grid G diag(1/s), for an integer grid G and nonzero column scales s."""
    return tuple(tuple(_ratio(x, t) for x, t in zip(row, s)) for row in g)


def _grid_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square grid: rows scaled to integers, then Bareiss."""
    scaled = _cleared(rows)
    return _ratio(_det([r for r, _ in scaled]), prod(s for _, s in scaled))


def _grid_rank(rows: list[list[int]]) -> int:
    """Rank of a rectangular integer grid: its pivot count under `_bareiss`,
    which eliminates the grid in place.  A rational grid is row-cleared
    (`_cleared`) by the caller first."""
    return len(_bareiss(rows)[0])


def _back_substitute(
    u: Sequence[Sequence[int]], y: Sequence[Sequence[int]], den: int
) -> list[list[int]]:
    """X = den U^-1 Y, for U the upper triangular integer grid on the first
    len(Y) rows and columns of u, and an integer grid Y.

    Back substitution from the last row up solves U X = den Y, reading
    nothing below U's diagonal.  Each division by U[i][i] is exact
    whenever X is integral, because every row of X below i is then
    exact.
    """
    n = len(y)
    x: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = u[i]
        acc = [den * v for v in y[i]]
        for k in range(i + 1, n):
            c = row[k]
            if c:
                acc = [v - c * w for v, w in zip(acc, x[k])]
        pivot = row[i]
        x[i] = [v // pivot for v in acc]
    return x


def _scaled_solve(a: Cleared, bs: Sequence[Cleared]) -> tuple[list[list[int]], int]:
    """(X, D) with X / D = A^-1 [B_1 | ... | B_m], X an integer grid, for a
    square invertible grid A and grids B_k with as many rows, each given
    row-cleared (`_cleared`).

    Row i of [A | B_1 | ... | B_m] is joined over the lcm t of its blocks'
    row scales, each block's integers times t over its own scale.  The
    lcm of the joined row's denominators is t, so these are the integers
    `_cleared` makes of the joined row.  One `_bareiss` of the joined
    grid leaves [U | Y] with U upper triangular, and A^-1 B solves
    U Z = Y.  Raises SingularMatrix unless the pivots cover A, that is
    unless A is invertible.  D is the last pivot U[n-1][n-1], the
    determinant of the row-swapped cleared A, so X = D U^-1 Y = D A^-1 B
    is an integer grid (Cramer's rule), and `_back_substitute` computes
    it.
    """
    n = len(a)
    m = []
    for parts in zip(a, *bs):
        t = lcm(*[s for _, s in parts])
        row: list[int] = []
        for r, s in parts:
            row += r if s == t else [x * (t // s) for x in r]
        m.append(row)
    if _bareiss(m)[0][:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    den = m[-1][n - 1]
    return _back_substitute(m, [row[n:] for row in m], den), den


def _is_upper(rows) -> bool:
    """Whether a row-major grid is zero below its diagonal.

    For invertible frames A and B, A^-1 B is upper triangular exactly when
    both present the same flag.
    """
    return not any(any(row[:i]) for i, row in enumerate(rows))


def _quotient(
    uy: Sequence[Sequence[int]], ux: Sequence[Sequence[int]], dx: Sequence[int]
) -> ColumnScaled:
    """(G, s) with G diag(1/s) = c_y^-1 c_x, for c_y = U_y diag(1/δ_y) and
    c_x = U_x diag(1/δ_x).

    U_y is an upper triangular integer grid whose diagonal δ_y has no
    zero, U_x any integer grid and δ_x nonzero integers: the quotient is
    diag(δ_y) U_y^-1 U_x diag(1/δ_x).  With q = δ_y[0] ... δ_y[n-1] the
    determinant of U_y, q U_y^-1 is the adjugate, so `_back_substitute`
    gives the integer grid X = q U_y^-1 U_x, and entry (i, j) is
    δ_y[i] X[i][j] / (q δ_x[j]).  Each column is divided by the gcd of
    its numerators and that denominator, signed so that s[j] > 0.  That
    form is canonical: s[j] is the lcm of the column's reduced
    denominators.  When U_x is upper triangular with diagonal δ_x the
    quotient is upper unipotent, and s is G's diagonal.
    """
    dy = [row[i] for i, row in enumerate(uy)]
    q = prod(dy)
    x = _back_substitute(uy, ux, q)
    cols, s = [], []
    for w, den in zip(zip(*[[d * v for v in row] for d, row in zip(dy, x)]), dx):
        den *= q
        div = gcd(*w, den)
        if den < 0:
            div = -div
        cols.append([v // div for v in w])
        s.append(den // div)
    return [list(row) for row in zip(*cols)], s


# ---------------------------------------------------------------------------


class _Value:
    """Immutable value whose fields, in order, are its class's `__slots__`,
    or the fewer `__match_args__` its body names to leave a derived slot
    out.  `__init__` takes each field once, by position or by name (else
    TypeError), sets it by `object.__setattr__` and then runs the `_check`
    hook, which may validate the fields or set a derived slot.  Setting or
    deleting a slot afterwards raises AttributeError.  It reprs as
    `Name(field=value, ...)`, equals only its own class's instances with
    equal fields, hashes as its field tuple, and copies and pickles by
    rebuilding through `__init__`, checks included."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or set(kwargs) != set(rest):
                raise TypeError(f"{type(self).__name__}() takes each of the fields {names} once, "
                                f"by position or by name; got {len(args)} by position and "
                                f"{sorted(kwargs)} by name")
            args += tuple(kwargs[name] for name in rest)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class MinorIndex(_Value):
    """Address of a minor: strictly increasing 1-based row/column tuples.

    `nontrivial` means every row index is at most the matching column index
    (the minors that are not forced to vanish for an upper-triangular
    matrix); `consecutive` means both tuples are runs of consecutive
    integers.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: Iterable[int], cols: Iterable[int]):
        super().__init__(tuple(rows), tuple(cols))

    def _check(self):
        rows, cols = self.rows, self.cols
        if not rows or len(rows) != len(cols):
            raise BadParameters("row and column tuples must be nonempty and of equal size")
        for tup in (rows, cols):
            if any(i < 1 for i in tup):
                raise IndexOutOfRange(f"indices are 1-based, got {tup}")
            if any(b <= a for a, b in zip(tup, tup[1:])):
                raise BadParameters(f"index tuple must be strictly increasing, got {tup}")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def nontrivial(self) -> bool:
        return all(i <= j for i, j in zip(self.rows, self.cols))

    @property
    def consecutive(self) -> bool:
        return all(b == a + 1 for t in (self.rows, self.cols) for a, b in zip(t, t[1:]))


class Matrix(_Value):
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("_rows", "dim")
    __match_args__ = ("_rows",)  # the one field, which copies are rebuilt from

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(_to_fraction(x) for x in row) for row in rows)
        if not data:
            raise BadParameters("matrix must have at least one row")
        d = len(data)
        if any(len(r) != d for r in data):
            raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "dim", d)

    @classmethod
    def _of(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        """Wrap a square tuple grid of Fractions built here, without checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        object.__setattr__(m, "dim", len(rows))
        return m

    @classmethod
    def identity(cls, d: int) -> "Matrix":
        if d < 1:
            raise BadParameters("dimension must be positive")
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        es = [_to_fraction(x) for x in entries]
        d = len(es)
        return cls([[es[i] if i == j else 0 for j in range(d)] for i in range(d)])

    @classmethod
    def elementary(cls, d: int, i: int, j: int, t) -> "Matrix":
        """Identity plus t in position (i, j), 1-based, i != j."""
        if not (1 <= i <= d and 1 <= j <= d) or i == j:
            raise IndexOutOfRange(f"bad elementary position ({i}, {j}) for dim {d}")
        rows = [[Fraction(1) if a == b else Fraction(0) for b in range(d)] for a in range(d)]
        rows[i - 1][j - 1] = _to_fraction(t)
        return cls(rows)

    @classmethod
    def reversal(cls, d: int) -> "Matrix":
        """Antidiagonal permutation matrix (column k is e_{d-k+1})."""
        return cls([[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)])

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexOutOfRange(f"entry ({i}, {j}) out of range for dim {self.dim}")
        return self._rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"row {i} out of range")
        return self._rows[i - 1]

    def column(self, j: int) -> tuple[Fraction, ...]:
        if not 1 <= j <= self.dim:
            raise IndexOutOfRange(f"column {j} out of range")
        return tuple(r[j - 1] for r in self._rows)

    def rows_tuple(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot multiply dim {self.dim} by dim {other.dim}")
        # denominators cleared once per row and per column; integer dot products
        cols = _cleared(zip(*other._rows))
        return Matrix._of(tuple(
            tuple(_ratio(sum(map(mul, r, c)), s * t) for c, t in cols)
            for r, s in _cleared(self._rows)
        ))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._rows)
        return f"Matrix[{body}]"

    # -- decompositions and invariants --------------------------------------

    def det(self) -> Fraction:
        """Exact determinant, by fraction-free (Bareiss) elimination."""
        return _grid_det(self._rows)

    def inverse(self) -> "Matrix":
        x, den = _scaled_solve(_cleared(self._rows), [_cleared(Matrix.identity(self.dim)._rows)])
        return Matrix._of(_fractions(x, [den] * self.dim))

    def minor(self, index: MinorIndex) -> Fraction:
        """Exact value of the minor addressed by `index`."""
        for tup in (index.rows, index.cols):
            if any(i > self.dim for i in tup):
                raise IndexOutOfRange(f"indices {tup} out of range for dim {self.dim}")
        return _grid_det([[self._rows[i - 1][j - 1] for j in index.cols] for i in index.rows])

    def power(self, t: int) -> "Matrix":
        """Non-negative integer matrix power by repeated squaring."""
        if t < 0:
            raise BadParameters("power must be non-negative")
        result = Matrix.identity(self.dim)
        base = self
        while t:
            if t & 1:
                result = result @ base
            base = base @ base if t > 1 else base
            t >>= 1
        return result


def _jordan_chain(u: Matrix) -> tuple[list[list[int]], int]:
    """([v, Bv, ..., B^(d-1)v], s), the Jordan chain of a unipotent u with
    one Jordan block in integers: B = s N, N = u - I and s the lcm of N's
    denominators, and v = e_j for j the first nonzero column of N^(d-1).

    B is u's column-cleared rows minus diag(s_j), each column times
    s / s_j: N's columns have u's denominators.  j is read off rows: the
    first row i with e_i^T B^(d-1) != 0 (d - 1 vector products per row
    tried) and that row's first nonzero entry.  Raises
    NotSingleJordanBlock when there is no such row, N^(d-1) = 0; then
    NotUnipotent unless B^d v = 0.  That test is exact: with N^(d-1) v != 0
    and N^d v = 0 the chain is a basis that N^d kills, so N^d = 0.  And
    for a nilpotent N with N^(d-1) != 0, N^(d-1) has rank one, so its
    nonzero rows share their first nonzero column: j is the same from any
    row, the first column of N^(d-1) that is not zero.
    """
    d = u.dim
    g, scales = _column_scaled(u._rows)
    s = lcm(*scales)
    b = [
        [(x - sj if i == j else x) * (s // sj) for j, (x, sj) in enumerate(zip(row, scales))]
        for i, row in enumerate(g)
    ]
    for i in range(d):
        r = [int(k == i) for k in range(d)]
        for _ in range(d - 1):
            r = _row_times(r, b)
        j = next((j for j, x in enumerate(r) if x), None)
        if j is not None:
            break
    else:
        raise NotSingleJordanBlock("fixed flag construction needs a single Jordan block")
    # B v is the row v^T B^T: column updates, one per nonzero entry of v
    cols = list(zip(*b))
    chain = [[int(k == j) for k in range(d)]]
    for _ in range(d):
        chain.append(_row_times(chain[-1], cols))
    if any(chain.pop()):
        raise NotUnipotent("matrix is not unipotent: (u - I)^dim != 0")
    return chain, s


def jordan_block_sizes(u: Matrix) -> tuple[int, ...]:
    """Jordan block sizes of a unipotent matrix, sorted descending.

    Derived from the rank sequence r_m = rank((u - I)^m): the number of
    blocks of size at least m is r_{m-1} - r_m.  The ranks are those of
    the integer powers of s (u - I) from `_scaled_powers`, s the lcm of
    its denominators, each eliminated in place.  Raises NotUnipotent when
    (u - I)^dim is nonzero.
    """
    d = u.dim
    n = [[x - 1 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(u._rows)]
    powers = _scaled_powers(*_column_scaled(n), d)[0]
    if any(map(any, powers[d])):
        raise NotUnipotent("matrix is not unipotent: (u - I)^dim != 0")
    ranks = [_grid_rank(p) for p in powers] + [0]
    # blocks of size exactly m: (r_{m-1} - r_m) - (r_m - r_{m+1})
    return tuple(
        m for m in range(d, 0, -1) for _ in range(ranks[m - 1] - 2 * ranks[m] + ranks[m + 1])
    )
