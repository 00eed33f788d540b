"""Complete flags, transversality, adapted bases, and unipotent transporters.

A complete flag in Q^d is stored as an invertible frame: column k of the
frame spans the new direction of the k-dimensional piece, so the k-th
subspace is the span of the first k columns.  Frames are not canonical;
equality compares the subspaces themselves by rank tests, and the group
acts by plain matrix multiplication on frames.

The transporter of two flags H, G relative to a base flag F is the unique
unipotent upper-triangular matrix (in a basis adapted to the pair (F, H))
whose ambient conjugate fixes F and carries H to G: c_H^-1 c_G, for the
coordinates c of H and G over F (see _coordinates).  Its total positivity
is exactly what the tuple-positivity certificates in this package test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InvariantViolated,
    NotSingleJordanBlock,
    NotTransverse,
    NotUnipotent,
    SingularMatrix,
)
from .linalg import (
    Matrix,
    _back_substitute,
    _bareiss,
    _cleared,
    _grid_det,
    _grid_rank,
    _is_unipotent,
    _is_upper,
    _ratio,
    _scaled_powers,
    _solve,
)


def _column_grid(cols: list[tuple[Fraction, ...]]) -> tuple[tuple[Fraction, ...], ...]:
    """Assemble column vectors into a row-major grid."""
    d = len(cols[0])
    return tuple(tuple(c[i] for c in cols) for i in range(d))


def _columns(m: Matrix) -> list[tuple[Fraction, ...]]:
    return list(zip(*m.rows_tuple()))


class Flag:
    """Complete flag presented by an invertible frame.

    subspace k = span of the first k frame columns.  Two flags compare
    equal when all their subspaces coincide, regardless of frames.
    """

    __slots__ = ("frame", "dim")

    def __init__(self, frame: Matrix):
        if frame.det() == 0:
            raise SingularMatrix("flag frame must be invertible")
        self.frame = frame
        self.dim = frame.dim

    def column(self, k: int) -> tuple[Fraction, ...]:
        return self.frame.column(k)

    def apply(self, g: Matrix) -> "Flag":
        """Image flag under an invertible matrix."""
        return Flag(g @ self.frame)

    def contains(self, v: tuple[Fraction, ...], k: int) -> bool:
        """Membership of a vector in the k-th subspace, by a rank test."""
        if len(v) != self.dim:
            raise DimensionMismatch(
                f"vector has {len(v)} coordinates but the flag has dimension {self.dim}"
            )
        cols = [self.frame.column(i) for i in range(1, k + 1)] + [tuple(v)]
        return _grid_rank(_column_grid(cols)) == k

    def __eq__(self, other) -> bool:
        if not isinstance(other, Flag):
            return NotImplemented
        if self.dim != other.dim:
            return False
        a, b = _columns(self.frame), _columns(other.frame)
        return all(_grid_rank(_column_grid(a[:k] + b[:k])) == k for k in range(1, self.dim))

    def __repr__(self) -> str:
        return f"Flag({self.frame!r})"


def standard_flags(d: int) -> tuple[Flag, Flag]:
    """The ascending and descending coordinate flags.

    Ascending: k-th subspace spanned by e_1..e_k; descending: by e_d
    down to e_{d-k+1}.
    """
    return Flag(Matrix.identity(d)), Flag(Matrix.reversal(d))


def transverse(f: Flag, g: Flag) -> bool:
    """Whether every k-th subspace of f is complementary to the (d-k)-th of g."""
    if f.dim != g.dim:
        raise DimensionMismatch(f"flag dims differ: {f.dim} vs {g.dim}")
    d = f.dim
    f_cols, g_cols = _columns(f.frame), _columns(g.frame)
    return all(_grid_det(_column_grid(f_cols[:k] + g_cols[:d - k])) != 0 for k in range(1, d))


@dataclass(frozen=True)
class AdaptedBasis:
    """Basis adapted to a transverse flag pair.

    Column k of `matrix` spans the line F^k intersect H^{d-k+1}; the
    scale is fixed by making the k-th coordinate of that column in F's
    frame equal to 1 (that coordinate is nonzero by transversality, the
    earlier ones need not be).  In these coordinates F becomes the
    ascending coordinate flag and H the descending one; construction
    checks exactly that, and stores `inverse`, the map from ambient to
    adapted coordinates.
    """

    matrix: Matrix
    source: tuple[Flag, Flag]
    inverse: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f, h = self.source
        if not self.matrix.dim == f.dim == h.dim:
            raise DimensionMismatch("basis and flags must share one dimension")
        try:
            inverse = self.matrix.inverse()
        except SingularMatrix:
            raise InvariantViolated("an adapted basis must be invertible") from None
        if not _is_upper((inverse @ f.frame).rows_tuple()):
            raise InvariantViolated("adapted basis must carry the ascending flag to F")
        # the descending flag's frame is the reversal, whose inverse reverses rows
        if not _is_upper((inverse @ h.frame).rows_tuple()[::-1]):
            raise InvariantViolated("adapted basis must carry the descending flag to H")
        object.__setattr__(self, "inverse", inverse)


def _reverse_echelon(
    c: Matrix, failure: str
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Write c = (u . reversal) t with u upper unipotent and t upper triangular.

    This is reverse column-echelon form: the m-th column of c (m = 1..d),
    less its multiples of the columns reduced before it, gets pivot 1 at
    coordinate d-m+1 and zeros below, and is column d-m+1 of u.  The flag
    of u . reversal is then that of c, and u fixes the ascending
    coordinate flag.  Read with coordinates reversed, the columns of c
    are the rows of a matrix A = t^T U with U unit upper triangular, so
    one fraction-free forward elimination of A (rows scaled to integers)
    gives U from its final rows and t from its multipliers.  A zero pivot
    happens exactly when the flag of c is not transverse to the ascending
    coordinate flag, and raises NotTransverse(failure).  Returns the
    reduced columns, pivot rows d, d-1, ..., and t.
    """
    d = c.dim
    scaled = _cleared(col[::-1] for col in _columns(c))
    a = [r for r, _ in scaled]
    if not _bareiss(a, swaps=False) or a[-1][-1] == 0:
        raise NotTransverse(failure)
    leading = [1] + [a[k][k] for k in range(d - 1)]  # leading minors of A
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


def _coordinates(f: Flag, h: Flag, failure: str) -> Matrix:
    """The coordinates of h over f: the u in F^-1 H = (u . reversal) t.

    F u presents f because u is upper unipotent, and F u . reversal
    presents h because t is upper triangular, so F u is the basis adapted
    to (f, h).  The form is unique, so g's frame in that basis is
    (c_h^-1 c_g . reversal) t_g.  Raises NotTransverse(failure) unless f
    and h are transverse.
    """
    c = Matrix._of(_solve(f.frame.rows_tuple(), h.frame.rows_tuple()))
    placed, t = _reverse_echelon(c, failure)
    u = Matrix(_column_grid(placed[::-1]))
    if not _is_unipotent(u.rows_tuple()):
        raise InvariantViolated(
            "each F^k intersect H^{d-k+1} must be a one-dimensional line with unit k-th coordinate"
        )
    if Matrix(_column_grid(placed)) @ Matrix(t) != c:
        raise InvariantViolated("adapted coordinates must carry the descending flag to H")
    return u


def adapted_basis(f: Flag, h: Flag) -> AdaptedBasis:
    """The basis adapted to (f, h): F u, for u the coordinates of h over f."""
    if f.dim != h.dim:
        raise DimensionMismatch(f"flag dims differ: {f.dim} vs {h.dim}")
    u = _coordinates(f, h, "flags are not transverse; no adapted basis exists")
    return AdaptedBasis(f.frame @ u, (f, h))


def transporter(f: Flag, h: Flag, g: Flag) -> Matrix:
    """Unipotent matrix carrying h to g while fixing f, in (f, h)-adapted coordinates.

    This is c_h^-1 c_g for the coordinates c of h and g over f, by back
    substitution.  Requires transverse(f, h) and transverse(f, g).  g need
    not be transverse to h, and the degenerate positions of the output
    encode exactly how transversality of (g, h) fails.
    """
    if f.dim != h.dim or f.dim != g.dim:
        raise DimensionMismatch("flag dims differ")
    c_h = _coordinates(f, h, "flags are not transverse; no adapted basis exists")
    c_g = _coordinates(f, g, "base flag and target flag are not transverse")
    u = _back_substitute(c_h.rows_tuple(), c_g.rows_tuple())
    if not _is_unipotent(u):
        raise InvariantViolated("a transporter must be upper unipotent, so that it fixes f")
    return Matrix._of(u)


def unipotent_fixed_flag(u: Matrix) -> Flag:
    """The full fixed flag of a unipotent matrix with one Jordan block.

    Subspace k is the kernel of N^k, N = u - I, the unique u-invariant
    complete flag.  It is framed by the Jordan chain N^(d-1)v, ..., Nv, v,
    v the first standard basis vector with N^(d-1)v != 0: the first k
    chain vectors span a k-dimensional space that N^k kills.  In this
    frame F^-1 u F = I + S exactly, S the superdiagonal shift.  Raises
    NotUnipotent when N^d != 0, else NotSingleJordanBlock when N^(d-1) = 0.
    The powers of N are taken in integers, as those of s N for s the lcm
    of N's denominators.
    """
    d = u.dim
    n = [
        [x - 1 if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(u.rows_tuple())
    ]
    powers, s = _scaled_powers(n, d)
    if any(map(any, powers[d])):
        raise NotUnipotent("matrix is not unipotent: (u - I)^dim != 0")
    j = next((j for j in range(d) if any(row[j] for row in powers[d - 1])), None)
    if j is None:
        raise NotSingleJordanBlock("fixed flag construction needs a single Jordan block")
    # column m is N^(d-m) v = (s N)^(d-m) v / s^(d-m)
    return Flag(Matrix._of(tuple(
        tuple(_ratio(powers[d - m][i][j], s ** (d - m)) for m in range(1, d + 1))
        for i in range(d)
    )))
