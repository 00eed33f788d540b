"""Complete flags, transversality, adapted bases, and unipotent transporters.

A complete flag in Q^d is stored as an invertible frame: column k of the
frame spans the new direction of the k-dimensional piece, so the k-th
subspace is the span of the first k columns.  Frames are not canonical;
equality compares the subspaces themselves by rank tests, and the group
acts by plain matrix multiplication on frames.

The transporter of two flags H, G relative to a base flag F is the unique
unipotent upper-triangular matrix (in a basis adapted to the pair (F, H))
whose ambient conjugate fixes F and carries H to G.  Its total positivity
is exactly what the tuple-positivity certificates in this package test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadParameters,
    DimensionMismatch,
    InvariantViolated,
    NotSingleJordanBlock,
    NotTransverse,
    SingularMatrix,
)
from .linalg import Matrix, _grid_det, _grid_kernel, _grid_rank, jordan_block_sizes


def _column_grid(cols: list[tuple[Fraction, ...]]) -> tuple[tuple[Fraction, ...], ...]:
    """Assemble column vectors into a row-major grid."""
    d = len(cols[0])
    return tuple(tuple(c[i] for c in cols) for i in range(d))


def _columns(m: Matrix) -> list[tuple[Fraction, ...]]:
    return list(zip(*m.rows_tuple()))


def _is_upper(rows) -> bool:
    """Whether a row-major grid is zero below its diagonal.

    For invertible frames A and B, A^-1 B is upper triangular exactly when
    both present the same flag.
    """
    return not any(any(row[:i]) for i, row in enumerate(rows))


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


def adapted_basis(f: Flag, h: Flag) -> AdaptedBasis:
    if not transverse(f, h):
        raise NotTransverse("flags are not transverse; no adapted basis exists")
    d = f.dim
    f_cols, h_cols = _columns(f.frame), _columns(h.frame)
    out_cols: list[tuple[Fraction, ...]] = []
    for k in range(1, d + 1):
        # kernel of [F cols 1..k | H cols 1..d-k+1] is one line by transversality
        kern = _grid_kernel(_column_grid(f_cols[:k] + h_cols[:d - k + 1]))
        if len(kern) != 1:
            raise InvariantViolated("a transverse pair must give a one-dimensional kernel")
        coeffs = kern[0][:k]
        lead = coeffs[k - 1]
        if lead == 0:
            raise InvariantViolated("the intersection line cannot sit in the smaller subspace")
        vec = tuple(
            sum((coeffs[i] * f_cols[i][r] for i in range(k)), Fraction(0)) / lead
            for r in range(d)
        )
        out_cols.append(vec)
    return AdaptedBasis(Matrix(_column_grid(out_cols)), (f, h))


def transporter(f: Flag, h: Flag, g: Flag, basis: AdaptedBasis | None = None) -> Matrix:
    """Unipotent matrix carrying h to g while fixing f, in (f, h)-adapted coordinates.

    Writes g's frame in the adapted coordinates and reduces it to reverse
    column-echelon form: the column for g's m-th subspace gets pivot 1 at
    coordinate d-m+1 and zeros below, and becomes column d-m+1 of the
    result.  Requires transverse(f, h) and transverse(f, g): a zero pivot
    is exactly a failure of the latter.  g need not be transverse to h,
    and the degenerate positions of the output encode exactly how
    transversality of (g, h) fails.

    `basis`, when given, must be adapted to (f, h); callers transporting
    many flags through one pair pass it so that the basis and its inverse
    are built once.  The postconditions are checked in adapted
    coordinates, where f is the ascending and h the descending coordinate
    flag (AdaptedBasis checks this on construction): the result u is upper
    unipotent, so it fixes f, and c = (u . reversal) t for the upper
    triangular t recorded by the reduction, c being g's frame in adapted
    coordinates, so u carries the descending flag to g.
    """
    if f.dim != h.dim or f.dim != g.dim:
        raise DimensionMismatch("flag dims differ")
    if basis is None:
        basis = adapted_basis(f, h)
    elif basis.source != (f, h):
        raise BadParameters("basis is not adapted to the pair (f, h)")
    d = f.dim
    c = basis.inverse @ g.frame
    placed: list[list[Fraction]] = []  # reduced columns, pivot rows d, d-1, ...
    t = [[Fraction(0)] * d for _ in range(d)]  # c = (u . reversal) t, t upper triangular
    for m, col in enumerate(_columns(c)):
        col = list(col)
        for i, prior in enumerate(placed):
            factor = t[i][m] = col[d - 1 - i]
            if factor:
                for r in range(d):
                    col[r] -= factor * prior[r]
        lead = t[m][m] = col[d - 1 - m]
        if lead == 0:
            raise NotTransverse("base flag and target flag are not transverse")
        placed.append([x / lead for x in col])
    u = Matrix(_column_grid(placed[::-1]))
    if not (_is_upper(u.rows_tuple()) and all(u.entry(i, i) == 1 for i in range(1, d + 1))):
        raise InvariantViolated("a transporter must be upper unipotent, so that it fixes f")
    if Matrix(_column_grid(placed)) @ Matrix(t) != c:
        raise InvariantViolated("a transporter must carry h to g")
    return u


def unipotent_fixed_flag(u: Matrix) -> Flag:
    """The full fixed flag of a unipotent matrix with one Jordan block.

    Subspace k is the kernel of (u - I)^k; the single-block condition
    makes each kernel exactly one dimension larger than the last, so the
    kernels assemble into a complete flag (the unique u-invariant one).
    """
    d = u.dim
    if jordan_block_sizes(u) != (d,):
        raise NotSingleJordanBlock(
            "fixed flag construction needs a single Jordan block"
        )
    n = u - Matrix.identity(d)
    cols: list[tuple[Fraction, ...]] = []
    power = Matrix.identity(d)
    for k in range(1, d + 1):
        power = power @ n
        kern = power.kernel_basis()
        for cand in kern:
            if _grid_rank(_column_grid(cols + [cand])) == len(cols) + 1:
                cols.append(cand)
                break
        if len(cols) != k:
            raise InvariantViolated("each kernel of (u - I)^k must add one dimension")
    return Flag(Matrix(_column_grid(cols)))
