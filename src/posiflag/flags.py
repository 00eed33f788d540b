"""Complete flags, transversality, adapted bases, and unipotent transporters.

A complete flag in Q^d is stored as an invertible frame: column k of the
frame spans the new direction of the k-dimensional piece, so the k-th
subspace is the span of the first k columns.  Frames are not canonical;
two frames F, G present the same flag exactly when F^-1 G is upper
triangular, which is how equality is decided, and the group acts by
plain matrix multiplication on frames.

The transporter of two flags H, G relative to a base flag F is the unique
unipotent upper-triangular matrix (in a basis adapted to the pair (F, H))
whose ambient conjugate fixes F and carries H to G: c_H^-1 c_G, for the
coordinates c of H and G over F.  Its total positivity is exactly what
the tuple-positivity certificates in this package test.

A flag clears its frame's rows to integers once, when it is built, and
every solve against it (equality, coordinates) reads those rows.
`_coordinates` takes such cleared rows rather than Flags, so a frame
already in integers, such as the threshold search's Jordan chain, is
solved against without a Flag.  Coordinates are kept in integers, c = ū diag(1/δ) with ū upper
triangular and δ its diagonal (see _coordinates): one solve per anchor
frame, against all later flags, and one forward elimination per pair
build them, and a zero pivot of the latter is exactly a failure of
transversality, which is how the tuple engine checks every pair of a
family.  Each pair's elimination is checked to be the fraction-free LU
factorization of its grid by undoing it, on the elimination's own
integers.  Quotients c_H^-1 c_G run the solve's integer back substitution
and stay in integers, G diag(1/s) (`_unipotent_quotient`, shared with the
tuple engine, which also checks that they are upper unipotent); Fractions
appear only in the Matrix outputs of `adapted_basis` and `transporter`.
`transverse` stays the determinant test, for callers that want
transversality alone.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolated,
    NotTransverse,
    SingularMatrix,
)
from .linalg import (
    Cleared,
    ColumnScaled,
    Matrix,
    _Value,
    _bareiss,
    _cleared,
    _det,
    _fractions,
    _grid_det,
    _grid_rank,
    _is_upper,
    _jordan_chain,
    _quotient,
    _scaled_solve,
    _to_fraction,
)

__all__ = [
    "AdaptedBasis", "Flag", "adapted_basis", "standard_flags", "transporter",
    "transverse", "unipotent_fixed_flag",
]


class Flag(_Value):
    """Complete flag presented by an invertible frame.

    subspace k = span of the first k frame columns.  Two flags compare
    equal when all their subspaces coincide, regardless of frames: when
    F^-1 G is upper triangular for their frames F and G.  The frame's
    rows are cleared to integers once, here (`_cleared`): the determinant
    test eliminates a copy, and every solve against the frame reads them,
    so a Flag is immutable, like its frame: it takes that guard from
    `_Value`, and is copied by rebuilding from `frame`.  It is unhashable.
    """

    __slots__ = ("frame", "dim", "_rows")
    __match_args__ = ("frame",)

    def __init__(self, frame: Matrix):
        rows = _cleared(frame.rows_tuple())
        if _det([list(r) for r, _ in rows]) == 0:
            raise SingularMatrix("flag frame must be invertible")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "dim", frame.dim)
        object.__setattr__(self, "_rows", rows)

    def column(self, k: int) -> tuple[Fraction, ...]:
        return self.frame.column(k)

    def apply(self, g: Matrix) -> "Flag":
        """Image flag under an invertible matrix."""
        return Flag(g @ self.frame)

    def contains(self, v: tuple[Fraction, ...], k: int) -> bool:
        """Membership of a vector in the k-th subspace, k = 0..dim, by a rank test
        of the first k frame columns and v, stacked as rows."""
        if len(v) != self.dim:
            raise DimensionMismatch(
                f"vector has {len(v)} coordinates but the flag has dimension {self.dim}"
            )
        if not 0 <= k <= self.dim:
            raise IndexOutOfRange(f"subspace {k} out of range for a flag of dimension {self.dim}")
        rows = [self.frame.column(i) for i in range(1, k + 1)] + [tuple(map(_to_fraction, v))]
        return _grid_rank([r for r, _ in _cleared(rows)]) == k

    def __eq__(self, other) -> bool:
        if not isinstance(other, Flag):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return _is_upper(_scaled_solve(self._rows, [other._rows])[0])

    def __repr__(self) -> str:
        return f"Flag({self.frame!r})"


def standard_flags(d: int) -> tuple[Flag, Flag]:
    """The ascending and descending coordinate flags.

    Ascending: k-th subspace spanned by e_1..e_k; descending: by e_d
    down to e_{d-k+1}.
    """
    return Flag(Matrix.identity(d)), Flag(Matrix.reversal(d))


def transverse(f: Flag, g: Flag) -> bool:
    """Whether every k-th subspace of f is complementary to the (d-k)-th of g:
    whether the first k columns of f's frame and the first d-k of g's,
    stacked as rows, have a nonzero determinant."""
    if f.dim != g.dim:
        raise DimensionMismatch(f"flag dims differ: {f.dim} vs {g.dim}")
    d = f.dim
    f_cols, g_cols = list(zip(*f.frame.rows_tuple())), list(zip(*g.frame.rows_tuple()))
    return all(_grid_det(f_cols[:k] + g_cols[:d - k]) != 0 for k in range(1, d))


class AdaptedBasis(_Value):
    """Basis adapted to a transverse flag pair.

    Column k of `matrix` spans the line F^k intersect H^{d-k+1}; the
    scale is fixed by making the k-th coordinate of that column in F's
    frame equal to 1 (that coordinate is nonzero by transversality, the
    earlier ones need not be).  In these coordinates F becomes the
    ascending coordinate flag and H the descending one; construction
    checks exactly that, and stores `inverse`, the map from ambient to
    adapted coordinates.
    """

    __slots__ = ("matrix", "source", "inverse")
    __match_args__ = ("matrix", "source")  # `inverse` is derived, not a field

    def _check(self):
        matrix, (f, h) = self.matrix, self.source
        if not matrix.dim == f.dim == h.dim:
            raise DimensionMismatch("basis and flags must share one dimension")
        try:
            inverse = matrix.inverse()
        except SingularMatrix:
            raise InvariantViolated("an adapted basis must be invertible") from None
        if not _is_upper((inverse @ f.frame).rows_tuple()):
            raise InvariantViolated("adapted basis must carry the ascending flag to F")
        # the descending flag's frame is the reversal, whose inverse reverses rows
        if not _is_upper((inverse @ h.frame).rows_tuple()[::-1]):
            raise InvariantViolated("adapted basis must carry the descending flag to H")
        object.__setattr__(self, "inverse", inverse)


def _coordinates(f: Cleared, hs: Sequence[Cleared], failure: str) -> Iterator[ColumnScaled]:
    """The coordinates c of each h in hs over f in integers, c = ū diag(1/δ),
    in order: one solve per anchor frame, one forward elimination per pair.
    Each flag is given by its frame's cleared rows (a Flag's `_rows`), so
    a frame known in integers needs no Flag; a frame scaled by a nonzero
    constant gives the same c.

    c is the u in F^-1 H = (u . reversal) t, u upper unipotent and t
    upper triangular.  F u presents f because u is upper unipotent, and
    F u . reversal presents h because t is upper triangular, so F u is
    the basis adapted to (f, h).  The form is unique, so g's frame in that
    basis is (c_h^-1 c_g . reversal) t_g.  One `_scaled_solve` gives
    X = D F^-1 [H_1 | ... | H_m] in integers (with denominators, the
    joint row lcm may scale ū, not c).  Row m of a block's grid A is
    column m of its d columns of X, coordinates reversed, so A = t^T U,
    U unit upper triangular.  Its fraction-free elimination E (no row
    swaps) is the LU factorization A = L diag(1/(p_0 p_1), ...,
    1/(p_(d-1) p_d)) U', p_0 = 1 and p_k the leading k-minor of A:
    U' = diag(p_1 .. p_d) U is E's upper part and L, with diagonal
    p_1 .. p_d, its lower part.  Fewer than d pivots mean exactly that h
    is not transverse to f, and raise NotTransverse(failure) at the first
    such h.  The rows of U', last first and coordinates reversed, are the
    columns of ū = u diag(δ), upper triangular with δ = (p_d, ..., p_1) on
    its diagonal.  The factorization is checked on the integers, by
    undoing the elimination (`_undoes_to`).
    """
    d = len(f)
    x, _ = _scaled_solve(f, hs)
    cols = list(zip(*x))
    for start in range(0, len(cols), d):
        a = [list(col[::-1]) for col in cols[start:start + d]]
        e = [row[:] for row in a]
        if len(_bareiss(e, swaps=False)[0]) < d:
            raise NotTransverse(failure)
        if not _undoes_to(e, a):
            raise InvariantViolated("adapted coordinates must carry the descending flag to H")
        ubar = [[e[d - 1 - k][d - 1 - i] if i <= k else 0 for k in range(d)] for i in range(d)]
        yield ubar, [e[m][m] for m in range(d - 1, -1, -1)]


def _undoes_to(e: list[list[int]], a: list[list[int]]) -> bool:
    """Whether E, the elimination of a square grid A with a pivot in every
    column, is A's fraction-free LU factorization (see `_coordinates`).

    Each row i of E is run back through the Bareiss steps: from the row's
    entries on and past the diagonal, R^(k) = (p_k R^(k+1) + l_k U'_k) /
    p_(k+1) on the columns past k, for k = i-1 down to 0, where
    l_k = E[i][k] is the stored multiplier and column k of R^(k); R^(0)
    must be row i of A.  Over the rationals this is row i of
    A = L diag(1/(p_k p_(k+1))) U' in nested form.  That factorization
    is unique, so an E that satisfies it is the true elimination, whose
    intermediate rows are integer minors: an inexact division is a
    failure too, and no integer outgrows the elimination's own.  A zero
    multiplier between two equal pivots leaves the row as it is.
    """
    p = [1] + [row[m] for m, row in enumerate(e)]
    for i, row in enumerate(e):
        r = row[i:]
        for k in range(i - 1, -1, -1):
            ell, pk, pk1 = row[k], p[k], p[k + 1]
            if ell:
                out = [ell]
                for v, w in zip(r, e[k][k + 1:]):
                    n = pk * v + ell * w
                    q = n // pk1
                    if q * pk1 != n:
                        return False
                    out.append(q)
                r = out
            elif pk != pk1:
                out = [0]
                for v in r:
                    q, rem = divmod(pk * v, pk1)
                    if rem:
                        return False
                    out.append(q)
                r = out
            else:
                r.insert(0, 0)
        if r != a[i]:
            return False
    return True


def _unipotent_quotient(c_y: ColumnScaled, c_x: ColumnScaled) -> ColumnScaled:
    """(G, s) with G diag(1/s) = c_y^-1 c_x, checked upper unipotent.

    Both coordinates are over one base flag, so the quotient fixes it:
    G must be upper triangular with s on its diagonal.
    """
    g, s = _quotient(c_y[0], *c_x)
    if not (_is_upper(g) and all(row[i] == si for i, (row, si) in enumerate(zip(g, s)))):
        raise InvariantViolated("a quotient of flag coordinates must be upper unipotent")
    return g, s


def _adapted(f: Flag, h: Flag, c: ColumnScaled) -> AdaptedBasis:
    """The basis F u adapted to (f, h), from the coordinates c = u of h over f."""
    return AdaptedBasis(f.frame @ Matrix._of(_fractions(*c)), (f, h))


def adapted_basis(f: Flag, h: Flag) -> AdaptedBasis:
    """The basis adapted to (f, h): F u, for u the coordinates of h over f."""
    if f.dim != h.dim:
        raise DimensionMismatch(f"flag dims differ: {f.dim} vs {h.dim}")
    c = next(_coordinates(f._rows, (h._rows,), "flags are not transverse; no adapted basis exists"))
    return _adapted(f, h, c)


def transporter(f: Flag, h: Flag, g: Flag) -> Matrix:
    """Unipotent matrix carrying h to g while fixing f, in (f, h)-adapted coordinates.

    This is c_h^-1 c_g for the coordinates c of h and g over f (one
    solve), by the solve's integer back substitution on their integer
    forms.  Requires transverse(f, h), then transverse(f, g).  g need not
    be transverse to h, and the degenerate positions of the output
    encode exactly how transversality of (g, h) fails.
    """
    if f.dim != h.dim or f.dim != g.dim:
        raise DimensionMismatch("flag dims differ")
    coords = _coordinates(
        f._rows, (h._rows, g._rows), "flags are not transverse; no adapted basis exists"
    )
    c_h = next(coords)
    try:
        c_g = next(coords)
    except NotTransverse:
        raise NotTransverse("base flag and target flag are not transverse") from None
    return Matrix._of(_fractions(*_unipotent_quotient(c_h, c_g)))


def unipotent_fixed_flag(u: Matrix) -> Flag:
    """The full fixed flag of a unipotent matrix with one Jordan block.

    Subspace k is the kernel of N^k, N = u - I, the unique u-invariant
    complete flag.  It is framed by the Jordan chain N^(d-1)v, ..., Nv, v,
    v the first standard basis vector with N^(d-1)v != 0: the first k
    chain vectors span a k-dimensional space that N^k kills.  In this
    frame F^-1 u F = I + S exactly, S the superdiagonal shift.  Raises
    NotUnipotent when N^d != 0, else NotSingleJordanBlock when N^(d-1) = 0.
    The chain is the integer chain v, Bv, ..., B^(d-1)v of B = s N from
    `_jordan_chain`; the threshold search reads it without building this
    Flag.
    """
    d = u.dim
    chain, s = _jordan_chain(u)
    # column m is N^(d-m) v = (s N)^(d-m) v / s^(d-m)
    frame = [[chain[d - m][i] for m in range(1, d + 1)] for i in range(d)]
    return Flag(Matrix._of(_fractions(frame, [s ** (d - m) for m in range(1, d + 1)])))
