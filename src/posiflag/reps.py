"""Explicit representations of 2x2 matrix groups on Q^d.

The d-th symmetric power acts on degree d-1 forms in two variables; on
the monomial basis (e_1^{d-1}, e_1^{d-2}e_2, ..., e_2^{d-1}) the upper
unipotent [[1,1],[0,1]] becomes the upper-triangular binomial matrix.
The reducible family tau_{d, j} (d odd) glues the symmetric powers of
sizes d-j and j block-diagonally and rewrites them in an interleaved
basis; its flags at projective points land on a limit set with no
positive triples, the counterpoint to the fully positive Veronese flags.
barbot_matrix builds tau exactly, and _blocks is the one decoding of
the interleaved basis, which the float dynamics reads as well.

Scalar convention: matrix-level outputs are computed for the given 2x2
representative (no determinant normalization); flag-level outputs are
insensitive to the scaling, so nothing depends on the choice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .errors import BadParameters, DimensionMismatch, SingularMatrix
from .flags import Flag
from .linalg import Matrix, _Value

__all__ = [
    "BarbotSpec", "MoebiusElement", "ProjectivePoint", "barbot_flag", "barbot_matrix",
    "barbot_spec", "cyclically_ordered", "g_from_point", "pascal", "sym_power",
    "veronese_flag",
]


class ProjectivePoint(_Value):
    """Point of the rational projective line, as a coprime integer pair.

    (p, q) and (-p, -q) are the same point; the stored representative has
    q > 0, or q = 0 and p > 0.  Ordering on the circle is by angle of the
    representative, sweeping the upper half circle counterclockwise from
    (1, 0).
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p == 0 and q == 0:
            raise BadParameters("projective point needs a nonzero pair")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        super().__init__(p, q)

    @property
    def angle_key(self):
        """Sort key realizing the counterclockwise order, exactly."""
        if self.q == 0:
            return (0,)
        return (1, Fraction(-self.p, self.q))

    def __str__(self) -> str:
        return f"[{self.p}:{self.q}]"


def cyclically_ordered(points: list[ProjectivePoint]) -> bool:
    """Whether the list is a rotation of the strict counterclockwise order."""
    keys = [p.angle_key for p in points]
    if len(set(keys)) != len(keys):
        return False
    start = min(range(len(keys)), key=keys.__getitem__, default=0)
    rotated = keys[start:] + keys[:start]
    return all(a < b for a, b in zip(rotated, rotated[1:]))


class MoebiusElement(_Value):
    """Invertible 2x2 rational matrix acting on the projective line."""

    __slots__ = ("matrix",)

    def _check(self):
        if self.matrix.dim != 2:
            raise DimensionMismatch("Moebius element needs a 2x2 matrix")
        if self.matrix.det() == 0:
            raise SingularMatrix("Moebius element must be invertible")

    @classmethod
    def of(cls, a, b, c, d) -> "MoebiusElement":
        return cls(Matrix(((a, b), (c, d))))

    @classmethod
    def identity(cls) -> "MoebiusElement":
        return cls(Matrix.identity(2))

    @property
    def det(self) -> Fraction:
        return self.matrix.det()

    @property
    def trace(self) -> Fraction:
        return self.matrix.entry(1, 1) + self.matrix.entry(2, 2)

    @property
    def is_hyperbolic(self) -> bool:
        # trace^2 > 4 det with positive det: two real eigenvalues whose
        # absolute values differ, an attracting/repelling pair on the line
        return self.det > 0 and self.trace**2 > 4 * self.det

    def inverse(self) -> "MoebiusElement":
        return MoebiusElement(self.matrix.inverse())

    def power(self, t: int) -> "MoebiusElement":
        if t < 0:
            return MoebiusElement(self.matrix.inverse().power(-t))
        return MoebiusElement(self.matrix.power(t))

    def __matmul__(self, other: "MoebiusElement") -> "MoebiusElement":
        return MoebiusElement(self.matrix @ other.matrix)

    def act(self, x: ProjectivePoint) -> ProjectivePoint:
        m = self.matrix
        p = m.entry(1, 1) * x.p + m.entry(1, 2) * x.q
        q = m.entry(2, 1) * x.p + m.entry(2, 2) * x.q
        scale = p.denominator * q.denominator // gcd(p.denominator, q.denominator)
        return ProjectivePoint(int(p * scale), int(q * scale))


def _as_2x2(g) -> Matrix:
    m = g.matrix if isinstance(g, MoebiusElement) else g
    if m.dim != 2:
        raise DimensionMismatch("symmetric power input must be 2x2")
    return m


def sym_power(g, d: int) -> Matrix:
    """Matrix of the d-dimensional symmetric power on the monomial basis.

    Basis vector j is e_1^(d-j) e_2^(j-1); its image is the product of
    powers of the two image vectors, expanded by binomial convolution.
    Multiplicative in g; d = 2 returns g itself and d = 1 the trivial
    representation.
    """
    if d < 1:
        raise BadParameters(f"symmetric power needs d >= 1, got {d}")
    m = _as_2x2(g)
    a, b = m.entry(1, 1), m.entry(1, 2)
    c, e = m.entry(2, 1), m.entry(2, 2)
    n = d - 1
    cols = []
    for j in range(d):
        n1, n2 = n - j, j
        p1 = [comb(n1, t) * a ** (n1 - t) * c**t for t in range(n1 + 1)]
        p2 = [comb(n2, s) * b ** (n2 - s) * e**s for s in range(n2 + 1)]
        conv = [Fraction(0)] * d
        for t, x in enumerate(p1):
            for s, y in enumerate(p2):
                conv[t + s] += x * y
        cols.append(tuple(conv))
    return Matrix(tuple(tuple(col[i] for col in cols) for i in range(d)))


def pascal(d: int) -> Matrix:
    """Upper-triangular binomial matrix: entry (i, j) = C(j-1, i-1)."""
    if d < 1:
        raise BadParameters(f"pascal needs d >= 1, got {d}")
    return Matrix(
        tuple(
            tuple(Fraction(comb(j, i)) for j in range(d))
            for i in range(d)
        )
    )


def g_from_point(x: ProjectivePoint) -> MoebiusElement:
    """Rotation-like element sending [1:0] to x, with rational entries."""
    return MoebiusElement.of(x.p, -x.q, x.q, x.p)


def veronese_flag(x: ProjectivePoint, d: int) -> Flag:
    """Image of the ascending flag under the symmetric power at x.

    Well-defined: any two choices of g with g[1:0] = x differ by an
    upper-triangular stabilizer, whose symmetric power is upper
    triangular and fixes the ascending flag.
    """
    if d < 2:
        raise BadParameters(f"veronese flag needs d >= 2, got {d}")
    return Flag(sym_power(g_from_point(x), d))


class BarbotSpec(_Value):
    """Shape data for the reducible family: sizes, and the interleaved basis.

    d odd, 1 <= j <= (d-1)/2; k = (d-2j+1)/2 and perm follow from (d, j)
    and are set by the constructor.  perm[m] is the standard index of the
    m-th basis vector: the first d-j standard vectors carry the large
    symmetric power, the last j the small one, and the basis order is
    (f_1..f_k, f'_1, f_(k+1), f'_2, f_(k+2), ..., f'_j, f_(k+j),
    f_(k+j+1), ..., f_(d-j)) with f_i = e_i, f'_i = e_(d-j+i).
    """

    __slots__ = ("d", "j", "k", "perm")
    __match_args__ = ("d", "j")  # k and perm are derived, not fields

    def _check(self):
        d, j = self.d, self.j
        if d < 3 or d % 2 == 0:
            raise BadParameters(f"d must be odd and >= 3, got {d}")
        if not 1 <= j <= (d - 1) // 2:
            raise BadParameters(f"j must lie in [1, {(d - 1) // 2}], got {j}")
        k = (d - 2 * j + 1) // 2
        order = list(range(1, k + 1))
        for i in range(1, j + 1):
            order.append(d - j + i)
            order.append(k + i)
        order.extend(range(k + j + 1, d - j + 1))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "perm", tuple(order))


def barbot_spec(d: int, j: int) -> BarbotSpec:
    return BarbotSpec(d, j)


def _blocks(spec: BarbotSpec) -> list[tuple[int, int]]:
    """(m, i) per interleaved basis vector: its block's size m, d-j or j
    (never equal), and its 1-based monomial index i inside that block."""
    m1 = spec.d - spec.j
    return [(m1, e) if e <= m1 else (spec.j, e - m1) for e in spec.perm]


def barbot_matrix(spec: BarbotSpec, g) -> Matrix:
    """Block sum of the two symmetric powers, in the interleaved basis."""
    blocks = _blocks(spec)
    power = {m: sym_power(g, m).rows_tuple() for m in (spec.d - spec.j, spec.j)}
    zero = Fraction(0)
    return Matrix._of(
        tuple(
            tuple(power[m][i - 1][c - 1] if m == mc else zero for mc, c in blocks)
            for m, i in blocks
        )
    )


def barbot_flag(spec: BarbotSpec, x: ProjectivePoint) -> Flag:
    """Flag of the reducible family at a projective point.

    [1:0] lands on the ascending coordinate flag (in the interleaved
    basis) and [0:1] on the descending one; in general the flag is the
    matrix image of the ascending flag, equivariantly in g.
    """
    return Flag(barbot_matrix(spec, g_from_point(x)))
