"""Dynamics at desk scale: power thresholds, SVD flags, singular profiles.

The exact side: for a unipotent u with a single Jordan block and a flag G
transverse to u's fixed flag F, the triple (F, u^t G, G) becomes
positive for every large enough integer t; the threshold search finds
the first such t exactly.  F is framed by a Jordan chain of u, so the
triple's one chain factor is the t-th power of one fixed unipotent.  The
chain is built in integers (`linalg._jordan_chain`) and its rows go
straight to the coordinate solve, with no Fraction frame and no Flag,
and after that one solve every t is an integer binomial sum of fixed
grids, built a row at a time until an entry fails and scanned by
consecutive minors only when every entry passes (see
power_positivity_threshold).

The float side: powers of a hyperbolic 2x2 element pushed through the
reducible block family develop widening singular-value gaps, the flag of
left singular vectors converges to the family's flag at the attracting
fixed point, and the gap ratios follow a two-branch prediction.
The family is built exactly by reps.barbot_matrix; this side only
converts it to floats, scales each block to unit determinant (so
representatives of the same projective element measure alike) and
weights it.  Measurements are taken in that weighted version of the
interleaved basis (each block's monomial vector scaled by the square
root of its binomial coefficient), in which rotation-like elements act
by isometries; in the plain basis the clean ratio formula simply does
not hold.

The float kernel is plain Python on lists, for matrices of desk size: a
one-sided Jacobi SVD (`_hestenes`, entered only through `_svd`) and
Gram-Schmidt applied twice (`_orthonormal`).  Exact grids become floats
only in `_floats`, which rejects an entry outside the float range
(PreconditionViolated) rather than passing on inf.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    InvariantViolated,
    NotHyperbolic,
    NotSingleJordanBlock,
    PreconditionViolated,
    RationalEigenlineRequired,
    SingularGapTooSmall,
    SingularMatrix,
)
from .flags import Flag, _coordinates
from .linalg import Matrix, _Value, _jordan_chain, _quotient, _scaled_powers
from .positivity import _contiguous_minors
from .reps import BarbotSpec, MoebiusElement, ProjectivePoint, _blocks, barbot_flag, barbot_matrix

__all__ = [
    "FloatFlag", "LimitEntry", "SingularProfile", "attracting_fixed_point",
    "flag_distance", "float_flag", "limit_convergence", "power_positivity_threshold",
    "singular_ratio_profile", "svd_flag",
]


class FloatFlag(_Value):
    """Flag presented by an orthonormal float frame, a tuple of rows whose
    first k columns span the flag's k-dimensional subspace.

    min_gap records the smallest singular value ratio seen when the flag
    came out of an SVD, as a certificate of how well-separated (hence how
    canonical) the frame is; it is None for a flag that did not come from
    an SVD.
    """

    __slots__ = ("frame", "min_gap")

    @property
    def dim(self) -> int:
        return len(self.frame)


class SingularProfile(_Value):
    """Singular values in decreasing order, with their consecutive ratios."""

    __slots__ = ("values",)

    def _check(self):
        values = self.values  # each test fails on NaN
        if any(not a >= b for a, b in zip(values, values[1:])):
            raise BadParameters("singular values must not increase")
        if any(not v > 0 for v in values):
            raise BadParameters("singular values must be positive")

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(_gaps(self.values))


def _floats(rows, message: str) -> list[list[float]]:
    """Float rows of a grid of reals; PreconditionViolated(message) for an
    entry outside the float range."""
    try:
        return [[float(x) for x in row] for row in rows]
    except OverflowError:
        raise PreconditionViolated(message) from None


def _residual(v: list[float], basis: list[list[float]]) -> list[float]:
    """v less its components along the orthonormal vectors of basis,
    projected out twice (Gram-Schmidt with one reorthogonalization)."""
    for _ in range(2):
        for q in basis:
            c = sum(map(mul, q, v))
            v = [x - c * y for x, y in zip(v, q)]
    return v


def _orthonormal(columns, message: str) -> list[list[float]]:
    """Orthonormal columns spanning the same flag as the given ones;
    PreconditionViolated(message) when a column's float copy lies in the
    span of those before it."""
    basis: list[list[float]] = []
    for v in columns:
        v = _residual(list(v), basis)
        norm = math.hypot(*v)
        if norm == 0:
            raise PreconditionViolated(message)
        basis.append([x / norm for x in v])
    return basis


def _frame(columns: list[list[float]]) -> tuple[tuple[float, ...], ...]:
    return tuple(zip(*columns))


_EPS = 2.0**-52
_SWEEPS = 40
_TOP = 500


def _hestenes(cols: list[list[float]], found: tuple[list[float], ...] = ()
              ) -> list[tuple[float, list[float] | None]]:
    """(singular value, unit left singular vector or None) for each
    column, unordered: one-sided Jacobi (Hestenes) SVD of the matrix with
    these columns, which lie in the orthogonal complement of the unit
    vectors found.

    Plane rotations on the right make the columns mutually orthogonal;
    their norms are then the singular values and their directions the
    vectors.  A pair is rotated while the cosine of its angle exceeds
    d eps, sweeps over all pairs run until none is, and a sweep past
    _SWEEPS raises InvariantViolated.  A column at the floor, of norm at
    most d eps |A|_F, is rotated no more: a residue nearly parallel to a
    large column would shrink by an ulp a sweep without settling.  Once
    the rest have converged, each such column loses its components along
    every direction found so far (Gram-Schmidt applied twice), and the
    residues are solved the same way on their own scale.  The dropped
    components are at most the floor in size, so no singular value moves
    by more than sqrt(d) times the floor (Weyl), the accuracy of any
    backward-stable SVD; a small column orthogonal to the rest keeps its
    value and direction exactly, so diag(1e-30, 1e-20, 1) gets e3, e2,
    e1 in that order.  Each level has fewer columns than the one before,
    since its largest column is above its own floor.  A residue at most
    d eps times its column's norm is rounding: the column lies in the
    span found, and its value (the residue's norm) gets no direction.
    Each level is first scaled by the power of two that brings its
    largest entry just below 2^_TOP, so no product of rotated columns
    overflows or underflows; that is exact for every entry within
    2^-1500 of the largest.  Demmel and Veselic, "Jacobi's method is
    more accurate than QR", SIAM J. Matrix Anal. Appl. 13 (1992).
    """
    big = max((abs(x) for col in cols for x in col), default=0.0)
    if big == 0:
        return [(0.0, None) for _ in cols]
    shift = _TOP - math.frexp(big)[1]
    cols = [[math.ldexp(x, shift) for x in col] for col in cols]
    tol = len(cols[0]) * _EPS
    floor = tol * math.hypot(*(x for col in cols for x in col))
    norms = [math.hypot(*col) for col in cols]
    for _ in range(_SWEEPS):
        rotated = False
        for i in range(len(cols) - 1):
            for j in range(i + 1, len(cols)):
                a, b = cols[i], cols[j]
                na, nb = norms[i], norms[j]
                gamma = sum(map(mul, a, b))
                if min(na, nb) <= floor or abs(gamma) <= tol * na * nb:
                    continue
                rotated = True
                zeta = (nb - na) * (nb + na) / (2 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1 / math.hypot(1.0, t)
                s = c * t
                cols[i] = [c * x - s * y for x, y in zip(a, b)]
                cols[j] = [s * x + c * y for x, y in zip(a, b)]
                norms[i], norms[j] = math.hypot(*cols[i]), math.hypot(*cols[j])
        if not rotated:
            break
    else:
        raise InvariantViolated(f"one-sided Jacobi SVD did not converge in {_SWEEPS} sweeps")
    cols = [_residual(col, found) for col in cols]
    norms = [math.hypot(*col) for col in cols]
    try:
        out = [(math.ldexp(n, -shift), [x / n for x in col])
               for n, col in zip(norms, cols) if n > floor]
    except OverflowError:
        raise PreconditionViolated("singular values are outside the float range") from None
    basis = (*found, *(u for _, u in out))
    residues = []
    for n, col in zip(norms, cols):
        if n <= floor:
            r = _residual(col, basis)
            if math.hypot(*r) > tol * n:
                residues.append(r)
            else:
                out.append((math.ldexp(math.hypot(*r), -shift), None))
    out += [(math.ldexp(value, -shift), u) for value, u in _hestenes(residues, basis)]
    return out


def _svd(rows: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Singular values of a square float matrix with finite entries, in
    decreasing order, and its left singular vectors, as columns.  A value
    without a direction of its own (zero, or rounding in the span of the
    others; see _hestenes) gets the coordinate vector least in the span of
    the other vectors, orthogonalized."""
    pairs = sorted(_hestenes([list(col) for col in zip(*rows)]),
                   key=lambda pair: pair[0], reverse=True)
    vectors = [u for _, u in pairs]
    basis = [u for u in vectors if u is not None]
    axes = range(len(rows))
    for k, u in enumerate(vectors):
        if u is None:
            v = max((_residual([1.0 if i == m else 0.0 for i in axes], basis) for m in axes),
                    key=lambda v: math.hypot(*v))
            norm = math.hypot(*v)
            vectors[k] = [x / norm for x in v]
            basis.append(vectors[k])
    return [value for value, _ in pairs], vectors


def _gaps(values: list[float]) -> list[float]:
    """Ratios of consecutive singular values, inf past a zero one."""
    return [a / b if b > 0 else math.inf for a, b in zip(values, values[1:])]


def float_flag(f: Flag) -> FloatFlag:
    """Orthonormalized float copy of an exact flag; PreconditionViolated past the float range."""
    message = "flag frame is outside the float range"
    cols = zip(*_floats(f.frame.rows_tuple(), message))
    return FloatFlag(_frame(_orthonormal(cols, message)), None)


_GAP_TOL = 1e-8


def svd_flag(g) -> FloatFlag:
    """Flag of left singular vectors, defined when all gaps are clear.

    g is a square nested sequence of finite reals (BadParameters
    otherwise).  Requires every ratio of consecutive singular values to
    be at least 1 + _GAP_TOL; otherwise the subspaces are not canonical
    and SingularGapTooSmall reports the narrowest gap.  A ratio past a
    zero singular value counts as inf.
    """
    try:
        rows = [list(row) for row in g]
    except TypeError:
        raise BadParameters(
            f"svd_flag needs a square matrix, got a {type(g).__name__} without rows"
        ) from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise BadParameters(
            f"svd_flag needs a square matrix, got row lengths {[len(row) for row in rows]}"
        )
    try:
        a = _floats(rows, "matrix entry is outside the float range")
    except (TypeError, ValueError):
        raise BadParameters("svd_flag needs a square matrix of real entries") from None
    if not all(math.isfinite(x) for row in a for x in row):
        raise BadParameters("svd_flag needs finite entries")
    values, u = _svd(a)
    min_gap = min(_gaps(values), default=math.inf)
    if min_gap < 1 + _GAP_TOL:
        raise SingularGapTooSmall(
            f"singular value ratio {min_gap:.3e} below 1 + {_GAP_TOL:.1e}; "
            "flag of singular vectors is not canonical",
            min_gap=min_gap,
        )
    return FloatFlag(_frame(u), min_gap)


def flag_distance(a: FloatFlag, b: FloatFlag) -> float:
    """Largest principal angle between corresponding subspaces, over all depths."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"flag dims differ: {a.dim} vs {b.dim}")
    b_cols = list(zip(*b.frame))
    overlap = [[sum(map(mul, x, y)) for y in b_cols] for x in zip(*a.frame)]
    worst = 0.0
    for k in range(1, a.dim):
        smallest = _svd([row[:k] for row in overlap[:k]])[0][-1]
        worst = max(worst, math.acos(min(1.0, max(-1.0, smallest))))
    return worst


def power_positivity_threshold(u: Matrix, g: Flag, cap: int = 100_000) -> int:
    """Smallest t >= 1 with (F, u^t G, G) a positive triple, F = fixed flag of u.

    u must be unipotent with one Jordan block (NotUnipotent, then
    NotSingleJordanBlock), G of u's dimension (DimensionMismatch) and
    transverse to F (NotTransverse), and cap at least 1 (BadParameters).
    In F's Jordan-chain frame u acts as I + S, S the superdiagonal shift,
    so with c the coordinates of G over F (one solve, which also tests
    transversality) the coordinates of u^t G are (I + S)^t c.  F comes
    as the integer chain v, Bv, ..., B^(d-1)v of B = r N, r the lcm of
    N's denominators (`_jordan_chain`), and the solve reads the integer
    rows of r^(d-1) F, a scalar multiple of F's frame with the same c; a
    dependent chain would contradict the chain lemma and raises
    InvariantViolated.  The only chain factor of the triple is therefore
    V^t, V = I + M, M = c^-1 S c.
    M is strictly upper with unit superdiagonal, checked, so V^t has
    superdiagonal t and needs no sign normalization.  With s the lcm of
    M's denominators, s^(d-1) V^t = sum over k < d of binom(t, k) A_k,
    A_k = s^(d-1-k) (sM)^k: an integer grid whose consecutive minors have
    the signs of V^t's.  Any non-positive entry on or above the diagonal
    is a non-positive 1 x 1 consecutive minor and rejects t.  So each t
    first evaluates the entry that rejected t - 1, one sum of products,
    and moves on if it is still non-positive; otherwise it builds the
    grid row by row up to the first row with such an entry, the least
    of which it remembers.  Only a grid whose entries all pass
    is scanned (`_contiguous_minors`) up to its first non-positive
    minor.  A totally positive factor already makes u^t G transverse to
    G, so no t needs a transversality test.  Reaching the cap raises
    CapExceeded rather than returning anything.
    """
    if cap < 1:
        raise BadParameters(f"cap must be at least 1, got {cap}")
    try:
        chain, r = _jordan_chain(u)
    except NotSingleJordanBlock:
        raise NotSingleJordanBlock("threshold search needs a single Jordan block") from None
    d = u.dim
    if g.dim != d:
        raise DimensionMismatch(f"flag dims differ: {d} vs {g.dim}")
    # the integer rows of r^(d-1) F: column m is r^m B^(d-1-m) v
    scales = [r**m for m in range(d)]
    fixed = [([x * chain[d - 1 - m][i] for m, x in enumerate(scales)], 1) for i in range(d)]
    coords = _coordinates(fixed, (g._rows,), "flag must be transverse to the fixed flag")
    try:
        c, delta = next(coords)
    except SingularMatrix:
        raise InvariantViolated("a Jordan chain must be a basis") from None
    # S c = (S ū) diag(1/δ): ū shifted up one row; M = m diag(1/ms)
    m, ms = _quotient(c, c[1:] + [[0] * d], delta)
    if any(any(row[:i + 1]) for i, row in enumerate(m)) or any(
        m[i][i + 1] != ms[i + 1] for i in range(d - 1)
    ):
        raise InvariantViolated("c^-1 S c must be strictly upper with unit superdiagonal")
    powers, s = _scaled_powers(m, ms, d - 1)
    # terms[i][j][k] = entry (i, j) of A_k; (sM)^k vanishes below its k-th superdiagonal
    terms: list[list[list[int]]] = [[[] for _ in range(d)] for _ in range(d)]
    for k, power in enumerate(powers):
        scale = s ** (d - 1 - k)
        for i in range(d - k):
            for j in range(i + k, d):
                terms[i][j].append(scale * power[i][j])
    binom = [1] + [0] * (d - 1)
    failed = None  # the terms of the entry that rejected the last power
    for t in range(1, cap + 1):
        for k in range(d - 1, 0, -1):
            binom[k] += binom[k - 1]
        if failed is not None and sum(map(mul, binom, failed)) <= 0:
            continue
        grid = []
        for i, row in enumerate(terms):
            grid.append([sum(map(mul, binom, entry)) for entry in row])
            low = min(grid[i][i:])
            if low <= 0:
                failed = row[grid[i].index(low, i)]
                break
        else:
            if all(value > 0 for *_, value in _contiguous_minors(grid)):
                return t
    raise CapExceeded(f"no positive power found for t in [1, {cap}]", cap=cap)


def attracting_fixed_point(g: MoebiusElement) -> ProjectivePoint:
    """Eigenline of the larger eigenvalue, as an exact projective point.

    Only hyperbolic elements qualify, and the eigenvalues must be
    rational (the discriminant a rational square); otherwise the fixed
    point does not live on the rational projective line this package
    works with, and RationalEigenlineRequired says so.
    """
    if not g.is_hyperbolic:
        raise NotHyperbolic("attracting fixed point needs a hyperbolic element")
    tr = g.trace
    disc = tr**2 - 4 * g.det
    rn = math.isqrt(disc.numerator)
    rd = math.isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        raise RationalEigenlineRequired(
            "eigenvalues are irrational; no rational eigenline exists"
        )
    root = Fraction(rn, rd)
    lam = (tr + root) / 2 if tr > 0 else (tr - root) / 2
    m = g.matrix
    a, b = m.entry(1, 1), m.entry(1, 2)
    c, e = m.entry(2, 1), m.entry(2, 2)
    if b != 0:
        v = (b, lam - a)
    elif c != 0:
        v = (lam - e, c)
    else:
        v = (Fraction(1), Fraction(0)) if a == lam else (Fraction(0), Fraction(1))
    scale = v[0].denominator * v[1].denominator
    return ProjectivePoint(int(v[0] * scale), int(v[1] * scale))


def _weights(spec: BarbotSpec) -> list[float]:
    """Per-coordinate weights making rotations act by isometries blockwise."""
    return [math.sqrt(math.comb(m - 1, i - 1)) for m, i in _blocks(spec)]


def _tau_hat(spec: BarbotSpec, g: MoebiusElement, n: int) -> list[list[float]]:
    """Float rows of the block family at g^n: det-normalized, weighted basis.

    Each row is divided by |det g|^(n(m-1)/2), m the size of its block.
    Raises PreconditionViolated when an entry of g^n, |det g|^n or the
    weighted result leaves the float range on the way, instead of passing
    on inf or nan.  Float products and quotients overflow to inf without
    raising, so the result is checked to be finite.
    """
    message = f"g^n is outside the float range at n = {n}"
    w = _weights(spec)
    try:
        absdet = abs(float(g.det)) ** n
        scale = [absdet ** ((m - 1) / 2) for m, _ in _blocks(spec)]
        rows = _floats(barbot_matrix(spec, g.power(n)).rows_tuple(), message)
        out = [[x / s * wj / wi for x, wj in zip(row, w)] for row, s, wi in zip(rows, scale, w)]
    except (OverflowError, ZeroDivisionError):
        raise PreconditionViolated(message) from None
    if not all(math.isfinite(x) for row in out for x in row):
        raise PreconditionViolated(message)
    return out


def singular_ratio_profile(
    spec: BarbotSpec, g: MoebiusElement, n: int
) -> list[tuple[int, float, float]]:
    """Measured vs predicted singular value ratios of the block family at g^n.

    Prediction: with r the top singular ratio of g^n itself, gap i is r
    for i <= k-1 or i >= d-k+1, and sqrt(r) for the middle indices.
    Returns (i, measured, predicted) for i = 1..d-1.
    """
    if not g.is_hyperbolic:
        raise NotHyperbolic("singular ratio profile needs a hyperbolic element")
    profile = SingularProfile(tuple(_svd(_tau_hat(spec, g, n))[0]))
    g_rows = _floats(g.power(n).matrix.rows_tuple(), f"g^n is outside the float range at n = {n}")
    r = _gaps(_svd(g_rows)[0])[0]
    d, k = spec.d, spec.k
    out = []
    for i, measured in zip(range(1, d), profile.gaps):
        predicted = r if (i <= k - 1 or i >= d - k + 1) else math.sqrt(r)
        out.append((i, measured, predicted))
    return out


class LimitEntry(_Value):
    """One step of the convergence series; skipped means gaps were too narrow."""

    __slots__ = ("n", "distance", "min_gap", "skipped")


def limit_convergence(spec: BarbotSpec, g: MoebiusElement, n_max: int) -> list[LimitEntry]:
    """Distance series from the SVD flag of the family at g^n to its limit.

    The limit is the family's flag at the attracting fixed point of g.
    Entries where the singular gaps are below tolerance are marked
    skipped instead of carrying a meaningless distance.
    """
    if not g.is_hyperbolic:
        raise NotHyperbolic("limit convergence needs a hyperbolic element")
    x_plus = attracting_fixed_point(g)
    target = barbot_flag(spec, x_plus)
    w = _weights(spec)
    message = "the limit flag is outside the float range"
    rows = _floats(target.frame.rows_tuple(), message)
    weighted = [[x / wi for x in row] for row, wi in zip(rows, w)]
    target_w = FloatFlag(_frame(_orthonormal(zip(*weighted), message)), None)
    series = []
    for n in range(1, n_max + 1):
        mat = _tau_hat(spec, g, n)
        try:
            fl = svd_flag(mat)
        except SingularGapTooSmall as exc:
            series.append(LimitEntry(n, None, exc.min_gap, True))
            continue
        series.append(LimitEntry(n, flag_distance(fl, target_w), fl.min_gap, False))
    return series
