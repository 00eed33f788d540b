"""Positivity certificates for ordered tuples of complete flags.

An ordered tuple (F_1, ..., F_n) of pairwise transverse flags is positive
when, in a basis adapted to (F_1, F_n), there are totally positive
unipotent factors u_2, ..., u_{n-1} with F_j = (u_{n-1} ... u_j) F_n for
every j.  The factors are pinned down by the cumulative transporters
c_j carrying F_n to F_j: c_n is the identity and c_j = c_{j+1} u_j, so
u_j = c_{j+1}^{-1} c_j, which is also the quotient of the coordinates
of F_{j+1} and F_j over F_1 (see flags): F_n drops out.  Those
coordinates are kept in integers, and the elimination that builds them
also decides each pair's transversality.  They are built on demand, an
anchor flag at a time: a Positive verdict stands for the pairs no chain
read, since a positive tuple is pairwise transverse, and any other
outcome checks every pair first.  Each factor stays in integers too, as
G diag(1/s) with positive column scales s, from the back substitution
that builds it to the minor scan that judges it; only the chain route's
certificate turns factors into Matrices.  The definition
allows any adapted basis; the only freedom that affects total positivity
of the factors is a diagonal sign flip, which is resolved here by
conjugating every factor by the one +-1 diagonal that makes u_{n-1}'s
superdiagonal positive.  That diagonal is read off the coordinates of
F_n and F_{n-1} alone, so a zero superdiagonal entry refuses the tuple
before any factor is built.  Inside the engine a refusal is a value, the
position of the zero entry, that costs at most the d - 1 products of the
sign reading and raises nothing; a public route raises it as
ZeroSuperdiagonal only when it hands back its result.

The quadruple route certifies an n-tuple by checking only its ordered
4-element subtuples, which suffices; both routes agree on every input.
The sampled check uses that agreement the other way round: one chain over
the whole sample decides all of its quadruples at once, and quadruples
are scanned one by one only when that chain fails, to name the first
failing one.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import comb

from .errors import (
    BadParameters,
    DimensionMismatch,
    InvariantViolated,
    NotTransverse,
    NotUnipotentUpperTriangular,
    PreconditionViolated,
    ZeroSuperdiagonal,
)
from .flags import Flag, _adapted, _coordinates, _unipotent_quotient
from .linalg import ColumnScaled, Matrix, _Value, _fractions
from .positivity import DetCounter, PositivityVerdict, Status, _staged_scan, is_upper_unipotent
from .reps import ProjectivePoint, cyclically_ordered

__all__ = [
    "FlagMapSample", "SampleReport", "TupleCertificate", "check_sampled_positivity",
    "is_positive_triple", "is_positive_tuple_chain", "is_positive_tuple_quad",
    "sign_normalize",
]


def _sign_conjugate(rows, signs: tuple[int, ...]) -> tuple[tuple, ...]:
    """The rows of D u D for D = diag(signs), +-1, and u's rows, integer
    or Fraction: entry (i, j) negated when s_i s_j = -1."""
    return tuple(
        tuple(x if s_i == s_j else -x for x, s_j in zip(row, signs))
        for row, s_i in zip(rows, signs)
    )


def _signs(superdiagonal) -> tuple[int, ...] | int:
    """The +-1 diagonal, first entry +1, whose conjugation makes every
    superdiagonal entry of a unipotent u positive, read from u's
    superdiagonal (1, 2), ..., (d-1, d) or from numbers of the same signs.

    A zero superdiagonal entry is a zero nontrivial 1x1 minor, unfixable
    by any diagonal conjugation: u is certainly not conjugate into the
    fully positive set.  So the reading stops at the first zero, entry
    (i, i+1), and returns its 1-based position i in place of the signs, a
    refusal that `_accepted` raises as ZeroSuperdiagonal.
    """
    signs = [1]
    for i, s in enumerate(superdiagonal, 1):
        if s == 0:
            return i
        signs.append(signs[-1] if s > 0 else -signs[-1])
    return tuple(signs)


def _accepted(result):
    """`result`, unless it is a refusal: an int, the 1-based position i of a
    zero superdiagonal entry (i, i+1), which raises ZeroSuperdiagonal."""
    if type(result) is int:
        raise ZeroSuperdiagonal(
            f"superdiagonal entry ({result},{result + 1}) is zero; "
            "no sign conjugation can make it positive",
            position=result,
        )
    return result


def sign_normalize(u: Matrix) -> tuple[Matrix, Matrix]:
    """Conjugate an upper unipotent matrix into positive-superdiagonal form.

    Returns (D, D u D^-1) for D = diag of `_signs(u)`, so D is +-1 with
    d_1 = +1; a zero superdiagonal entry raises ZeroSuperdiagonal.
    """
    if not is_upper_unipotent(u):
        raise NotUnipotentUpperTriangular("sign normalization needs an upper unipotent input")
    rows = u.rows_tuple()
    signs = _accepted(_signs(rows[i][i + 1] for i in range(u.dim - 1)))
    return Matrix.diagonal(signs), Matrix._of(_sign_conjugate(rows, signs))


class TupleCertificate(_Value):
    """Factorization data behind a tuple-positivity verdict.

    `factors[i]` is u_{i+2} in the coordinates of `adapted.matrix` (plain,
    before sign conjugation); `verdicts[i]` is the staged verdict of the
    sign-conjugated factor sign @ factors[i] @ sign.  In the adapted
    coordinates the recorded factors replay the tuple exactly:
    F_j = (u_{n-1} ... u_j) F_n for every j.
    """

    __slots__ = ("adapted", "sign", "factors", "verdicts")

    @property
    def normalized_factors(self) -> tuple[Matrix, ...]:
        signs = tuple(row[i] for i, row in enumerate(self.sign.rows_tuple()))
        return tuple(Matrix._of(_sign_conjugate(u.rows_tuple(), signs)) for u in self.factors)

    def replays(self, flags: list[Flag]) -> bool:
        """Whether multiplying out the factors reproduces every flag of the tuple."""
        n = len(self.factors) + 2
        if len(flags) != n:
            return False
        p, p_inv = self.adapted.matrix, self.adapted.inverse
        last = flags[-1]
        prod = Matrix.identity(p.dim)
        for j in range(n - 1, 1, -1):
            prod = prod @ self.factors[j - 2]
            if last.apply(p @ prod @ p_inv) != flags[j - 1]:
                return False
        return True


def _aggregate(verdicts: Iterable[PositivityVerdict]) -> PositivityVerdict:
    """The first non-positive verdict, read lazily, or Positive."""
    for v in verdicts:
        if not v.is_positive:
            return v
    return PositivityVerdict(Status.POSITIVE, None, "staged")


class _TupleEngine:
    """Memo of the pair coordinates and chain factors of one flag family.

    For a pair a < x of 0-based flag indices, c_{a,x} = ū diag(1/δ) are
    the integer coordinates of F_x over F_a, built an anchor at a time:
    one solve of anchor a's frame against all later frames, one forward
    elimination per pair.  `anchors` builds anchors 0..a on first use, in
    order, pairs (1, n) first, then (1, j) for 1 < j < n, then anchor 2's
    and so on.  A zero pivot of an elimination is exactly a failure of
    transversality, and raises NotTransverse with the 1-based pair, the
    first failing one in that order; `chain` and `factor` read pair
    coordinates through `anchors` only.  The factor of (a, y, x) is
    c_{a,y}^-1 c_{a,x}; the transporter of (F_a, F_e, F_x) is
    c_{a,e}^-1 c_{a,x}, so factors do not depend on the last flag e and
    are shared across subtuples, and so is the staged verdict of each
    factor under each sign vector.  A chain's sign vector is read off two
    pair coordinates before its factors are built, so a chain refused by
    a zero superdiagonal builds none: it returns the entry's position in
    place of a verdict, and the engine raises no ZeroSuperdiagonal.  An
    engine lives for one call of a public entry point, over at least 3
    flags of one dimension.
    """

    def __init__(self, flags: list[Flag]):
        n = len(flags)
        if n < 3:
            raise BadParameters(f"tuple positivity needs at least 3 flags, got {n}")
        _require_one_dim(flags)
        self._flags = list(flags)
        self._pairs: dict[tuple[int, int], ColumnScaled] = {}
        self._built = 0
        self._factors: dict[tuple[int, int, int], ColumnScaled] = {}
        self._verdicts: dict[tuple[int, int, int, tuple[int, ...]], PositivityVerdict] = {}

    def anchors(self, last: int | None = None) -> dict[tuple[int, int], ColumnScaled]:
        """The pair coordinates, with every anchor up to `last` (0-based; all
        when None) built, the unbuilt ones now and in order."""
        flags = self._flags
        n = len(flags)
        if last is None:
            last = n - 2
        while self._built <= last:
            a = self._built + 1
            later = [n] + list(range(2, n)) if a == 1 else list(range(a + 1, n + 1))
            coords = _coordinates(
                flags[a - 1]._rows, [flags[b - 1]._rows for b in later], "not transverse"
            )
            try:
                for b in later:
                    self._pairs[(a - 1, b - 1)] = next(coords)
            except NotTransverse:
                raise NotTransverse(f"flags {a} and {b} are not transverse", pair=(a, b)) from None
            self._built = a
        return self._pairs

    def factor(self, a: int, y: int, x: int) -> ColumnScaled:
        """(G, s) with G diag(1/s) = c_{a,y}^-1 c_{a,x}, checked upper unipotent."""
        key = (a, y, x)
        u = self._factors.get(key)
        if u is None:
            pairs = self.anchors(a)
            u = self._factors[key] = _unipotent_quotient(pairs[(a, y)], pairs[(a, x)])
        return u

    def verdict(self, a: int, y: int, x: int, signs: tuple[int, ...]) -> PositivityVerdict:
        """Staged verdict of the factor of (a, y, x) conjugated by diag(signs)."""
        key = (a, y, x, signs)
        v = self._verdicts.get(key)
        if v is None:
            g, s = self.factor(a, y, x)
            v = self._verdicts[key] = _staged_scan(
                _sign_conjugate(g, signs), [1] * len(g), s, DetCounter()
            )
        return v

    def chain(
        self, idx: tuple[int, ...]
    ) -> tuple[PositivityVerdict, tuple[int, ...], tuple, tuple] | int:
        """Verdict, signs, factors (G, s) and factor verdicts for the flags at
        `idx`; u_j is the factor of (idx_1, idx_{j+1}, idx_j), and the signs
        are those of the last factor.  A chain refused by a zero
        superdiagonal entry (i, i+1) returns i, 1-based, instead: the public
        routes raise it as ZeroSuperdiagonal (`_accepted`).

        The signs come first, from the pair coordinates alone, one product
        per superdiagonal entry up to the first zero, so a refusal costs at
        most d - 1 products and builds no factor.
        c_y and c_x are upper unipotent, so the superdiagonal of c_y^-1 c_x
        is c_x's minus c_y's; with c = ū diag(1/δ), entry i is
        (ū_x[i][i+1] δ_y[i+1] - ū_y[i][i+1] δ_x[i+1]) / (δ_x[i+1] δ_y[i+1]).

        Every public route settles pair transversality here, by one rule:
        a Positive chain returns at once; any other outcome, a refusal
        included, first builds every remaining anchor, so a non-transverse
        pair raises NotTransverse before it, at the same pair as if all
        pairs came first.  A positive tuple is pairwise transverse: any two
        of its flags differ by a totally positive unipotent (Fock and
        Goncharov, "Moduli spaces of local systems and higher Teichmüller
        theory", Publ. Math. IHÉS 103, 2006).  In the basis adapted to
        (F_1, F_n), F_i = U_j V E⁻ and F_j = U_j E⁻ with V = u_{j-1} ... u_i,
        so F_i and F_j are transverse exactly when V's minors on rows 1..k
        and columns d-k+1..d are nonzero, k = 1..d-1: nontrivial minors of a
        product of totally positive factors, up to the sign conjugation.  So
        a Positive chain certifies the pairs that it did not read, and the
        pairs (a, j) it reads itself.
        """
        a = idx[0]
        pairs = self.anchors(a)
        (uy, dy), (ux, dx) = pairs[(a, idx[-1])], pairs[(a, idx[-2])]
        signs = _signs(
            (ux[i][i + 1] * dy[i + 1] - uy[i][i + 1] * dx[i + 1]) * dx[i + 1] * dy[i + 1]
            for i in range(len(dx) - 1)
        )
        if type(signs) is int:
            self.anchors()
            return signs
        keys = [(a, y, x) for x, y in zip(idx[1:-1], idx[2:])]
        factors = tuple(self.factor(*key) for key in keys)
        verdicts = tuple(self.verdict(*key, signs) for key in keys)
        verdict = _aggregate(verdicts)
        if not verdict.is_positive:
            self.anchors()
        return verdict, signs, factors, verdicts

    def positive(self, idx: tuple[int, ...]) -> bool:
        """Chain verdict collapsed to a boolean; a refusal means no."""
        result = self.chain(idx)
        return type(result) is not int and result[0].is_positive


def _require_one_dim(flags) -> None:
    if any(f.dim != flags[0].dim for f in flags):
        raise DimensionMismatch("flags in a tuple must share one dimension")


def is_positive_tuple_chain(
    flags: list[Flag],
) -> tuple[PositivityVerdict, TupleCertificate]:
    """Certify a tuple by its full chain factorization.

    Peels the factors u_j = c_{j+1}^{-1} c_j of the cumulative transporters
    c_j = transporter(F_1, F_n, F_j), conjugates all of them by the sign
    normalization derived from u_{n-1}, and runs the staged scan on each.
    The verdict is Positive iff every factor passes; otherwise it carries
    the status and witness of the first failing factor (the witness
    indexes into that factor, see the certificate's verdict list).

    Only the pairs (1, j) are built on the way to a Positive verdict (see
    `_TupleEngine.chain`).  Any other outcome checks every pair first, so
    a non-transverse pair raises NotTransverse, the first in the order
    (1, n), (1, 2), ..., (1, n-1), (2, 3), ..., (n-1, n).
    """
    engine = _TupleEngine(flags)
    n = len(flags)
    verdict, signs, factors, verdicts = _accepted(engine.chain(tuple(range(n))))
    adapted = _adapted(flags[0], flags[-1], engine.anchors(0)[(0, n - 1)])
    factors = tuple(Matrix._of(_fractions(g, s)) for g, s in factors)
    return verdict, TupleCertificate(adapted, Matrix.diagonal(signs), factors, verdicts)


def is_positive_triple(
    f1: Flag, f2: Flag, f3: Flag
) -> tuple[PositivityVerdict, TupleCertificate]:
    """Certify a triple: one transporter, sign-normalized and scanned.

    Transversality of (f1, f3) and (f1, f2) is structurally necessary.
    (f2, f3) is checked only when the verdict is not Positive, since a
    positive triple is pairwise transverse (see `_TupleEngine.chain`); its
    failure is raised as NotTransverse with pair (2, 3) to keep it
    distinguishable.
    """
    return is_positive_tuple_chain([f1, f2, f3])


def is_positive_tuple_quad(flags: list[Flag]) -> PositivityVerdict:
    """Certify a tuple through its ordered 4-element subtuples.

    Equivalent to the chain route but quadratic instead of global: a
    tuple is positive iff every ordered quadruple inside it is.  Returns
    the verdict of the first failing quadruple (lexicographic order) or
    Positive; a triple is its own only subtuple.  A quadruple refused by a
    zero superdiagonal before any failing one raises ZeroSuperdiagonal.
    Pair transversality follows the chain's rule (`_TupleEngine.chain`).
    """
    n = len(flags)
    engine = _TupleEngine(flags)
    return _aggregate(
        _accepted(engine.chain(sub))[0] for sub in combinations(range(n), min(n, 4))
    )


class FlagMapSample(_Value):
    """Finite sample of a circle-to-flags map.

    Points must be pairwise distinct and listed in strict cyclic order
    (some rotation of the list has strictly increasing angles in the
    fixed counterclockwise orientation); each point carries one flag, and
    all flags share one dimension.
    """

    __slots__ = ("points", "flags")

    def _check(self):
        points, flags = self.points, self.flags
        if len(points) != len(flags):
            raise PreconditionViolated(f"{len(points)} points but {len(flags)} flags")
        if len(points) < 3:
            raise PreconditionViolated("a sample needs at least 3 points")
        _require_one_dim(flags)
        if len(set(points)) != len(points):
            raise PreconditionViolated("sample points must be pairwise distinct")
        if not cyclically_ordered(list(points)):
            raise PreconditionViolated("sample points are not in strict cyclic order")

    @classmethod
    def from_records(
        cls, records: list[tuple[tuple[int, int], Matrix]]
    ) -> "FlagMapSample":
        points = tuple(ProjectivePoint(p, q) for (p, q), _ in records)
        flags = tuple(Flag(frame) for _, frame in records)
        return cls(points, flags)


class SampleReport(_Value):
    """Outcome of the sampled propagation check.

    status is "consistent" (a positive triple exists and every ordered
    quadruple is positive), "vacuously consistent, no positive triple",
    or "inconsistent" (a positive triple exists but some quadruple
    fails, recorded in failing_quad).  Indices are 1-based sample
    positions.  triples_scanned counts the triples scanned up to the
    first positive one, or all C(n, 3) when none is; quads_checked counts
    the quadruples the verdict covers: all C(n, 4) when consistent, those
    up to and including the failing one in lexicographic order when
    inconsistent, none when vacuous.
    """

    __slots__ = ("status", "positive_triple", "failing_quad", "triples_scanned", "quads_checked")


def check_sampled_positivity(sample: FlagMapSample) -> SampleReport:
    """Finite-sample consistency check of positivity propagation.

    Scans triples in lexicographic order for one positive triple, and if
    one exists checks that every ordered quadruple of the sample is
    positive.  Every pair is transverse unless NotTransverse is raised,
    with the first failing 1-based pair in the chain route's order.  A
    finite check, not a proof.

    A consistent sample costs one solve and n - 1 pair eliminations (the
    pairs (1, j)), the chain of its first triple, then one chain of n - 2
    factors over the whole sample: the sample is positive exactly when
    all its ordered quadruples are, and a positive sample is pairwise
    transverse (see `_TupleEngine.chain`), so no other pair is built.
    Any other report builds every pair at its first chain that is not
    Positive, n - 1 solves and C(n, 2) eliminations in all.  A triple
    refused by a zero superdiagonal costs at most the d - 1 products of
    its sign reading and raises nothing, so a vacuous sample, every triple
    refused, adds C(n, 3) such readings to its pair work.  Only when the
    whole chain fails are the quadruples scanned in lexicographic order,
    each by its own chain, for the first failing one; finding none raises
    InvariantViolated, since the two routes must agree.
    """
    engine = _TupleEngine(sample.flags)
    n = len(sample.flags)
    positive_triple = None
    triples = 0
    for sub in combinations(range(n), 3):
        triples += 1
        if engine.positive(sub):
            positive_triple = tuple(i + 1 for i in sub)
            break
    if positive_triple is None:
        return SampleReport(
            "vacuously consistent, no positive triple", None, None, triples, 0
        )
    if engine.positive(tuple(range(n))):
        return SampleReport("consistent", positive_triple, None, triples, comb(n, 4))
    quads = 0
    for sub in combinations(range(n), 4):
        quads += 1
        if not engine.positive(sub):
            return SampleReport(
                "inconsistent",
                positive_triple,
                tuple(i + 1 for i in sub),
                triples,
                quads,
            )
    raise InvariantViolated("the whole-sample chain fails but every quadruple is positive")
