"""Differential tests of the memoizing tuple engine.

Every engine result is compared with a recomputation from scratch, one
subtuple at a time, on Veronese, Barbot and deliberately degenerate
families of 4 to 7 flags.  The reference takes the public `adapted_basis`
P of the anchor pair and computes each transporter by its definition,
the reverse column-echelon form of P^-1 G reduced in plain Fractions, so
it shares no code with the engine's flag coordinates.  Those coordinates,
one solve per anchor frame, are also compared with the per-pair route
(one solve per pair, `helpers.per_pair_coordinates`), and each chain's
signs, read off them, with the signs of the factor it would build.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod

import pytest

from posiflag import (
    Flag,
    FlagMapSample,
    Matrix,
    NotTransverse,
    PositivityVerdict,
    SampleReport,
    Status,
    TupleCertificate,
    ZeroSuperdiagonal,
    adapted_basis,
    barbot_flag,
    barbot_spec,
    check_sampled_positivity,
    is_positive_triple,
    is_positive_tuple_chain,
    is_positive_tuple_quad,
    pascal,
    power_positivity_threshold,
    random_tp,
    sign_normalize,
    standard_flags,
    tp_staged,
    transverse,
    unipotent_fixed_flag,
    veronese_flag,
)
from posiflag.flags import _coordinates
from posiflag.linalg import _fractions, _grid_det
from posiflag.tuples import _accepted, _signs, _TupleEngine
from helpers import (
    all_anchors,
    all_pairs_transverse,
    brute_threshold,
    distinct_points,
    hadamard_squared,
    per_pair_coordinates,
    poison_factor,
    reverse_column_echelon,
    tuple_from_factors,
)

# superdiagonal entry (1, 2) vanishes: sign normalization must refuse it
ZERO_SUPER = Matrix(((1, 0, 1), (0, 1, 1), (0, 0, 1)))


# -- uncached reference: every subtuple rebuilt from scratch ----------------


def ref_transverse(flags):
    n = len(flags)
    pairs = [(1, n)] + [(1, j) for j in range(2, n)]
    pairs += [(a, b) for a in range(2, n + 1) for b in range(a + 1, n + 1)]
    for a, b in pairs:
        if not transverse(flags[a - 1], flags[b - 1]):
            raise NotTransverse(f"flags {a} and {b} are not transverse", pair=(a, b))


def ref_chain(flags):
    """(verdict, adapted matrix, sign, factors, verdicts), uncached."""
    n, d = len(flags), flags[0].dim
    ref_transverse(flags)
    p = adapted_basis(flags[0], flags[-1]).matrix
    p_inv = p.inverse()
    cumulative = {n: Matrix.identity(d)}
    for j in range(2, n):
        cumulative[j] = reverse_column_echelon(p_inv @ flags[j - 1].frame)
    factors = tuple(cumulative[j + 1].inverse() @ cumulative[j] for j in range(2, n))
    dmat, _ = sign_normalize(factors[-1])
    verdicts = tuple(tp_staged(dmat @ u @ dmat) for u in factors)
    verdict = next((v for v in verdicts if not v.is_positive), None)
    if verdict is None:
        verdict = PositivityVerdict(Status.POSITIVE, None, "staged")
    return verdict, p, dmat, factors, verdicts


def ref_positive(flags):
    try:
        return ref_chain(flags)[0].is_positive
    except ZeroSuperdiagonal:
        return False


def ref_quad(flags):
    if len(flags) == 3:
        return ref_chain(flags)[0]
    ref_transverse(flags)
    for sub in combinations(range(len(flags)), 4):
        verdict = ref_chain([flags[i] for i in sub])[0]
        if not verdict.is_positive:
            return verdict
    return PositivityVerdict(Status.POSITIVE, None, "staged")


def ref_sampled(flags):
    n = len(flags)
    ref_transverse(flags)
    positive_triple, triples = None, 0
    for sub in combinations(range(n), 3):
        triples += 1
        if ref_positive([flags[i] for i in sub]):
            positive_triple = tuple(i + 1 for i in sub)
            break
    if positive_triple is None:
        return SampleReport("vacuously consistent, no positive triple", None, None, triples, 0)
    quads = 0
    for sub in combinations(range(n), 4):
        quads += 1
        if not ref_positive([flags[i] for i in sub]):
            return SampleReport("inconsistent", positive_triple, tuple(i + 1 for i in sub),
                                triples, quads)
    return SampleReport("consistent", positive_triple, None, triples, quads)


def outcome(fn, *args):
    """A result, or the kind and detail of the exception raised instead."""
    try:
        return fn(*args)
    except NotTransverse as exc:
        return ("NotTransverse", exc.pair, str(exc))
    except ZeroSuperdiagonal as exc:
        return ("ZeroSuperdiagonal", exc.position, str(exc))


def as_raised(result):
    """An engine chain's or `_signs`' result, with a refusal, the 1-based
    position of a zero superdiagonal entry returned in place of a verdict,
    mapped to the outcome of the ZeroSuperdiagonal that the public routes
    raise for it."""
    return outcome(_accepted, result)


# -- families ----------------------------------------------------------------


def families():
    """(name, points, flags) for n = 4..7 on each kind of family."""
    rng = random.Random(2_024)
    out = []
    for n in range(4, 8):
        pts = distinct_points(n, rng)
        out.append((f"veronese d=3 n={n}", pts, [veronese_flag(x, 3) for x in pts]))
        spec = barbot_spec(*((3, 1), (5, 2))[n % 2])
        pts = distinct_points(n, rng)
        out.append((f"barbot n={n}", pts, [barbot_flag(spec, x) for x in pts]))
        # a repeated flag: never transverse to its copy
        pts = distinct_points(n, rng)
        flags = [veronese_flag(x, 3) for x in pts]
        i, j = sorted(rng.sample(range(n), 2))
        flags[j] = flags[i]
        out.append((f"repeated n={n}", pts, flags))
        # a chain tuple with one poisoned factor: positive triples, failing quads
        factors = [random_tp(3, rng.randint(0, 10**9)) for _ in range(n - 2)]
        k = rng.randrange(n - 2)
        factors[k] = poison_factor(factors[k], rng)
        out.append((f"poisoned n={n}", distinct_points(n, rng), tuple_from_factors(3, factors)))
        # a factor with a zero superdiagonal entry
        factors = [random_tp(3, rng.randint(0, 10**9)) for _ in range(n - 2)]
        factors[-1] = ZERO_SUPER
        out.append((f"zero-super n={n}", distinct_points(n, rng), tuple_from_factors(3, factors)))
    return out


FAMILIES = families()
IDS = [name for name, _, _ in FAMILIES]


@pytest.mark.parametrize("name,pts,flags", FAMILIES, ids=IDS)
def test_engine_chain_matches_uncached(name, pts, flags):
    """Building every pair refuses a family exactly as the reference does;
    over a pairwise transverse one, every subtuple's chain matches the
    reference.  Pair numbers relative to a subtuple are covered by the
    public routes below."""
    flags = list(flags)
    refused = outcome(ref_transverse, flags)
    if refused is not None:
        assert outcome(all_anchors, flags) == refused, name
        return
    engine = all_anchors(flags)
    for size in (3, 4, len(flags)):
        for idx in combinations(range(len(flags)), size):
            sub = [flags[i] for i in idx]
            want = outcome(ref_chain, sub)
            got = as_raised(outcome(engine.chain, idx))
            if isinstance(want[0], str):
                assert got == want, (name, idx)
                continue
            verdict, signs, factors, verdicts = got
            factors = tuple(Matrix(_fractions(g, s)) for g, s in factors)
            sign = Matrix.diagonal(signs)
            assert (verdict, sign, factors, verdicts) == (want[0],) + want[2:]
            cert = TupleCertificate(adapted_basis(sub[0], sub[-1]), sign, factors, verdicts)
            assert cert.replays(sub)


@pytest.mark.parametrize("name,pts,flags", FAMILIES, ids=IDS)
def test_public_routes_match_uncached(name, pts, flags):
    flags = list(flags)
    chain = outcome(is_positive_tuple_chain, flags)
    want = outcome(ref_chain, flags)
    if isinstance(want[0], str):
        assert chain == want
    else:
        assert chain[0] == want[0] and chain[1].factors == want[3]
        assert chain[1].replays(flags)
    assert outcome(is_positive_tuple_quad, flags) == outcome(ref_quad, flags)
    sample = FlagMapSample(tuple(pts), tuple(flags))
    assert outcome(check_sampled_positivity, sample) == outcome(ref_sampled, flags)


@pytest.mark.parametrize("name,pts,flags", FAMILIES, ids=IDS)
def test_quad_and_chain_agree(name, pts, flags):
    for size in (4, 5):
        for idx in combinations(range(len(flags)), size):
            sub = [flags[i] for i in idx]
            try:
                chain = is_positive_tuple_chain(sub)[0].is_positive
            except ZeroSuperdiagonal:
                chain = False
            except NotTransverse as exc:
                with pytest.raises(NotTransverse) as info:
                    is_positive_tuple_quad(sub)
                assert info.value.pair == exc.pair
                continue
            try:
                quad = is_positive_tuple_quad(sub).is_positive
            except ZeroSuperdiagonal:
                quad = False
            assert chain == quad, (name, idx)


def test_families_cover_every_outcome():
    seen = set()
    for _, pts, flags in FAMILIES:
        report = outcome(check_sampled_positivity, FlagMapSample(tuple(pts), tuple(flags)))
        seen.add(report[0] if isinstance(report, tuple) else report.status)
        chain = outcome(is_positive_tuple_chain, list(flags))
        if chain[0] == "ZeroSuperdiagonal":
            seen.add("ZeroSuperdiagonal")
    assert seen >= {"consistent", "inconsistent", "vacuously consistent, no positive triple",
                    "NotTransverse", "ZeroSuperdiagonal"}


# -- engine coordinates against the per-pair route ------------------------------


def random_family(d, n, rng, denominators):
    """n flags with random invertible frames, entries in -3..3, or in
    -6/q..6/q for q in 1..4 when `denominators` is set."""
    flags = []
    while len(flags) < n:
        frame = Matrix([
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if denominators
             else rng.randint(-3, 3) for _ in range(d)]
            for _ in range(d)
        ])
        if frame.det() != 0:
            flags.append(Flag(frame))
    return flags


def transverse_family(d, n, rng, denominators):
    while True:
        flags = random_family(d, n, rng, denominators)
        if all_pairs_transverse(flags):
            return flags


@pytest.mark.parametrize("d", range(2, 8))
def test_engine_coordinates_match_per_pair_route(d):
    """One solve per anchor gives every pair the coordinates of its own
    solve: the same integers on integral frames, the same rationals when
    frames have denominators (the joint solve may scale the integers)."""
    rng = random.Random(1_800 + d)
    pts = distinct_points(6, rng)
    integral = [[veronese_flag(x, d) for x in pts], transverse_family(d, 5, rng, False)]
    if d % 2:
        spec = barbot_spec(d, d // 2)
        integral.append([barbot_flag(spec, x) for x in pts])
    rational = [transverse_family(d, 5, rng, True) for _ in range(2)]
    for flags in integral + rational:
        pairs = all_anchors(flags).anchors()
        assert len(pairs) == comb(len(flags), 2)
        for (a, b), got in pairs.items():
            want = per_pair_coordinates(flags[a], flags[b], "flags are not transverse")
            if flags in integral:
                assert got == want, (a, b)
            else:
                assert _fractions(*got) == _fractions(*want), (a, b)


def mixed_det(f, h, k):
    """det[F_(d-k) | H_k]: the first d - k frame columns of f beside the
    first k of h, the grids `transverse` stacks, and det H at k = d."""
    cols = [f.column(m) for m in range(1, f.dim - k + 1)] + [h.column(m) for m in range(1, k + 1)]
    return _grid_det(cols)


def row_scaling(f, h):
    """det T for the row scaling T of the solve of h against f: each row
    joined over the lcm of the two frames' row scales."""
    return prod(lcm(s, t) for (_, s), (_, t) in zip(f._rows, h._rows))


@pytest.mark.parametrize("d", range(1, 8))
def test_pair_pivots_are_the_mixed_determinants(d):
    """A pair's pivots are the determinants `transverse` takes, scaled by
    the solve's row scaling T: |δ_(d+1-k)| = |det T det[F_(d-k) | H_k]|
    for k = 1..d, with T = I on integral frames.  Checked by each pair's
    own solve on random integral and rational frames, each set with one
    pair that shares a line (a refused pair must have a zero mixed
    determinant), and in the anchors' joint solves of integral random,
    Veronese and Barbot families.  Started from 1, the elimination would
    give these times D^(k-1), D the solve's determinant."""
    rng = random.Random(3_800 + d)
    ks = range(1, d + 1)
    refused = 0
    for pair in ((0, 2), (0, 3)):
        # integral frames, then rational ones; flags 1 and 3 or 4 share a line
        if d > 1:
            flags = shared_family(d, 8, rng, [pair])
        else:
            flags = random_family(d, 8, rng, denominators=pair[1] == 3)
        for f, h in combinations(flags, 2):
            try:
                _, delta = next(_coordinates(f._rows, (h._rows,), "not transverse"))
            except NotTransverse:
                refused += 1
                assert not all(mixed_det(f, h, k) for k in ks)
                continue
            scale = row_scaling(f, h)
            assert [abs(delta[d - k]) for k in ks] == [abs(scale * mixed_det(f, h, k)) for k in ks]
    families = [transverse_family(d, 5, rng, False)]
    if d > 1:
        pts = distinct_points(6, rng)
        families.append([veronese_flag(x, d) for x in pts])
        if d % 2:
            spec = barbot_spec(d, d // 2)
            families.append([barbot_flag(spec, x) for x in pts])
    for flags in families:
        for (a, b), (_, delta) in all_anchors(flags).anchors().items():
            f, h = flags[a], flags[b]
            assert [abs(delta[d - k]) for k in ks] == [abs(mixed_det(f, h, k)) for k in ks]
    assert refused >= 2 * (d > 1)


@pytest.mark.parametrize("kind,shape", [("barbot", (7, 3)), ("veronese", 5)])
def test_pair_coordinates_stay_within_hadamard_bound(kind, shape):
    """Work pin on integer size, on samples shaped like the map sweep's
    largest (n = 5): every entry of a pair's ū and δ is, up to sign, a
    d x d determinant of columns of the two integral frames, so it is at
    most Hadamard's bound on their d longest columns, and no entry takes
    more than 64 bits.  Started from 1 instead of the solve's determinant
    D, the eliminations carried D^(k-1) into these entries: up to 363 and
    284 bits, against 52 and 57 now and Hadamard bounds of 58 and 61."""
    pts = distinct_points(5, random.Random(0))
    if kind == "barbot":
        spec = barbot_spec(*shape)
        flags = [barbot_flag(spec, x) for x in pts]
    else:
        flags = [veronese_flag(x, shape) for x in pts]
    frames = [[r for r, s in flag._rows if s == 1] for flag in flags]
    d = flags[0].dim
    assert all(len(rows) == d for rows in frames)
    largest = 0
    for (a, b), (ubar, delta) in all_anchors(flags).anchors().items():
        bound = hadamard_squared(d, frames[a], frames[b])
        for x in [x for row in ubar for x in row] + delta:
            assert x * x <= bound, (a, b)
            largest = max(largest, abs(x).bit_length())
    assert largest <= 64


def shared_family(d, n, rng, pairs):
    """n random flags, where for each (i, j) in `pairs` flag j takes flag
    i's first k columns, so that the two share a line; frames with
    denominators when the first pair's indices sum to an odd number."""
    while True:
        flags = random_family(d, n, rng, denominators=sum(pairs[0]) % 2 == 1)
        for i, j in pairs:
            k = rng.randint(1, d - 1)
            frame = Matrix([ri[:k] + rj[k:] for ri, rj in
                            zip(flags[i].frame.rows_tuple(), flags[j].frame.rows_tuple())])
            if frame.det() == 0:
                break
            flags[j] = Flag(frame)
        else:
            return flags


@pytest.mark.parametrize("d", range(2, 8))
def test_engine_refuses_at_the_reference_pair(d):
    """With exactly one non-transverse pair, at each position in turn,
    building every pair raises NotTransverse with that pair and the reference message;
    with two or more, at the first pair in the reference order."""
    rng = random.Random(1_900 + d)
    n = 5
    positions = list(combinations(range(n), 2))
    for i, j in positions:
        while True:
            flags = shared_family(d, n, rng, [(i, j)])
            failing = [(p, q) for p, q in positions if not transverse(flags[p], flags[q])]
            if failing == [(i, j)]:
                break
        want = ("NotTransverse", (i + 1, j + 1), f"flags {i + 1} and {j + 1} are not transverse")
        assert outcome(ref_transverse, flags) == want
        assert outcome(all_anchors, flags) == want
    for first, second in combinations(positions, 2):
        flags = shared_family(d, n, rng, [first, second])
        want = outcome(ref_transverse, flags)
        assert want[0] == "NotTransverse"
        assert outcome(all_anchors, flags) == want, (first, second)


def test_public_routes_refuse_a_late_pair_before_any_verdict():
    """A Positive outcome stands for the pairs no chain read; any other
    outcome checks them first.  With one non-transverse pair, at each
    anchor from 2 on, d = 2..5, the anchor-1 whole chain, read from an
    engine that never builds past the anchor it is asked for, is refused
    (Outside, NonnegativeBoundary or ZeroSuperdiagonal, each reached),
    and the chain, quad and sampled routes raise the reference pair and
    message; the triple of flag 1 and the pair raises (2, 3)."""
    n = 5
    positions = list(combinations(range(n), 2))
    seen = set()
    for d, (i, j) in ((d, pair) for d in range(2, 6) for pair in positions[n - 1:]):
        rng = random.Random(2_300 + 10 * d + i + j)
        while True:
            flags = shared_family(d, n, rng, [(i, j)])
            failing = [(p, q) for p, q in positions if not transverse(flags[p], flags[q])]
            if failing == [(i, j)]:
                break
        want = ("NotTransverse", (i + 1, j + 1), f"flags {i + 1} and {j + 1} are not transverse")
        assert outcome(ref_transverse, flags) == want
        raw = _TupleEngine(flags)
        raw.anchors = lambda last=None, build=raw.anchors: build(0 if last is None else last)
        whole = as_raised(outcome(raw.chain, tuple(range(n))))
        seen.add(whole[0] if isinstance(whole[0], str) else whole[0].status)
        assert outcome(is_positive_tuple_chain, flags) == want, (d, i, j)
        assert outcome(is_positive_tuple_quad, flags) == want, (d, i, j)
        sample = FlagMapSample(tuple(distinct_points(n, rng)), tuple(flags))
        assert outcome(check_sampled_positivity, sample) == want, (d, i, j)
        triple = outcome(is_positive_triple, flags[0], flags[i], flags[j])
        assert triple == ("NotTransverse", (2, 3), "flags 2 and 3 are not transverse"), (d, i, j)
    assert seen == {"ZeroSuperdiagonal", Status.OUTSIDE, Status.NONNEGATIVE_BOUNDARY}


def map_sweep_samples():
    """(name, points, flags) on the Veronese shapes (d, n) of the map sweep."""
    rng = random.Random(5_151)
    out = []
    for d, n in ((3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 5)):
        pts = distinct_points(n, rng)
        out.append((f"veronese d={d} n={n}", pts, [veronese_flag(x, d) for x in pts]))
    return out


def test_positive_outcomes_are_pairwise_transverse():
    """The theorem behind the Positive shortcut, checked by the determinant
    test `transverse` and not by the engine's eliminations: every subtuple
    of three or more flags that the chain route calls Positive, and every
    sample that the sampled check calls consistent, is pairwise transverse."""
    positives = consistent = 0
    for name, pts, flags in FAMILIES + sampled_corpus() + map_sweep_samples():
        n = len(flags)
        transverse_pairs = {(a, b) for a, b in combinations(range(n), 2)
                            if transverse(flags[a], flags[b])}
        for size in range(3, n + 1):
            for idx in combinations(range(n), size):
                chain = outcome(is_positive_tuple_chain, [flags[i] for i in idx])
                if not isinstance(chain[0], str) and chain[0].is_positive:
                    positives += 1
                    assert set(combinations(idx, 2)) <= transverse_pairs, (name, idx)
        report = outcome(check_sampled_positivity, FlagMapSample(tuple(pts), tuple(flags)))
        if isinstance(report, SampleReport) and report.status == "consistent":
            consistent += 1
            assert len(transverse_pairs) == comb(n, 2), name
    assert positives > 0 and consistent > 0


# -- chain signs from the pair coordinates ------------------------------------


def sign_family(d, n, rng):
    """n pairwise transverse flags with frames in {-1, 0, 1}."""
    while True:
        flags = []
        while len(flags) < n:
            frame = Matrix([[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)])
            if frame.det() != 0:
                flags.append(Flag(frame))
        if all_pairs_transverse(flags):
            return flags


def sign_rule_families():
    rng = random.Random(2_222)
    out = []
    for n in (4, 5):
        pts = distinct_points(n, rng)
        out += [(f"veronese d={d}", [veronese_flag(x, d) for x in pts]) for d in (2, 3, 4, 5)]
        out += [(f"barbot {spec}", [barbot_flag(barbot_spec(*spec), x) for x in pts])
                for spec in ((3, 1), (5, 1), (5, 2), (7, 3))]
        for d in (2, 3, 4):
            out.append((f"integer d={d}", transverse_family(d, n, rng, False)))
            out.append((f"rational d={d}", transverse_family(d, n, rng, True)))
        # in d = 2 only four lines have entries in {-1, 0, 1}
        out += [(f"sign d={d}", sign_family(d, n, rng)) for d in (3, 4)]
    return out


def test_chain_signs_match_the_built_factor():
    """A chain reads its signs off the pair coordinates of its last factor
    before building any factor.  On every triple (a, x, y) of each family
    they equal `_signs` of the built factor c_(a,y)^-1 c_(a,x)'s
    superdiagonal, and where that has a zero, the ZeroSuperdiagonal
    message and position are the same."""
    seen = set()
    for name, flags in sign_rule_families():
        engine = all_anchors(flags)
        for a, x, y in combinations(range(len(flags)), 3):
            g, _ = engine.factor(a, y, x)
            want = as_raised(_signs([g[i][i + 1] for i in range(len(g) - 1)]))
            got = as_raised(outcome(engine.chain, (a, x, y)))
            if not isinstance(got[0], str):
                got = got[1]
            assert got == want, (name, a, x, y)
            seen.add((name.split()[0], want[1] if isinstance(want[0], str) else None))
    assert seen >= {("veronese", None), ("integer", None), ("sign", None), ("rational", None),
                    ("barbot", 1), ("barbot", 2), ("sign", 1), ("sign", 2), ("sign", 3)}


def test_barbot_sample_builds_no_factor(monkeypatch):
    """Work-count guard: every triple of a Barbot (3, 1) sample has a zero
    superdiagonal, which the pair coordinates show, so the sampled check
    scans all C(n, 3) triples without one quotient."""
    import posiflag.flags as flags_module

    def refuse(*args):
        raise AssertionError("no chain factor may be built")

    monkeypatch.setattr(flags_module, "_quotient", refuse)
    n = 6
    pts = distinct_points(n, random.Random(22))
    spec = barbot_spec(3, 1)
    sample = FlagMapSample(tuple(pts), tuple(barbot_flag(spec, x) for x in pts))
    report = check_sampled_positivity(sample)
    assert report == SampleReport(
        "vacuously consistent, no positive triple", None, None, comb(n, 3), 0
    )


@pytest.mark.parametrize("shape,n", [((3, 1), 8), ((5, 2), 6)])
def test_vacuous_sample_raises_no_refusal(monkeypatch, shape, n):
    """Work-count guard: a refused triple is a value inside the engine, not
    an exception.  On a vacuous Barbot sample the sampled check scans all
    C(n, 3) triples and constructs no ZeroSuperdiagonal; over the same
    flags the chain and quad routes still raise one each, with the
    uncached reference's position and its fixed message."""
    pts = distinct_points(n, random.Random(22))
    spec = barbot_spec(*shape)
    flags = [barbot_flag(spec, x) for x in pts]
    want_chain, want_quad = outcome(ref_chain, flags), outcome(ref_quad, flags)
    for kind, position, message in (want_chain, want_quad):
        assert (kind, message) == ("ZeroSuperdiagonal", f"superdiagonal entry ({position},"
                                   f"{position + 1}) is zero; no sign conjugation can make it positive")
    made = []
    real_init = ZeroSuperdiagonal.__init__

    def counted_init(self, message, position):
        made.append(position)
        real_init(self, message, position)

    monkeypatch.setattr(ZeroSuperdiagonal, "__init__", counted_init)
    report = check_sampled_positivity(FlagMapSample(tuple(pts), tuple(flags)))
    assert report == SampleReport(
        "vacuously consistent, no positive triple", None, None, comb(n, 3), 0
    )
    assert made == []
    assert outcome(is_positive_tuple_chain, flags) == want_chain
    assert outcome(is_positive_tuple_quad, flags) == want_quad
    assert made == [want_chain[1], want_quad[1]]


@pytest.mark.parametrize("d,a", [(2, 1), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_threshold_matches_brute_force_scan(d, a):
    _, desc = standard_flags(d)
    g = desc.apply(Matrix.elementary(d, 1, 2, a))
    want = brute_threshold(pascal(d), g, 40)
    assert want is not None
    assert power_positivity_threshold(pascal(d), g) == want


def test_threshold_matches_brute_force_on_random_flags():
    rng = random.Random(77)
    checked = 0
    while checked < 6:
        d = rng.choice((3, 4))
        frame = Matrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        if frame.det() == 0:
            continue
        g = Flag(frame)
        if not transverse(unipotent_fixed_flag(pascal(d)), g):
            continue
        want = brute_threshold(pascal(d), g, 60)
        if want is None:
            continue
        assert power_positivity_threshold(pascal(d), g, cap=60) == want
        checked += 1


def count_pair_work(monkeypatch):
    """Lists that record, from now on, the right-hand columns of each
    solve of the pair coordinates and the rows of each of their forward
    eliminations (the solves run linalg's own)."""
    import posiflag.flags as flags_module

    solves, eliminations = [], []
    real_solve, real_bareiss = flags_module._scaled_solve, flags_module._bareiss

    def counted_solve(a, bs):
        solves.append(sum(len(b[0][0]) for b in bs))
        return real_solve(a, bs)

    def counted_bareiss(a, swaps=True, p0=1):
        eliminations.append(len(a))
        return real_bareiss(a, swaps, p0)

    monkeypatch.setattr(flags_module, "_scaled_solve", counted_solve)
    monkeypatch.setattr(flags_module, "_bareiss", counted_bareiss)
    return solves, eliminations


def test_sampled_check_reads_transversality_from_pair_coordinates(monkeypatch):
    """Work-count guard: a Veronese d = 4, n = 6 sample is checked without
    the determinant test `transverse`, with one solve, of anchor 1's frame
    against the n - 1 others, and one forward elimination of d rows per
    pair (1, j); after the positive triple (1, 2, 3), one chain over the
    whole sample: n - 2 factors, one staged scan per (factor, sign), the
    triple's factor shared, and no Fraction built on the way.  The chain
    is positive, so the sample is pairwise transverse and no other pair
    is built."""
    import posiflag
    import posiflag.flags as flags_module
    import posiflag.linalg as linalg_module
    import posiflag.positivity as positivity_module
    import posiflag.tuples as tuples_module

    def refuse(*args):
        raise AssertionError("transverse must not be called")

    for module in (posiflag, flags_module):
        monkeypatch.setattr(module, "transverse", refuse)
    solves, eliminations = count_pair_work(monkeypatch)
    quotients, scans, ratios = [], [], []
    real_quotient = flags_module._quotient
    real_scan, real_ratio = tuples_module._staged_scan, linalg_module._ratio

    def counted_quotient(*args):
        quotients.append(args)
        return real_quotient(*args)

    def counted_scan(grid, row_scales, col_scales, counter):
        scans.append((tuple(map(tuple, grid)), tuple(row_scales), tuple(col_scales)))
        return real_scan(grid, row_scales, col_scales, counter)

    def counted_ratio(n, d):
        ratios.append((n, d))
        return real_ratio(n, d)

    monkeypatch.setattr(flags_module, "_quotient", counted_quotient)
    monkeypatch.setattr(tuples_module, "_staged_scan", counted_scan)
    n, d = 6, 4
    pts = distinct_points(n, random.Random(6))
    sample = FlagMapSample(tuple(pts), tuple(veronese_flag(x, d) for x in pts))
    for module in (linalg_module, positivity_module):
        monkeypatch.setattr(module, "_ratio", counted_ratio)
    report = check_sampled_positivity(sample)
    assert report == SampleReport("consistent", (1, 2, 3), None, 1, comb(n, 4))
    assert solves == [d * (n - 1)]
    assert eliminations == [d] * (n - 1)
    assert len(quotients) == n - 2
    assert (len(scans), len(set(scans))) == (4, 4)  # one per (factor, sign) reached
    assert ratios == []


def test_vacuous_sample_builds_every_pair(monkeypatch):
    """Work-count guard: a Barbot (3, 1) sample, n = 6, is vacuous, and a
    vacuous report stands on every pair: each anchor a (1-based) solves
    against its n - a later frames at once, n - 1 solves and C(n, 2)
    eliminations in all, every anchor built at the first refused triple."""
    solves, eliminations = count_pair_work(monkeypatch)
    n, d = 6, 3
    pts = distinct_points(n, random.Random(22))
    spec = barbot_spec(d, 1)
    sample = FlagMapSample(tuple(pts), tuple(barbot_flag(spec, x) for x in pts))
    assert check_sampled_positivity(sample).status == "vacuously consistent, no positive triple"
    assert solves == [d * (n - a) for a in range(1, n)]
    assert eliminations == [d] * comb(n, 2)


def test_positive_chain_builds_only_the_first_anchor(monkeypatch):
    """Work-count guard: the chain route certifies a positive Veronese
    d = 4, n = 6 tuple from the pairs (1, j) alone, one solve and n - 1
    eliminations; an Outside verdict on the same flags, the second and
    third swapped so that the tuple is no longer cyclically ordered,
    builds every pair."""
    solves, eliminations = count_pair_work(monkeypatch)
    n, d = 6, 4
    flags = [veronese_flag(x, d) for x in distinct_points(n, random.Random(6))]
    assert is_positive_tuple_chain(flags)[0].is_positive
    assert (solves, eliminations) == ([d * (n - 1)], [d] * (n - 1))
    del solves[:], eliminations[:]
    flags[1:3] = flags[2:0:-1]
    assert is_positive_tuple_chain(flags)[0].status is Status.OUTSIDE
    assert (solves, eliminations) == ([d * (n - a) for a in range(1, n)], [d] * comb(n, 2))


def test_each_route_builds_the_pairs_its_outcome_needs(monkeypatch):
    """Work-count guard over `families()`, `sampled_corpus()` and the map
    sweep's Veronese shapes: a Positive chain route builds anchor 1 alone,
    one solve and n - 1 eliminations; a Positive quad route anchors 1 to
    n - 3, the anchors of its quadruples; a consistent sampled check
    anchor 1 alone, after the one triple (1, 2, 3); and every other
    outcome that raises no NotTransverse builds every anchor, n - 1
    solves and C(n, 2) eliminations."""
    solves, eliminations = count_pair_work(monkeypatch)
    seen = set()
    for name, pts, flags in FAMILIES + sampled_corpus() + map_sweep_samples():
        n, d = len(flags), flags[0].dim
        routes = {
            "chain": lambda: is_positive_tuple_chain(flags)[0],
            "quad": lambda: is_positive_tuple_quad(flags),
            "sampled": lambda: check_sampled_positivity(FlagMapSample(tuple(pts), tuple(flags))),
        }
        for route, run in routes.items():
            del solves[:], eliminations[:]
            got = outcome(run)
            if isinstance(got, tuple) and got[0] == "NotTransverse":
                continue
            if isinstance(got, SampleReport):
                positive = got.status == "consistent"
                if positive:
                    assert (got.positive_triple, got.triples_scanned) == ((1, 2, 3), 1), name
            else:
                positive = isinstance(got, PositivityVerdict) and got.is_positive
            anchors = (n - 3 if route == "quad" else 1) if positive else n - 1
            assert solves == [d * (n - a) for a in range(1, anchors + 1)], (name, route)
            assert eliminations == [d] * sum(n - a for a in range(1, anchors + 1)), (name, route)
            seen.add((route, positive))
    assert seen == {(route, positive) for route in ("chain", "quad", "sampled")
                    for positive in (True, False)}


def test_quad_route_runs_one_chain_per_quadruple(monkeypatch):
    """Work-count guard: the quad route stays quadruple by quadruple, one
    chain each, on the Veronese d = 4, n = 6 sample that the sampled check
    decides by one whole-sample chain, so that comparing the two routes
    compares two computations."""
    calls = []
    real_chain = _TupleEngine.chain

    def counted_chain(self, idx):
        calls.append(idx)
        return real_chain(self, idx)

    monkeypatch.setattr(_TupleEngine, "chain", counted_chain)
    n, d = 6, 4
    pts = distinct_points(n, random.Random(6))
    assert is_positive_tuple_quad([veronese_flag(x, d) for x in pts]).is_positive
    assert calls == list(combinations(range(n), 4))  # C(6, 4) = 15 chains


def sampled_corpus():
    """(name, points, flags) for n = 4..7: Veronese d = 2..5, four Barbot
    shapes, chain tuples of `random_tp` factors with 0, 1 or 2 of them
    poisoned, and chain tuples whose last factor has a zero superdiagonal."""
    rng = random.Random(2_626)
    out = []
    for n in range(4, 8):
        for d in range(2, 6):
            pts = distinct_points(n, rng)
            out.append((f"veronese d={d} n={n}", pts, [veronese_flag(x, d) for x in pts]))
        for shape in ((3, 1), (5, 1), (5, 2), (7, 3)):
            spec = barbot_spec(*shape)
            pts = distinct_points(n, rng)
            out.append((f"barbot {shape} n={n}", pts, [barbot_flag(spec, x) for x in pts]))
        for poisoned in range(3):
            factors = [random_tp(3, rng.randint(0, 10**9)) for _ in range(n - 2)]
            for k in rng.sample(range(n - 2), poisoned):
                factors[k] = poison_factor(factors[k], rng)
            out.append((f"poisoned {poisoned} n={n}", distinct_points(n, rng),
                        tuple_from_factors(3, factors)))
        factors = [random_tp(3, rng.randint(0, 10**9)) for _ in range(n - 3)] + [ZERO_SUPER]
        out.append((f"zero-super n={n}", distinct_points(n, rng), tuple_from_factors(3, factors)))
    return out


def test_sampled_check_matches_uncached_reference():
    """The whole-sample chain with its quadruple scan gives the report of
    the uncached quad-by-quad reference on every sample of the corpus, and
    the corpus reaches each way the check can end: consistent, inconsistent
    after a whole chain with a failing factor, inconsistent after a whole
    chain refused by a zero superdiagonal, and vacuous."""
    seen = set()
    for name, pts, flags in sampled_corpus():
        report = outcome(check_sampled_positivity, FlagMapSample(tuple(pts), tuple(flags)))
        assert report == outcome(ref_sampled, flags), name
        status = report[0] if isinstance(report, tuple) else report.status
        if status == "inconsistent":
            whole = as_raised(outcome(_TupleEngine(list(flags)).chain, tuple(range(len(flags)))))
            status += " after ZeroSuperdiagonal" if whole[0] == "ZeroSuperdiagonal" else ""
        seen.add(status)
    assert seen >= {"consistent", "inconsistent", "inconsistent after ZeroSuperdiagonal",
                    "vacuously consistent, no positive triple"}


# the sampled check with its whole-sample chain forced to say "not positive"
DISAGREEING_CHAIN = """
import posiflag.tuples as t
from posiflag import FlagMapSample, InvariantViolated, check_sampled_positivity, veronese_flag
from posiflag.reps import ProjectivePoint

real = t._TupleEngine.positive
t._TupleEngine.positive = lambda self, idx: len(idx) < 6 and real(self, idx)
pts = [ProjectivePoint(p, q) for p, q in ((1, 0), (9, 1), (3, 2), (6, 5), (-1, 7), (-5, 9))]
sample = FlagMapSample(tuple(pts), tuple(veronese_flag(x, 4) for x in pts))
try:
    print(check_sampled_positivity(sample))
except InvariantViolated as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "optimized"])
def test_disagreeing_whole_chain_raises(optimize):
    """A whole-sample chain that fails where every quadruple passes is a
    defect, not a verdict: with the chain forced non-positive on a
    consistent Veronese d = 4, n = 6 sample, the check raises
    InvariantViolated instead of reporting, also under `python -O`."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import posiflag

    # the child imports the same posiflag as this process
    env = {**os.environ, "PYTHONPATH": str(Path(posiflag.__file__).parents[1])}
    out = subprocess.run([sys.executable, *optimize, "-c", DISAGREEING_CHAIN],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "raised: the whole-sample chain fails but every quadruple is positive\n"
