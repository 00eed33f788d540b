"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion N: PASS ...` line (visible with -s
or on failure); the volumes and tolerances are fixed here and are not
meant to be turned down.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from posiflag import (
    Matrix,
    MoebiusElement,
    Status,
    ZeroSuperdiagonal,
    barbot_flag,
    barbot_matrix,
    barbot_spec,
    boundary_corner_check,
    check_sampled_positivity,
    is_positive_triple,
    is_positive_tuple_chain,
    is_positive_tuple_quad,
    jordan_block_sizes,
    limit_convergence,
    pascal,
    power_positivity_threshold,
    singular_ratio_profile,
    standard_flags,
    sym_power,
    tp_oracle,
    tp_staged,
    transverse,
    unipotent_fixed_flag,
    veronese_flag,
)
from posiflag.positivity import bench
from posiflag.tuples import FlagMapSample
from helpers import (
    distinct_points,
    gen_boundary,
    gen_nonpositive_tuple,
    gen_perturbed,
    gen_positive_tuple,
    gen_uniform,
    random_mild_hyperbolic,
)

F = Fraction

SPECS = ((3, 1), (5, 1), (5, 2), (7, 3))


def test_criterion_01_pascal_total_positivity():
    start = time.perf_counter()
    for d in range(2, 9):
        q = pascal(d)
        assert tp_staged(q).status is Status.POSITIVE
        assert tp_oracle(q).status is Status.POSITIVE
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS pascal d=2..8 Positive under both methods in {elapsed:.2f}s")


def test_criterion_02_oracle_staged_equivalence():
    from posiflag import random_tp

    rng = random.Random(20_002)
    generators = (
        lambda d: random_tp(d, rng.randint(0, 10**9)),
        lambda d: gen_perturbed(d, rng),
        lambda d: gen_uniform(d, rng),
    )
    total = 0
    for d in (3, 4, 5, 6):
        per_d = 0
        while per_d < 500:
            for gen in generators:
                m = gen(d)
                s = tp_staged(m)
                o = tp_oracle(m)
                assert s.status is o.status, f"status split on d={d}: {m!r}"
                if s.witness is None:
                    assert o.witness is None
                else:
                    assert s.witness.index == o.witness.index
                    assert s.witness.value == o.witness.value
                per_d += 1
        total += per_d
    print(f"criterion 2: PASS {total} inputs across 4 dims x 3 generators, zero disagreements")


def test_criterion_03_corner_minor_law():
    rng = random.Random(30_003)
    checked = 0
    while checked < 200:
        for d in (3, 4, 5, 6):
            m = gen_boundary(d, rng)
            report = boundary_corner_check(m)
            assert report.corner_value == 0
            assert report.corner_index.rows == tuple(range(1, report.level + 1))
            assert report.corner_index.cols == tuple(range(d - report.level + 1, d + 1))
            checked += 1
    print(f"criterion 3: PASS corner minor vanished on {checked}/{checked} boundary inputs")


def test_criterion_04_boundary_means_non_transverse():
    rng = random.Random(40_004)
    checked = 0
    while checked < 100:
        for d in (3, 4, 5):
            u = gen_boundary(d, rng)
            _, desc = standard_flags(d)
            g = desc.apply(u)
            assert not transverse(g, desc)
            checked += 1
    print(f"criterion 4: PASS {checked}/{checked} boundary transporters gave non-transverse image pairs")


def test_criterion_05_propagation_harness():
    rng = random.Random(50_005)
    for run in range(100):
        d = 3 + run % 3
        n = 5 + run % 4
        pts = distinct_points(n, rng)
        flags = tuple(veronese_flag(x, d) for x in pts)
        report = check_sampled_positivity(FlagMapSample(tuple(pts), flags))
        assert report.status == "consistent", f"run {run}: {report}"
    for run in range(100):
        d, j = SPECS[run % 4]
        spec = barbot_spec(d, j)
        n = 5 + run % 4
        pts = distinct_points(n, rng)
        flags = tuple(barbot_flag(spec, x) for x in pts)
        report = check_sampled_positivity(FlagMapSample(tuple(pts), flags))
        assert report.status == "vacuously consistent, no positive triple"
        assert report.positive_triple is None
    print("criterion 5: PASS 100/100 consistent Veronese runs, 100/100 triple-free Barbot runs")


def chain_positive(flags) -> bool:
    try:
        verdict, _ = is_positive_tuple_chain(flags)
    except ZeroSuperdiagonal:
        return False
    return verdict.status is Status.POSITIVE


def quad_positive(flags) -> bool:
    try:
        verdict = is_positive_tuple_quad(flags)
    except ZeroSuperdiagonal:
        return False
    return verdict.status is Status.POSITIVE


def test_criterion_06_tuple_invariances():
    rng = random.Random(60_006)
    cases = []
    for i in range(100):
        d = 3 + i % 2
        n = 3 + i % 3
        cases.append((gen_positive_tuple(d, n, rng), True))
    for i in range(100):
        d = 3 + i % 2
        n = 3 + i % 3
        cases.append((gen_nonpositive_tuple(d, n, rng), False))
    for flags, expect in cases:
        d = flags[0].dim
        base = chain_positive(flags)
        assert base == expect
        assert quad_positive(flags) == expect
        for r in range(1, len(flags)):
            assert chain_positive(flags[r:] + flags[:r]) == expect
        assert chain_positive(list(reversed(flags))) == expect
        while True:
            g = Matrix(
                tuple(tuple(F(rng.randint(-4, 4)) for _ in range(d)) for _ in range(d))
            )
            if g.det() != 0:
                break
        assert chain_positive([f.apply(g) for f in flags]) == expect
        if expect:
            for size in range(3, len(flags)):
                for idxs in combinations(range(len(flags)), size):
                    assert chain_positive([flags[i] for i in idxs])
    print("criterion 6: PASS invariances and chain/quad agreement on 100 positive + 100 non-positive tuples")


def test_criterion_07_jordan_types():
    parabolic = MoebiusElement.of(1, 1, 0, 1)
    for d in range(2, 9):
        assert jordan_block_sizes(sym_power(parabolic, d)) == (d,)
    want = {(3, 1): (2, 1), (5, 1): (4, 1), (5, 2): (3, 2),
            (7, 1): (6, 1), (7, 2): (5, 2), (7, 3): (4, 3)}
    for (d, j), sizes in want.items():
        m = barbot_matrix(barbot_spec(d, j), parabolic)
        assert jordan_block_sizes(m) == sizes
    print("criterion 7: PASS single block for the irreducible family d<=8, split blocks {d-j, j} for all six (d,j)")


def test_criterion_08_threshold_worked_example():
    _, desc = standard_flags(3)
    v = Matrix(((1, 5, 0), (0, 1, 0), (0, 0, 1)))
    g = desc.apply(v)
    u = pascal(3)
    assert power_positivity_threshold(u, g) == 11
    fixed = unipotent_fixed_flag(u)
    for t in range(12, 17):
        verdict, _ = is_positive_triple(fixed, g.apply(u.power(t)), g)
        assert verdict.status is Status.POSITIVE
    moved = g.apply(u.power(10))
    assert not transverse(moved, g)
    boundary = v.inverse() @ u.power(10) @ v
    assert tp_staged(boundary).status is Status.NONNEGATIVE_BOUNDARY
    print("criterion 8: PASS threshold 11, persistence t=12..16, boundary + non-transverse flags at t=10")


def test_criterion_09_singular_ratio_formula():
    rng = random.Random(90_009)
    worst = 0.0
    for d, j in SPECS:
        spec = barbot_spec(d, j)
        for _ in range(20):
            g = random_mild_hyperbolic(rng)
            for _, measured, predicted in singular_ratio_profile(spec, g, 5):
                rel = abs(measured - predicted) / predicted
                worst = max(worst, rel)
                assert rel <= 1e-8
    print(f"criterion 9: PASS 20 hyperbolic elements per spec, worst relative deviation {worst:.2e}")


def test_criterion_10_limit_convergence():
    g = MoebiusElement.of(2, 0, 0, F(1, 2))
    finals = {}
    for d, j in SPECS:
        series = limit_convergence(barbot_spec(d, j), g, 50)
        live = [e for e in series if not e.skipped]
        assert live, f"({d},{j}): no resolvable entries"
        assert live[-1].n == 50
        assert live[-1].distance < 1e-6
        finals[(d, j)] = live[-1].distance
    worst = max(finals.values())
    print(f"criterion 10: PASS distance below 1e-6 by n=50 in all four specs (worst {worst:.2e})")


def test_criterion_11_staged_savings_at_d10():
    from posiflag import DetCounter, random_tp

    m = random_tp(10, 111)
    staged_counter = DetCounter()
    assert tp_staged(m, counter=staged_counter).status is Status.POSITIVE
    assert staged_counter.evaluations == 220
    oracle_counter = DetCounter()
    assert tp_oracle(m, counter=oracle_counter).status is Status.POSITIVE
    ratio = oracle_counter.evaluations / staged_counter.evaluations
    assert ratio >= 50
    first = bench([10], 1, 0)
    second = bench([10], 1, 0)
    counts_first = [(r.d, r.method, r.dets) for r in first.rows]
    counts_second = [(r.d, r.method, r.dets) for r in second.rows]
    assert counts_first == counts_second
    assert counts_first == [(10, "staged", 220), (10, "oracle", oracle_counter.evaluations)]
    print(
        "criterion 11: PASS staged spent 220 evaluations vs "
        f"{oracle_counter.evaluations} for the oracle ({ratio:.0f}x), bench counts reproducible"
    )
