import random
import sys
import threading
from fractions import Fraction
from itertools import combinations
from operator import eq, le

import pytest

from posiflag import (
    BadParameters,
    DetCounter,
    InvariantViolated,
    Matrix,
    MinorIndex,
    NotUnipotentUpperTriangular,
    PreconditionViolated,
    Status,
    boundary_corner_check,
    is_upper_unipotent,
    pascal,
    random_tp,
    sign_normalize,
    staged_minor_count,
    tp_oracle,
    tp_staged,
)
from posiflag.linalg import _column_scaled
from posiflag.positivity import (
    _contiguous_minors, _index_plan, _level_table, _plan_level, _staged_scan, bench,
)
from helpers import (
    count_nontrivial,
    gen_boundary,
    gen_nudged_down,
    gen_perturbed,
    gen_uniform,
    naive_minor,
    naive_scan,
    random_tp_by_products,
    reference_laplace_step,
    staged_bareiss_scan,
    staircase_word,
    tuple_table_scan,
)

F = Fraction


def both(m):
    return tp_staged(m), tp_oracle(m)


class TestGuards:
    def test_is_upper_unipotent(self):
        assert is_upper_unipotent(Matrix.identity(3))
        assert is_upper_unipotent(Matrix(((1, 5, -2), (0, 1, 0), (0, 0, 1))))
        assert not is_upper_unipotent(Matrix(((2, 0), (0, 1))))
        assert not is_upper_unipotent(Matrix(((1, 0), (1, 1))))

    def test_rejects_non_unipotent(self):
        bad = Matrix(((1, 0), (1, 1)))
        with pytest.raises(NotUnipotentUpperTriangular):
            tp_staged(bad)
        with pytest.raises(NotUnipotentUpperTriangular):
            tp_oracle(bad)
        with pytest.raises(NotUnipotentUpperTriangular):
            sign_normalize(bad)

    def test_bench_needs_a_sample(self):
        with pytest.raises(BadParameters, match="samples must be at least 1, got 0"):
            bench([3], 0, 1)


class TestKnownVerdicts:
    def test_identity_boundary_witness(self):
        for fn in (tp_staged, tp_oracle):
            v = fn(Matrix.identity(3))
            assert v.status is Status.NONNEGATIVE_BOUNDARY
            assert v.witness.index == MinorIndex((1,), (2,))
            assert v.witness.value == 0
            assert not v.is_positive

    def test_methods_report_their_name(self):
        assert tp_staged(Matrix.identity(2)).method == "staged"
        assert tp_oracle(Matrix.identity(2)).method == "oracle"

    def test_pascal_fully_positive(self):
        for d in range(2, 7):
            for v in both(pascal(d)):
                assert v.status is Status.POSITIVE
                assert v.witness is None
                assert v.is_positive

    def test_single_negative_entry(self):
        m = Matrix(((1, -1, 0), (0, 1, 1), (0, 0, 1)))
        for v in both(m):
            assert v.status is Status.OUTSIDE
            assert v.witness.index == MinorIndex((1,), (2,))
            assert v.witness.value == -1

    def test_outside_witness_is_first_nonpositive_even_if_zero(self):
        # entry (1,2) vanishes before the negative 2x2 minor appears, so
        # the reported witness is the zero, not the negative value
        m = Matrix(((1, 0, 1), (0, 1, 2), (0, 0, 1)))
        for v in both(m):
            assert v.status is Status.OUTSIDE
            assert v.witness.index == MinorIndex((1,), (2,))
            assert v.witness.value == 0

    def test_witness_value_for_negative_2x2(self):
        # all entries positive but the consecutive 2x2 minor is negative
        m = Matrix(((1, 1, 3), (0, 1, 1), (0, 0, 1)))
        for v in both(m):
            assert v.status is Status.OUTSIDE
            assert v.witness.index == MinorIndex((1, 2), (2, 3))
            assert v.witness.value == F(1) * 1 - 3  # = -2


class TestCounts:
    def test_nontrivial_counts(self):
        expected = {3: 13, 4: 41, 5: 131, 6: 428}
        for d, n in expected.items():
            assert count_nontrivial(d) == n

    def test_oracle_visits_every_nontrivial_minor_on_positive_input(self):
        for d in range(3, 7):
            counter = DetCounter()
            v = tp_oracle(pascal(d), counter=counter)
            assert v.status is Status.POSITIVE
            assert counter.evaluations == count_nontrivial(d)

    def test_staged_count_formula(self):
        assert staged_minor_count(3) == 10
        assert staged_minor_count(4) == 20
        assert staged_minor_count(10) == 220
        for d in range(2, 12):
            expected = sum(
                (d - k + 1) * (d - k + 2) // 2 for k in range(1, d + 1)
            )
            assert staged_minor_count(d) == expected

    def test_staged_visits_exactly_consecutive_minors_on_positive_input(self):
        for d in range(3, 8):
            counter = DetCounter()
            v = tp_staged(pascal(d), counter=counter)
            assert v.status is Status.POSITIVE
            assert counter.evaluations == staged_minor_count(d)

    @pytest.mark.parametrize(
        "gen, status",
        [(gen_perturbed, Status.OUTSIDE), (gen_boundary, Status.NONNEGATIVE_BOUNDARY)],
    )
    def test_non_positive_staged_verdict_builds_no_table(self, gen, status):
        # the fallback reads the nontrivial minors of one level up to the
        # witness, never the oracle's table of every nontrivial minor; a
        # zero witness's Neville elimination evaluates no minor
        rng = random.Random(10)
        m = next(m for m in iter(lambda: gen(10, rng), None) if not tp_staged(m).is_positive)
        counter = DetCounter()
        assert tp_staged(m, counter=counter).status is status
        assert counter.evaluations <= 1500 < count_nontrivial(10) // 30

    def test_zero_witness_status_costs_no_minor_beyond_the_witness(self):
        # a zero witness's status comes from Neville elimination, which
        # evaluates no minor, and a level-1 witness is a consecutive minor,
        # so the witness search takes no determinant: the counts are the scan's
        d = 40
        bidiagonal = Matrix([[int(j in (i, i + 1)) for j in range(d)] for i in range(d)])
        counter = DetCounter()
        v = tp_staged(bidiagonal, counter=counter)
        assert v.status is Status.NONNEGATIVE_BOUNDARY
        assert v.witness.index == MinorIndex((1,), (3,)) and v.witness.value == 0
        assert counter.evaluations == 3  # row 1 of level 1 up to column 3
        d = 30
        word = staircase_word(d, [0] + [1] * (d * (d - 1) // 2 - 1))
        counter = DetCounter()
        v = tp_staged(word, counter=counter)
        assert v.status is Status.NONNEGATIVE_BOUNDARY
        assert v.witness.index == MinorIndex((1,), (d,)) and v.witness.value == 0
        assert counter.evaluations == d  # row 1 of level 1

    def test_perturbed_staircase_search_takes_no_determinant(self):
        # minor-scan's perturbed shape, the last word parameter just below
        # zero: every size-k minor before the first non-positive consecutive
        # one has a known sign, so the count is the consecutive scan's alone
        rng = random.Random(37)
        for d in range(4, 11):
            n_params = d * (d - 1) // 2
            for _ in range(3):
                params = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n_params - 1)]
                m = staircase_word(d, params + [-F(1, rng.randint(10, 99))])
                counter = DetCounter()
                assert tp_staged(m, counter=counter).status is Status.OUTSIDE
                assert counter.evaluations == first_non_positive_consecutive(m)

    def test_late_witness_search_skips_minors_of_known_sign(self):
        # late witnesses: these 15 draws took 27,545 evaluations when the
        # search took a determinant for every size-k nontrivial minor
        rng = random.Random(20)
        total = 0
        for _ in range(15):
            m = gen_nudged_down(10, rng)
            counter = DetCounter()
            v = tp_staged(m, counter=counter)
            assert (v.status, v.witness, counter.evaluations) == staged_bareiss_scan(m)
            total += counter.evaluations
        assert total < 27_545 // 2

    def test_early_exit_spends_less(self):
        m = Matrix(((1, -1, 0), (0, 1, 1), (0, 0, 1)))
        counter = DetCounter()
        tp_oracle(m, counter=counter)
        assert counter.evaluations < count_nontrivial(3)


def first_negative_position(m: Matrix) -> int:
    """1-based position of m's first negative nontrivial minor in (size,
    rows, cols) order, each minor by `naive_minor`."""
    d = m.dim
    nontrivial = (
        (rows, cols)
        for k in range(1, d + 1)
        for rows in combinations(range(1, d + 1), k)
        for cols in combinations(range(1, d + 1), k)
        if all(map(le, rows, cols))
    )
    return next(n for n, (rows, cols) in enumerate(nontrivial, 1) if naive_minor(m, rows, cols) < 0)


def first_non_positive_consecutive(m: Matrix) -> int:
    """1-based position of m's first non-positive nontrivial consecutive
    minor in (size, rows, cols) order, each minor by `Matrix.minor`."""
    d = m.dim
    consecutive = (
        MinorIndex(range(a, a + k), range(b, b + k))
        for k in range(1, d + 1)
        for a in range(1, d - k + 2)
        for b in range(a, d - k + 2)
    )
    return next(n for n, index in enumerate(consecutive, 1) if m.minor(index) <= 0)


class TestKnownSigns:
    def test_minors_the_witness_search_skips_are_positive(self):
        # at a failing level k the witness search takes no determinant for a
        # nontrivial minor with some r_i = c_i, nor for a consecutive minor
        # before the witness; each is positive by cofactor expansion, which
        # shares no kernel with the elimination or the condensation
        rng = random.Random(37)
        checked = {"inputs": 0, "diagonal": 0, "consecutive": 0}
        for gen in (gen_perturbed, gen_nudged_down, gen_boundary):
            for d in range(3, 9):
                for _ in range(3):
                    m = gen(d, rng)
                    v = tp_staged(m)
                    if v.is_positive:
                        continue
                    checked["inputs"] += 1
                    witness = v.witness.index
                    k = witness.size
                    for rows in combinations(range(1, d + 1), k):
                        for cols in combinations(range(rows[0], d + 1), k):
                            index = MinorIndex(rows, cols)
                            if not index.nontrivial:
                                continue
                            if any(map(eq, rows, cols)):
                                kind = "diagonal"
                            elif index.consecutive and (rows, cols) < (witness.rows, witness.cols):
                                kind = "consecutive"
                            else:
                                continue
                            assert naive_minor(m, rows, cols) > 0, (d, index)
                            checked[kind] += 1
        assert checked["inputs"] > 25 and checked["consecutive"] > 100, checked


class TestOracleTable:
    def test_matches_tuple_keyed_table(self):
        # the bitmask-keyed table against its tuple-keyed form: same status,
        # witness index and value, and evaluation count
        rng = random.Random(16)
        cases = [gen_uniform(1, rng)] + [
            gen(d, rng)
            for d in range(2, 10)
            for gen in (gen_uniform, gen_perturbed, gen_boundary)
            for _ in range(3 if d < 8 else 2)
        ]
        cases += [gen_nudged_down(d, rng) for d in (8, 9) for _ in range(3)]
        seen = set()
        for m in cases:
            counter = DetCounter()
            v = tp_oracle(m, counter=counter)
            assert (v.status, v.witness, counter.evaluations) == tuple_table_scan(m)
            seen.add(v.status)
        assert seen == set(Status)

    def test_laplace_step_matches_reference(self):
        # each plan level, evaluated on the grid, holds every row set's table
        # in combinations order; each row set's part has the reference's keys
        # in its insertion order and its values: witnesses and Outside counts
        # read that order
        rng = random.Random(20)
        entries = (0, 0, -1, 1, 2, -3, 7)
        for d in range(1, 10):
            plan = _index_plan(d)
            for _ in range(4 if d < 8 else 2):
                grid = [
                    [0] * i + [rng.randint(1, 4)] + [rng.choice(entries) for _ in range(i + 1, d)]
                    for i in range(d)
                ]
                signed = [x for row in grid for x in (*row, *[-x for x in row])]
                prev, ref_terms, ref_prev = [1], {}, {(): {0: 1}}
                for k in range(1, d + 1):
                    level = _plan_level(plan, d, k)
                    starts, keys = level[:2]
                    table = _level_table(level, signed, prev)
                    ref_cur = {}
                    for i, rows in enumerate(combinations(range(d), k)):
                        last = rows[-1]
                        ref = ref_cur[rows] = reference_laplace_step(
                            grid[last], ref_prev[rows[:-1]], last, ref_terms
                        )
                        part = slice(starts[i], starts[i + 1])
                        assert list(zip(keys[part], table[part])) == list(ref.items()), (grid, rows)
                    assert starts[-1] == len(table) == len(keys)
                    prev, ref_prev = table, ref_cur

    def test_plan_is_reused_across_dimensions(self):
        # d = 8, 9, 8 with Outside, boundary and positive inputs in turn: a
        # plan built cold, extended, or reused after the other dimension's
        # calls gives the tuple-keyed table's status, witness and count
        rng = random.Random(33)
        _index_plan.cache_clear()
        seen = set()
        for d in (8, 9, 8):
            for gen in (gen_nudged_down, gen_boundary, None):
                m = gen(d, rng) if gen else random_tp(d, rng.randrange(10**9))
                counter = DetCounter()
                v = tp_oracle(m, counter=counter)
                assert (v.status, v.witness, counter.evaluations) == tuple_table_scan(m), (d, gen)
                seen.add(v.status)
        assert seen == set(Status)
        assert _index_plan.cache_info().currsize == 2

    def test_plan_is_built_lazily_for_two_dimensions(self):
        # a negative entry, then a negative 2 x 2 minor of rows (1, 2) over
        # positive entries: a cold call builds the levels up to its witness's
        # size only, and a Positive call extends them
        for size, (i, j, value) in ((1, (0, 3, -1)), (2, (0, 2, 10**6))):
            rows = [list(r) for r in pascal(10).rows_tuple()]
            rows[i][j] = value
            early = Matrix(rows)
            _index_plan.cache_clear()
            counter = DetCounter()
            v = tp_oracle(early, counter=counter)
            assert (v.status, v.witness.index.size) == (Status.OUTSIDE, size)
            assert (v.status, v.witness, counter.evaluations) == tuple_table_scan(early)
            assert sorted(_index_plan(10)) == list(range(1, size + 1))
        counter = DetCounter()
        v = tp_oracle(pascal(10), counter=counter)
        assert (v.status, v.witness, counter.evaluations) == tuple_table_scan(pascal(10))
        assert sorted(_index_plan(10)) == list(range(1, 11))
        # one call at each d = 3..10 keeps the plans of 9 and 10 alone
        _index_plan.cache_clear()
        for d in range(3, 11):
            tp_oracle(pascal(d))
        assert _index_plan.cache_info()[1:] == (8, 2, 2)  # misses, maxsize, currsize
        tp_oracle(pascal(9))
        assert _index_plan.cache_info().hits == 1

    def test_threads_sharing_a_cold_plan_agree(self):
        # seven threads build one cold d = 8 plan at once, with frequent thread
        # switches; every verdict and count matches the tuple-keyed table
        rng = random.Random(34)
        inputs = [gen(8, rng) for gen in (gen_nudged_down, gen_boundary, gen_perturbed)] * 2
        inputs += [pascal(8)]
        want = [tuple_table_scan(m) for m in inputs]
        for _ in range(3):
            _index_plan.cache_clear()
            got = [None] * len(inputs)

            def run(n):
                counter = DetCounter()
                v = tp_oracle(inputs[n], counter=counter)
                got[n] = (v.status, v.witness, counter.evaluations)

            threads = [threading.Thread(target=run, args=(n,)) for n in range(len(inputs))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert got == want
            assert sorted(_index_plan(8)) == list(range(1, 9))

    def test_outside_count_is_position_of_first_negative_minor(self):
        # the oracle stops at its first negative minor, having counted every
        # nontrivial minor before it in (size, rows, cols) order
        rng = random.Random(17)
        pinned = 0
        for d in range(2, 7):
            for gen in (gen_uniform, gen_perturbed):
                for _ in range(6):
                    m = gen(d, rng)
                    counter = DetCounter()
                    if tp_oracle(m, counter=counter).status is Status.OUTSIDE:
                        assert counter.evaluations == first_negative_position(m)
                        pinned += 1
        assert pinned >= 30, pinned

    def test_boundary_count_is_every_nontrivial_minor(self):
        rng = random.Random(18)
        for d in range(2, 9):
            for _ in range(3):
                counter = DetCounter()
                v = tp_oracle(gen_boundary(d, rng), counter=counter)
                assert v.status is Status.NONNEGATIVE_BOUNDARY
                assert counter.evaluations == count_nontrivial(d)


class TestCondensation:
    def test_zero_divisor_is_an_explicit_error(self):
        # grid[1][1] = 0 is the divisor of the level-3 minor; a scan stops
        # before reaching it, a consumer that runs on is refused
        minors = _contiguous_minors([[1, 1, 1], [0, 0, 1], [0, 0, 1]])
        with pytest.raises(InvariantViolated, match="divisor"):
            list(minors)


class TestMethodAgreement:
    def test_boundary_generator_fails_instead_of_hanging(self, monkeypatch):
        # a staged route that never says boundary ends gen_boundary's
        # redraws with an error naming d, not with a hung test run
        import helpers

        monkeypatch.setattr(helpers, "BOUNDARY_DRAWS", 5)
        monkeypatch.setattr(helpers, "tp_staged", lambda m: tp_staged(pascal(3)))
        with pytest.raises(RuntimeError, match="in 5 draws at d = 4"):
            helpers.gen_boundary(4, random.Random(0))

    def test_against_independent_scan(self):
        rng = random.Random(101)
        for d in (3, 4):
            for _ in range(25):
                m = gen_uniform(d, rng)
                want_status, want_first = naive_scan(m)
                for v in both(m):
                    assert v.status.value == want_status
                    if want_first is None:
                        assert v.witness is None
                    else:
                        rows, cols, val = want_first
                        assert v.witness.index == MinorIndex(rows, cols)
                        assert v.witness.value == val

    def test_staged_equals_oracle_on_random_inputs(self):
        rng = random.Random(55)
        for d in (3, 4, 5):
            for gen in (gen_uniform, gen_perturbed):
                for _ in range(15):
                    m = gen(d, rng)
                    s, o = both(m)
                    assert s.status is o.status
                    assert (s.witness is None) == (o.witness is None)
                    if s.witness is not None:
                        assert s.witness.index == o.witness.index
                        assert s.witness.value == o.witness.value

    def test_zero_witness_verdicts_match_oracle(self):
        # a zero first witness leaves Outside or NonnegativeBoundary open; the
        # staged scan settles it by Neville elimination, the oracle by its
        # table, the reference by the row-initial minors.  Each input is
        # checked row-scaled (`tp_staged`) and column-scaled, the form the
        # tuple engine hands over, with the same counts
        rng = random.Random(15)
        cases = [
            gen(d, rng)
            for d in range(2, 9)
            for gen in (gen_boundary, gen_perturbed, gen_uniform)
            for _ in range(15)
        ]
        for d in range(2, 9):
            n_params = d * (d - 1) // 2
            for _ in range(12):
                params = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n_params)]
                special = rng.choice((0, -F(rng.randint(1, 3), rng.randint(2, 9))))
                params[rng.randrange(n_params)] = special
                cases.append(staircase_word(d, params))
            for _ in range(12):
                cases.append(Matrix([
                    [int(i == j) if j <= i else rng.choice((0, 1, 2)) for j in range(d)]
                    for i in range(d)
                ]))
        # one input per rejection: a zero left neighbour, then opposite signs
        rejected = [
            Matrix(((1, 0, 1), (0, 1, 0), (0, 0, 1))), Matrix(((1, 0, 0), (0, 1, -1), (0, 0, 1)))
        ]
        seen = {Status.OUTSIDE: 0, Status.NONNEGATIVE_BOUNDARY: 0}
        for m in cases + rejected:
            o = tp_oracle(m)
            if o.witness is None or o.witness.value != 0:
                continue
            want = staged_bareiss_scan(m)
            counter = DetCounter()
            s = tp_staged(m, counter=counter)
            assert (s.status, s.witness) == (o.status, o.witness)
            assert (s.status, s.witness, counter.evaluations) == want
            grid, col_scales = _column_scaled(m.rows_tuple())
            counter = DetCounter()
            s = _staged_scan(grid, [1] * m.dim, col_scales, counter)
            assert (s.status, s.witness, counter.evaluations) == want
            seen[o.status] += 1
        for m in rejected:
            o = tp_oracle(m)
            assert o.status is Status.OUTSIDE and o.witness.value == 0, m
        assert seen[Status.OUTSIDE] >= 80 and seen[Status.NONNEGATIVE_BOUNDARY] >= 150, seen

    def test_random_tp_is_positive_and_deterministic(self):
        for d in (3, 4, 5):
            a = random_tp(d, 42)
            b = random_tp(d, 42)
            c = random_tp(d, 43)
            assert a == b
            assert a != c
            assert tp_staged(a).status is Status.POSITIVE

    def test_random_tp_is_the_staircase_product(self):
        for d in range(1, 11):
            for seed in range(10):
                m = random_tp(d, seed)
                assert m == random_tp_by_products(d, seed), (d, seed)
                assert all(type(x) is Fraction for row in m.rows_tuple() for x in row)


class TestBoundaryCorner:
    def test_requires_boundary_input(self):
        with pytest.raises(PreconditionViolated):
            boundary_corner_check(pascal(3))
        m = Matrix(((1, -1, 0), (0, 1, 1), (0, 0, 1)))
        with pytest.raises(PreconditionViolated):
            boundary_corner_check(m)

    def test_identity_report(self):
        report = boundary_corner_check(Matrix.identity(4))
        assert report.level == 1
        assert report.failing_index == MinorIndex((1,), (2,))
        assert report.corner_index == MinorIndex((1,), (4,))
        assert report.corner_value == 0

    def test_corner_vanishes_on_generated_boundary(self):
        rng = random.Random(77)
        for d in (3, 4, 5):
            for _ in range(10):
                m = gen_boundary(d, rng)
                report = boundary_corner_check(m)
                k = report.level
                assert report.failing_index.size == k
                assert report.failing_index.consecutive
                assert report.corner_index == MinorIndex(
                    tuple(range(1, k + 1)), tuple(range(d - k + 1, d + 1))
                )
                assert report.corner_value == 0
                assert m.minor(report.failing_index) == 0
