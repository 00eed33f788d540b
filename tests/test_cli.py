import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import posiflag
import posiflag.cli as cli_module
import posiflag.errors as errors_module
from posiflag import (
    CapExceeded, InvariantViolated, Matrix, NotTransverse, ParseError, PosiflagError,
    SingularGapTooSmall, ZeroSuperdiagonal, barbot_matrix, barbot_spec, pascal, standard_flags,
)
from posiflag.cli import main
from posiflag.fileio import (
    format_frames,
    format_matrix,
    format_points,
    format_sample,
    parse_frames,
    parse_matrix,
)
from helpers import CliRunner

F = Fraction


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    """Common input files, written lazily by name."""

    def write(name: str, content: str) -> str:
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def run_cli_process(code: str) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter that imports this posiflag."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), check=True)


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(Path(posiflag.__file__).parents[1])}


def desc_frame(d: int) -> Matrix:
    return Matrix.reversal(d)


def triple_file(files) -> str:
    asc_f = Matrix.identity(3)
    mid = pascal(3) @ Matrix.reversal(3)
    return files("triple.flags", format_frames([asc_f, mid, desc_frame(3)]))


class TestTpCheck:
    def test_positive_exit_zero(self, runner, files):
        path = files("p.mat", format_matrix(pascal(4)))
        result = runner.invoke(main, ["tp-check", "--input", path])
        assert result.exit_code == 0
        assert result.output == "staged: Positive\n"

    def test_boundary_witness_line(self, runner, files):
        path = files("id.mat", format_matrix(Matrix.identity(3)))
        result = runner.invoke(
            main, ["tp-check", "--input", path, "--emit", "witness"]
        )
        assert result.exit_code == 1
        assert result.output == "staged: NonnegativeBoundary\nwitness: 1;(1);(2);0\n"

    def test_both_methods_order(self, runner, files):
        path = files("p.mat", format_matrix(pascal(3)))
        result = runner.invoke(main, ["tp-check", "--input", path, "--method", "both"])
        assert result.exit_code == 0
        assert result.output == "staged: Positive\noracle: Positive\n"

    def test_machine_format(self, runner, files):
        path = files("out.mat", format_matrix(Matrix(((1, -2), (0, 1)))))
        result = runner.invoke(
            main,
            ["tp-check", "--input", path, "--method", "both", "--emit", "witness",
             "--format", "machine"],
        )
        assert result.exit_code == 1
        assert result.output == (
            "record=tp-check method=staged status=Outside witness=1;(1);(2);-2\n"
            "record=tp-check method=oracle status=Outside witness=1;(1);(2);-2\n"
        )

    def test_parse_error_exit_two(self, runner, files):
        path = files("bad.mat", "dim x entries")
        result = runner.invoke(main, ["tp-check", "--input", path])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_zero_denominator_exit_two(self, runner, files):
        path = files("zero.mat", "dim 2\nentries\n1 1/0\n0 1\n")
        result = runner.invoke(main, ["tp-check", "--input", path])
        assert result.exit_code == 2
        assert "zero denominator" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_precondition_exit_three(self, runner, files):
        path = files("low.mat", format_matrix(Matrix(((1, 0), (1, 1)))))
        result = runner.invoke(main, ["tp-check", "--input", path])
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_missing_file_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, ["tp-check", "--input", str(tmp_path / "nope")])
        assert result.exit_code == 2

    def test_unknown_option_exit_two(self, runner):
        result = runner.invoke(main, ["tp-check", "--frobnicate"])
        assert result.exit_code == 2


class TestTupleCheck:
    def test_positive_triple(self, runner, files):
        result = runner.invoke(main, ["tuple-check", "--flags", triple_file(files)])
        assert result.exit_code == 0
        assert result.output == "chain: Positive\n"

    def test_both_methods(self, runner, files):
        result = runner.invoke(
            main, ["tuple-check", "--flags", triple_file(files), "--method", "both"]
        )
        assert result.exit_code == 0
        assert result.output == "chain: Positive\nquad: Positive\n"

    def test_machine_reports_factor_count(self, runner, files):
        result = runner.invoke(
            main,
            ["tuple-check", "--flags", triple_file(files), "--format", "machine"],
        )
        assert result.output == "record=tuple-check method=chain status=Positive factors=1\n"

    def test_zero_superdiagonal_is_negative_verdict(self, runner, files):
        # flags of the split block family: the factor has a vanishing
        # superdiagonal entry, which no sign convention can repair
        from posiflag import ProjectivePoint, barbot_flag, barbot_spec

        spec = barbot_spec(3, 1)
        pts = [ProjectivePoint(1, 0), ProjectivePoint(1, 1), ProjectivePoint(0, 1)]
        frames = [barbot_flag(spec, x).frame for x in pts]
        path = files("barbot.flags", format_frames(frames))
        result = runner.invoke(main, ["tuple-check", "--flags", path])
        assert result.exit_code == 1
        assert "zero superdiagonal" in result.output
        machine = runner.invoke(
            main, ["tuple-check", "--flags", path, "--format", "machine"]
        )
        assert machine.exit_code == 1
        assert re.fullmatch(
            r"record=tuple-check method=chain status=NotPositive "
            r"detail=zero-superdiagonal position=\d+\n",
            machine.output,
        )

    def test_non_transverse_exit_three(self, runner, files):
        asc = Matrix.identity(3)
        path = files("deg.flags", format_frames([asc, asc, desc_frame(3)]))
        result = runner.invoke(main, ["tuple-check", "--flags", path])
        assert result.exit_code == 3
        assert "not transverse" in result.stderr

    def test_outside_tuple_reports_witness(self, runner, files):
        bad_mid = Matrix(((1, 1, 3), (0, 1, 1), (0, 0, 1))) @ Matrix.reversal(3)
        path = files(
            "out.flags",
            format_frames([Matrix.identity(3), bad_mid, desc_frame(3)]),
        )
        result = runner.invoke(
            main, ["tuple-check", "--flags", path, "--format", "machine"]
        )
        assert result.exit_code == 1
        assert (
            result.output
            == "record=tuple-check method=chain status=Outside "
            "witness=2;(1,2);(2,3);-2 factors=1\n"
        )


class TestMapCheck:
    def make_sample(self, files, flavor: str) -> str:
        import random

        from posiflag import barbot_flag, barbot_spec, random_tp, veronese_flag

        from helpers import distinct_points, poison_factor, tuple_from_factors

        rng = random.Random(0)
        if flavor == "veronese":
            pts = distinct_points(5, rng)
            frames = [((x.p, x.q), veronese_flag(x, 3).frame) for x in pts]
        elif flavor == "barbot":
            spec = barbot_spec(5, 2)
            pts = distinct_points(5, rng)
            frames = [((x.p, x.q), barbot_flag(spec, x).frame) for x in pts]
        else:
            factors = [random_tp(3, rng.randint(0, 10**9)) for _ in range(2)]
            factors[1] = poison_factor(factors[1], rng)
            flags = tuple_from_factors(3, factors)
            pts = distinct_points(4, rng)
            frames = [((x.p, x.q), f.frame) for x, f in zip(pts, flags)]
        return files(f"{flavor}.sample", format_sample(frames))

    def test_consistent(self, runner, files):
        path = self.make_sample(files, "veronese")
        result = runner.invoke(main, ["map-check", "--sample", path])
        assert result.exit_code == 0
        assert result.output.startswith("status: consistent\n")
        machine = runner.invoke(
            main, ["map-check", "--sample", path, "--format", "machine"]
        )
        assert machine.output == (
            "record=map-check status=consistent positive_triple=(1,2,3) "
            "triples=1 quads=5\n"
        )

    def test_vacuous(self, runner, files):
        path = self.make_sample(files, "barbot")
        result = runner.invoke(
            main, ["map-check", "--sample", path, "--format", "machine"]
        )
        assert result.exit_code == 0
        assert result.output == "record=map-check status=vacuously-consistent triples=10 quads=0\n"

    def test_inconsistent(self, runner, files):
        path = self.make_sample(files, "poisoned")
        result = runner.invoke(main, ["map-check", "--sample", path])
        assert result.exit_code == 1
        assert "status: inconsistent" in result.output
        machine = runner.invoke(
            main, ["map-check", "--sample", path, "--format", "machine"]
        )
        assert machine.exit_code == 1
        assert machine.output == (
            "record=map-check status=inconsistent positive_triple=(1,2,3) "
            "failing_quad=(1,2,3,4) triples=1 quads=1\n"
        )

    def test_repeated_point_exit_three(self, runner, files):
        m = Matrix.identity(3)
        rec = [((1, 0), pascal(3)), ((1, 0), m), ((0, 1), Matrix.reversal(3))]
        path = files("rep.sample", format_sample(rec))
        result = runner.invoke(main, ["map-check", "--sample", path])
        assert result.exit_code == 3

    def test_mixed_dimensions_exit_three(self, runner, files):
        asc, desc = standard_flags(3)
        frames = [asc.frame, desc.frame, asc.apply(pascal(3)).frame, standard_flags(4)[0].frame]
        rec = list(zip([(1, 0), (2, 1), (1, 1), (1, 2)], frames))
        path = files("mixed.sample", format_sample(rec))
        result = runner.invoke(main, ["map-check", "--sample", path])
        assert result.exit_code == 3
        assert "flags in a tuple must share one dimension" in result.output


class TestFlagsTransverse:
    def test_transverse_pair(self, runner, files):
        path = files("fl.flags", format_frames([Matrix.identity(3), Matrix.reversal(3)]))
        result = runner.invoke(main, ["flags-transverse", "--input", path, "--pair", "1", "2"])
        assert result.exit_code == 0
        assert result.output == "flags 1 and 2 are transverse\n"

    def test_non_transverse_pair(self, runner, files):
        a = Matrix.identity(3)
        path = files("fl2.flags", format_frames([a, a]))
        result = runner.invoke(
            main,
            ["flags-transverse", "--input", path, "--pair", "1", "2", "--format", "machine"],
        )
        assert result.exit_code == 1
        assert result.output == "record=flags-transverse pair=(1,2) transverse=false\n"

    def test_position_out_of_range(self, runner, files):
        path = files("fl3.flags", format_frames([Matrix.identity(3), Matrix.reversal(3)]))
        result = runner.invoke(main, ["flags-transverse", "--input", path, "--pair", "1", "5"])
        assert result.exit_code == 3


class TestGenerators:
    def test_pascal_round_trips_into_tp_check(self, runner, files, tmp_path):
        result = runner.invoke(main, ["pascal", "--d", "5"])
        assert result.exit_code == 0
        assert parse_matrix(result.output) == pascal(5)
        path = files("gen.mat", result.output)
        check = runner.invoke(main, ["tp-check", "--input", path, "--method", "both"])
        assert check.exit_code == 0

    def test_pascal_rejects_zero(self, runner):
        assert runner.invoke(main, ["pascal", "--d", "0"]).exit_code == 2

    def test_sym_power_of_swap(self, runner, files):
        path = files("swap.mat", format_matrix(Matrix(((0, 1), (1, 0)))))
        result = runner.invoke(main, ["sym-power", "--d", "3", "--g", path])
        assert result.exit_code == 0
        assert parse_matrix(result.output) == Matrix.reversal(3)

    def test_sym_power_prints_long_integers_in_full(self, files):
        # the (1, 1) entry is 10^5000, beyond the interpreter's default
        # 4300-digit int/str limit, which the CLI entry point lifts
        path = files("big.mat", f"dim 2\nentries\n{10 ** 1000} 0\n0 1\n")
        out = run_cli_process(
            "from posiflag.cli import main\n"
            f"main(['sym-power', '--d', '6', '--g', {path!r}])\n"
        )
        assert out.stdout.splitlines()[2].split()[0] == "1" + "0" * 5000

    def test_overlong_token_exit_two(self, runner, files):
        path = files("long.mat", "dim 1\nentries\n" + "7" * 5000 + "\n")
        result = runner.invoke(main, ["tp-check", "--input", path])
        assert result.exit_code == 2
        assert "5000 digits" in result.output and "limit is 4300 digits" in result.output

    def test_exact_subcommand_does_not_import_numpy(self):
        out = run_cli_process(
            "import sys\n"
            "from posiflag.cli import main\n"
            "main(['pascal', '--d', '3'])\n"
            "print('numpy' in sys.modules)\n"
            "print('dataclasses' in sys.modules)\n"
            "print('click' in sys.modules)\n"
        )
        numpy_loaded, dataclasses_loaded, click_loaded = out.stdout.splitlines()[-3:]
        assert numpy_loaded == "False"
        # start-up pays for no dataclass code generation either
        assert dataclasses_loaded == "False"
        # nor for a third-party command-line package
        assert click_loaded == "False"

    def test_limit_demo_does_not_import_numpy(self, files):
        # the float dynamics run on the standard library
        g = files("g.mat", format_matrix(Matrix(((F(7, 2), -3), (F(3, 2), -1)))))
        out = run_cli_process(
            "import sys\n"
            "from posiflag.cli import main\n"
            f"main(['limit-demo', '--d', '5', '--j', '2', '--g', {g!r}, '--iters', '5'])\n"
            "print('numpy' in sys.modules)\n"
        )
        lines = out.stdout.splitlines()
        assert lines[0] == "n,distance,min_gap" and len(lines) == 7
        assert lines[-1] == "False"

    def test_sym_power_needs_two_by_two(self, runner, files):
        path = files("big.mat", format_matrix(Matrix.identity(3)))
        result = runner.invoke(main, ["sym-power", "--d", "3", "--g", path])
        assert result.exit_code == 3

    def test_barbot_spec_output(self, runner):
        result = runner.invoke(main, ["barbot", "--d", "5", "--j", "2"])
        assert result.exit_code == 0
        assert result.output == "d=5 j=2 k=1 perm=(1,4,2,5,3)\n"

    def test_barbot_basis_output(self, runner):
        result = runner.invoke(main, ["barbot", "--d", "5", "--j", "1", "--emit", "basis"])
        assert result.output == "e1 e2 e5 e3 e4\n"

    def test_barbot_matrix_requires_g(self, runner):
        result = runner.invoke(main, ["barbot", "--d", "3", "--j", "1", "--emit", "matrix"])
        assert result.exit_code == 2

    def test_barbot_matrix_output(self, runner, files):
        g = Matrix(((2, 1), (1, 1)))
        path = files("g.mat", format_matrix(g))
        result = runner.invoke(
            main, ["barbot", "--d", "5", "--j", "2", "--emit", "matrix", "--g", path]
        )
        assert result.exit_code == 0
        assert result.output == format_matrix(barbot_matrix(barbot_spec(5, 2), g))

    def test_barbot_flags_requires_points(self, runner):
        result = runner.invoke(main, ["barbot", "--d", "3", "--j", "1", "--emit", "flags"])
        assert result.exit_code == 2
        assert "--emit flags requires --points FILE" in result.stderr

    def test_barbot_invalid_shape(self, runner):
        result = runner.invoke(main, ["barbot", "--d", "4", "--j", "1"])
        assert result.exit_code == 3

    def test_barbot_flags_pipe_into_tuple_check(self, runner, files):
        pts = files("pts.txt", format_points([(1, 0), (2, 1), (1, 1)]))
        result = runner.invoke(
            main,
            ["barbot", "--d", "3", "--j", "1", "--emit", "flags", "--points", pts],
        )
        assert result.exit_code == 0
        assert len(parse_frames(result.output)) == 3
        path = files("bflags.flags", result.output)
        check = runner.invoke(main, ["tuple-check", "--flags", path])
        assert check.exit_code == 1

    def test_veronese_flags_pipe_into_tuple_check(self, runner, files):
        pts = files("vpts.txt", format_points([(1, 0), (3, 1), (1, 1), (1, 3)]))
        result = runner.invoke(main, ["veronese", "--d", "4", "--points", pts])
        assert result.exit_code == 0
        path = files("vflags.flags", result.output)
        check = runner.invoke(
            main, ["tuple-check", "--flags", path, "--method", "both"]
        )
        assert check.exit_code == 0


class TestThreshold:
    def shear_flag_file(self, files) -> str:
        v = Matrix(((1, 5, 0), (0, 1, 0), (0, 0, 1)))
        return files("sheared.flags", format_frames([v @ Matrix.reversal(3)]))

    def test_worked_example(self, runner, files):
        u = files("q3.mat", format_matrix(pascal(3)))
        result = runner.invoke(
            main, ["threshold", "--u", u, "--flag", self.shear_flag_file(files)]
        )
        assert result.exit_code == 0
        assert result.output == "threshold: 11\n"

    def test_machine_format(self, runner, files):
        u = files("q3.mat", format_matrix(pascal(3)))
        result = runner.invoke(
            main,
            ["threshold", "--u", u, "--flag", self.shear_flag_file(files),
             "--format", "machine"],
        )
        assert result.output == "record=threshold t=11 cap=100000\n"

    def test_cap_exceeded_exit_four(self, runner, files):
        u = files("q3.mat", format_matrix(pascal(3)))
        result = runner.invoke(
            main,
            ["threshold", "--u", u, "--flag", self.shear_flag_file(files), "--cap", "5"],
        )
        assert result.exit_code == 4
        assert "error:" in result.stderr

    def test_flag_file_must_hold_one_frame(self, runner, files):
        u = files("q3.mat", format_matrix(pascal(3)))
        two = files("two.flags", format_frames([Matrix.reversal(3), Matrix.identity(3)]))
        result = runner.invoke(main, ["threshold", "--u", u, "--flag", two])
        assert result.exit_code == 3

    def test_split_jordan_type_exit_three(self, runner, files):
        u = files("id.mat", format_matrix(Matrix.identity(3)))
        result = runner.invoke(
            main, ["threshold", "--u", u, "--flag", self.shear_flag_file(files)]
        )
        assert result.exit_code == 3


class TestLimitDemo:
    def g_file(self, files) -> str:
        return files("g.mat", format_matrix(Matrix.diagonal((2, F(1, 2)))))

    def test_series_csv(self, runner, files):
        result = runner.invoke(
            main,
            ["limit-demo", "--d", "3", "--j", "1", "--g", self.g_file(files),
             "--iters", "5"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,distance,min_gap"
        assert len(lines) == 6
        for i, line in enumerate(lines[1:], start=1):
            n, dist, gap = line.split(",")
            assert int(n) == i
            assert dist == "skipped" or float(dist) >= 0.0
            float(gap)

    def test_converges_by_fifty(self, runner, files):
        result = runner.invoke(
            main,
            ["limit-demo", "--d", "3", "--j", "1", "--g", self.g_file(files)],
        )
        last = result.output.strip().splitlines()[-1]
        n, dist, _ = last.split(",")
        assert n == "50"
        assert float(dist) < 1e-6

    def test_zero_iters(self, runner, files):
        result = runner.invoke(
            main,
            ["limit-demo", "--d", "3", "--j", "1", "--g", self.g_file(files),
             "--iters", "0"],
        )
        assert result.output == "n,distance,min_gap\n"

    def test_non_hyperbolic_exit_three(self, runner, files):
        g = files("rot.mat", format_matrix(Matrix(((0, -1), (1, 0)))))
        result = runner.invoke(
            main, ["limit-demo", "--d", "3", "--j", "1", "--g", g]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("entries, iters, n", [((2, F(1, 2)), 1100, 1024), ((4, 1), 600, 512)])
    def test_float_overflow_exit_three(self, runner, files, entries, iters, n):
        # 2^1024 and 4^512 exceed the largest float
        g = files("big.mat", format_matrix(Matrix.diagonal(entries)))
        result = runner.invoke(
            main, ["limit-demo", "--d", "3", "--j", "1", "--g", g, "--iters", str(iters)]
        )
        assert result.exit_code == 3
        assert result.stderr == f"error: g^n is outside the float range at n = {n}\n"
        assert result.stdout == ""
        assert "Traceback" not in result.output

    def test_weighted_entry_overflow_exit_three(self, runner, files):
        # g^1 and its det fit in floats, but a det-normalized entry times
        # its weight sqrt(C(4, i)) does not
        a = 55 * 10**101
        g = files("big.mat", format_matrix(Matrix(((a, a), (0, F(1, a))))))
        result = runner.invoke(
            main, ["limit-demo", "--d", "5", "--j", "1", "--g", g, "--iters", "1"]
        )
        assert result.exit_code == 3
        assert result.stderr == "error: g^n is outside the float range at n = 1\n"
        assert result.stdout == ""

    def test_limit_flag_outside_float_range_exit_three(self, runner, files):
        # the attracting fixed point [2 * 10^400 : 3] gives a limit flag beyond the float range
        g = files("big.mat", format_matrix(Matrix(((F(1, 2), 10**400), (0, 2)))))
        result = runner.invoke(
            main, ["limit-demo", "--d", "3", "--j", "1", "--g", g, "--iters", "3"]
        )
        assert result.exit_code == 3
        assert result.stderr == "error: the limit flag is outside the float range\n"
        assert result.stdout == ""


# every file option of every subcommand; BAD marks the file under test and
# GOOD a valid 3x3 matrix file for the option read before it
FILE_OPTIONS = [
    ["tp-check", "--input", "BAD"],
    ["tuple-check", "--flags", "BAD"],
    ["map-check", "--sample", "BAD"],
    ["flags-transverse", "--input", "BAD", "--pair", "1", "2"],
    ["sym-power", "--d", "3", "--g", "BAD"],
    ["barbot", "--d", "3", "--j", "1", "--emit", "matrix", "--g", "BAD"],
    ["barbot", "--d", "3", "--j", "1", "--emit", "flags", "--points", "BAD"],
    ["veronese", "--d", "3", "--points", "BAD"],
    ["threshold", "--u", "BAD", "--flag", "GOOD"],
    ["threshold", "--u", "GOOD", "--flag", "BAD"],
    ["limit-demo", "--d", "3", "--j", "1", "--g", "BAD"],
]


class TestInputFiles:
    @pytest.mark.parametrize("argv", FILE_OPTIONS,
                             ids=[f"{a[0]} {a[a.index('BAD') - 1]}" for a in FILE_OPTIONS])
    def test_non_utf8_file_exit_two(self, runner, tmp_path, argv):
        bad, good = tmp_path / "bad.txt", tmp_path / "good.mat"
        bad.write_bytes(b"dim 2\n\xff\n")
        good.write_text(format_matrix(pascal(3)))
        args = [{"BAD": str(bad), "GOOD": str(good)}.get(a, a) for a in argv]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == f"error: {bad} is not UTF-8 text (byte 6)\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("kind", ["directory", "unreadable"])
    def test_directory_or_unreadable_file_exit_two(self, runner, tmp_path, monkeypatch, kind):
        # root reads a chmod 000 file anyway, so the unreadable case fakes os.access
        path = tmp_path
        if kind == "unreadable":
            path = tmp_path / "good.mat"
            path.write_text(format_matrix(pascal(3)))
            monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        result = runner.invoke(main, ["tp-check", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        want = "a directory" if kind == "directory" else "not readable"
        assert f"file {str(path)!r} is {want}" in result.stderr


def strip_times(output: str) -> str:
    return re.sub(r"time_ms=\d+\.\d+", "time_ms=X", output)


class TestBench:
    def test_counts_and_determinism(self, runner):
        args = ["bench", "--d-min", "3", "--d-max", "4", "--samples", "2",
                "--format", "machine"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        lines = first.output.strip().splitlines()
        assert lines[0].startswith("record=bench-env python=")
        assert strip_times(first.output) == strip_times(second.output)
        want = {
            ("3", "staged"): "10",
            ("3", "oracle"): "13",
            ("4", "staged"): "20",
            ("4", "oracle"): "41",
        }
        for line in lines[1:]:
            fields = dict(kv.split("=") for kv in line.split()[1:])
            assert want[(fields["d"], fields["method"])] == fields["dets"]

    def test_seed_option_equals_environment(self, runner):
        args = ["bench", "--d-min", "3", "--d-max", "3", "--format", "machine"]
        by_flag = runner.invoke(main, args + ["--seed", "7"])
        by_env = runner.invoke(main, args, env={"POSIFLAG_SEED": "7"})
        assert strip_times(by_flag.output) == strip_times(by_env.output)

    def test_malformed_seed_environment_exit_two(self, runner):
        result = runner.invoke(
            main, ["bench", "--d-min", "3", "--d-max", "3"], env={"POSIFLAG_SEED": "x"}
        )
        assert result.exit_code == 2
        assert "POSIFLAG_SEED must be an integer" in result.stderr
        assert result.stdout == ""

    def test_bad_range_exit_two(self, runner):
        result = runner.invoke(main, ["bench", "--d-min", "5", "--d-max", "4"])
        assert result.exit_code == 2

    def test_closed_form_gate_is_an_explicit_error(self, monkeypatch):
        import posiflag.positivity as positivity_module

        monkeypatch.setattr(positivity_module, "staged_minor_count", lambda d: -1)
        with pytest.raises(InvariantViolated, match="closed form"):
            positivity_module.bench(range(3, 4), 1, 0)

    def test_text_format_has_table(self, runner):
        result = runner.invoke(main, ["bench", "--d-min", "3", "--d-max", "3"])
        assert result.exit_code == 0
        assert "method" in result.output
        assert "staged" in result.output and "oracle" in result.output


ERROR_CLASSES = [
    cls for cls in vars(errors_module).values()
    if isinstance(cls, type) and issubclass(cls, PosiflagError) and cls is not PosiflagError
]
EXTRA_ARGS = {NotTransverse: ((1, 2),), ZeroSuperdiagonal: (2,), SingularGapTooSmall: (1e-9,), CapExceeded: (5,)}
EXIT_CODES = {ParseError: (2, "error:"), CapExceeded: (4, "error:"), ZeroSuperdiagonal: (1, "not positive:")}


def raise_from_pascal(monkeypatch, cls):
    def fail(d):
        raise cls("boom", *EXTRA_ARGS.get(cls, ()))

    monkeypatch.setattr(cli_module, "pascal", fail)


class TestExitCodes:
    """Each library error raised under a subcommand ends in its documented code."""

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=[c.__name__ for c in ERROR_CLASSES])
    def test_every_error_class(self, runner, monkeypatch, cls):
        raise_from_pascal(monkeypatch, cls)
        result = runner.invoke(main, ["pascal", "--d", "3"])
        if cls is InvariantViolated:
            assert isinstance(result.exception, InvariantViolated)
            return
        code, prefix = EXIT_CODES.get(cls, (3, "error:"))
        assert result.exit_code == code
        assert result.stderr == f"{prefix} boom\n"
        assert result.stdout == ""

    def test_new_error_class_exits_three(self, runner, monkeypatch):
        class NewError(PosiflagError):
            pass

        raise_from_pascal(monkeypatch, NewError)
        result = runner.invoke(main, ["pascal", "--d", "3"])
        assert result.exit_code == 3
        assert result.stderr == "error: boom\n"

    def test_later_subcommand_gets_the_map(self, runner):
        class LaterError(PosiflagError):
            pass

        @cli_module._command("later")
        def later():
            raise LaterError("boom")

        try:
            result = runner.invoke(main, ["later"])
        finally:
            del cli_module._COMMANDS["later"]
        assert result.exit_code == 3
        assert result.stderr == "error: boom\n"
        assert result.stdout == ""


FORMAT = ("--format", ("text", "machine"), "text")
# every option of every subcommand: (flag, choices, default shown or None)
HELP = {
    "tp-check": [("--input", (), None), ("--method", ("staged", "oracle", "both"), "staged"),
                 ("--emit", ("status", "witness"), "status"), FORMAT],
    "tuple-check": [("--flags", (), None), ("--method", ("chain", "quad", "both"), "chain"),
                    FORMAT],
    "map-check": [("--sample", (), None), FORMAT],
    "flags-transverse": [("--input", (), None), ("--pair", (), None), FORMAT],
    "pascal": [("--d", (), None)],
    "sym-power": [("--d", (), None), ("--g", (), None)],
    "barbot": [("--d", (), None), ("--j", (), None),
               ("--emit", ("spec", "basis", "matrix", "flags"), "spec"),
               ("--g", (), None), ("--points", (), None)],
    "veronese": [("--d", (), None), ("--points", (), None)],
    "threshold": [("--u", (), None), ("--flag", (), None), ("--cap", (), "100000"), FORMAT],
    "limit-demo": [("--d", (), None), ("--j", (), None), ("--g", (), None),
                   ("--iters", (), "50"), ("--emit", ("series",), "series")],
    "bench": [("--d-min", (), "3"), ("--d-max", (), "10"), ("--samples", (), "1"),
              ("--seed", (), None), FORMAT],
}


def option_entry(help_text: str, flag: str) -> str:
    """The help text's entry for an option: the line it starts, and the
    continuation lines up to the next option, whitespace collapsed."""
    lines = help_text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.match(rf"\s+{re.escape(flag)}(?![\w-])", line))
    end = next((i for i in range(start + 1, len(lines))
                if not lines[i].strip() or lines[i].lstrip().startswith("-")), len(lines))
    return " ".join(" ".join(lines[start:end]).split())


# DIR marks an empty directory and GOOD a valid 3x3 matrix file
USAGE_ERRORS = {
    "directory as --input": ["tp-check", "--input", "DIR"],
    "bad --method choice": ["tp-check", "--input", "GOOD", "--method", "fast"],
    "--pair with one value": ["flags-transverse", "--input", "GOOD", "--pair", "1"],
    "--d-max above its range": ["bench", "--d-max", "13"],
    "abbreviated option": ["tp-check", "--input", "GOOD", "--meth", "both"],
    "no subcommand": [],
    "unknown subcommand": ["frobnicate"],
}


class TestEntryPoint:
    def test_traced_runner_call_form(self):
        out = run_cli_process(
            "from posiflag.cli import main\n"
            "main(args=['pascal', '--d', '3'], prog_name='posiflag')\n"
        )
        assert out.stdout == format_matrix(pascal(3))

    @pytest.mark.parametrize("argv,code", [(["pascal", "--d", "3"], 0),
                                           (["tp-check", "--input", "BAD"], 2)],
                             ids=["pascal", "bad input"])
    def test_package_runs_the_cli(self, tmp_path, argv, code):
        """`python -m posiflag` prints and exits exactly as `python -m
        posiflag.cli` does, on a good run and on an unparsable input."""
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 3\nentries\n1 x\n")
        args = [str(bad) if a == "BAD" else a for a in argv]
        runs = [subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                               text=True, env=child_env())
                for module in ("posiflag", "posiflag.cli")]
        package, module = ((r.stdout, r.stderr, r.returncode) for r in runs)
        assert package == module
        assert package[2] == code and (package[0] if code == 0 else package[1])

    @pytest.mark.parametrize("command", [None, *HELP])
    def test_help_names_every_option(self, runner, command):
        result = runner.invoke(main, ["--help"] if command is None else [command, "--help"])
        assert result.exit_code == 0
        if command is None:
            assert all(name in result.stdout for name in HELP)
            return
        listed = set(re.findall(r"(?m)^\s+(--[\w-]+)", result.stdout)) - {"--help"}
        assert listed == {flag for flag, _, _ in HELP[command]}
        for flag, choices, default in HELP[command]:
            entry = option_entry(result.stdout, flag)
            assert all(choice in entry for choice in choices), entry
            if default is not None:
                assert f"default: {default}" in entry, entry

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_exit_two(self, tmp_path, argv):
        empty, good = tmp_path / "empty", tmp_path / "good.mat"
        empty.mkdir()
        good.write_text(format_matrix(pascal(3)))
        args = [{"DIR": str(empty), "GOOD": str(good)}.get(a, a) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "posiflag.cli", *args],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip() and "Traceback" not in proc.stderr
