"""Command-line entry point.

Subcommands cover certification (tp-check, tuple-check, map-check,
flags-transverse, threshold), object generation (pascal, sym-power,
barbot, veronese), the convergence demo (limit-demo), and benchmarking
(bench).  Generators print the shared file formats, so their output can
be piped straight back into the checkers.

Exit codes: 0 affirmative verdict or success, 1 negative verdict,
2 usage or parse error, 3 precondition violation (non-transverse flags,
wrong shapes, non-hyperbolic elements, ...), 4 cap exceeded.  A zero
superdiagonal entry in a tuple factor is a negative verdict (exit 1):
no sign convention can rescue such a factor.  Every library error except
`InvariantViolated`, which reports a defect in the package and keeps its
traceback, ends in one of these codes under every subcommand, since
`main` runs whichever subcommand `_command` registered inside the map; a
new error class exits 3.  Usage errors, found by the parser or in a
subcommand's body, exit 2 with the subcommand's usage.  An input file
that is not UTF-8 is a parse error.

Machine format (--format machine) is line-oriented: one record per
verdict, space-separated key=value pairs, first pair record=<subcommand>.
Identical inputs and seeds give byte-identical output except for the
time_ms fields.  The seed for randomized subcommands comes from --seed,
else the POSIFLAG_SEED environment variable, else 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable

from . import fileio
from .dynamics import limit_convergence, power_positivity_threshold
from .errors import (
    BadParameters,
    CapExceeded,
    IndexOutOfRange,
    InvariantViolated,
    ParseError,
    PosiflagError,
    ZeroSuperdiagonal,
)
from .flags import Flag, transverse
from .positivity import Witness, bench, tp_oracle, tp_staged
from .reps import (
    MoebiusElement,
    ProjectivePoint,
    barbot_flag,
    barbot_matrix,
    barbot_spec,
    pascal,
    sym_power,
    veronese_flag,
)
from .tuples import (
    FlagMapSample,
    check_sampled_positivity,
    is_positive_tuple_chain,
    is_positive_tuple_quad,
)

# one option of a subcommand: its flags and the keywords for `add_argument`
_Option = tuple[tuple[str, ...], dict]
# subcommand name -> (function, options), in registration order
_COMMANDS: dict[str, tuple[Callable[..., None], tuple[_Option, ...]]] = {}


class _UsageError(Exception):
    """A usage error found in a subcommand's body: exits 2, as the parser's do."""


def _command(name: str, *options: _Option):
    """Register the decorated function as subcommand `name`.  It takes the
    parsed option values as keyword arguments named by each option's dest,
    and runs inside `main`'s exit-code map."""

    def register(run):
        _COMMANDS[name] = (run, options)
        return run

    return register


def _opt(*flags: str, **kwargs) -> _Option:
    """An option: its flags and `add_argument` keywords.  Its help ends with
    its default, where it has one."""
    if kwargs.get("default") is not None:
        kwargs["help"] += " (default: %(default)s)"
    return flags, kwargs


def _input_file(path: str) -> str:
    """An input path that exists, is not a directory and is readable."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _file(flag: str, dest: str, what: str, required: bool = True) -> _Option:
    return _opt(flag, dest=dest, type=_input_file, required=required, metavar="FILE", help=what)


def _int_range(low: int, high: int | None = None) -> Callable[[str], int]:
    """Type of an integer option with values in low..high, unbounded above for None."""

    def integer(text: str) -> int:  # argparse reports a ValueError as an invalid integer
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"{value} is not {bound}")
        return value

    return integer


_FORMAT = _opt("--format", dest="fmt", choices=["text", "machine"], default="text",
               help="output format")
_DIM = _opt("--d", type=_int_range(1), required=True, help="dimension, at least 1")
_ODD_DIM = _opt("--d", type=int, required=True, help="dimension, odd")
_BLOCK = _opt("--j", type=int, required=True, help="block parameter, 1 to (d-1)/2")


def _read(path: str) -> str:
    """Text of an input file, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _record(name: str, /, **fields) -> None:
    """Print one machine record: record=<name>, then key=value for each field
    in call order, leaving out fields that are None."""
    pairs = [f"{key}={value}" for key, value in fields.items() if value is not None]
    print(" ".join([f"record={name}", *pairs]))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("POSIFLAG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError("POSIFLAG_SEED must be an integer")
    return 0


# the formatters pass None through, so that _record leaves the field out
def _seq_str(seq) -> str | None:
    return None if seq is None else "(" + ",".join(str(x) for x in seq) + ")"


def _witness_str(w: Witness | None) -> str | None:
    if w is None:
        return None
    return f"{w.index.size};{_seq_str(w.index.rows)};{_seq_str(w.index.cols)};{w.value}"


@_command("tp-check", _file("--input", "input_path", "matrix file"),
          _opt("--method", choices=["staged", "oracle", "both"], default="staged",
               help="minor scan, or both in turn"),
          _opt("--emit", choices=["status", "witness"], default="status",
               help="print the witness minor too"),
          _FORMAT)
def tp_check(input_path, method, emit, fmt):
    """Decide total positivity of one matrix."""
    m = fileio.parse_matrix(_read(input_path))
    names = ["staged", "oracle"] if method == "both" else [method]
    all_positive = True
    for name in names:
        run = tp_staged if name == "staged" else tp_oracle
        verdict = run(m)
        all_positive = all_positive and verdict.is_positive
        witness = _witness_str(verdict.witness) if emit == "witness" else None
        if fmt == "machine":
            _record("tp-check", method=name, status=verdict.status.value, witness=witness)
        else:
            print(f"{name}: {verdict.status.value}")
            if witness is not None:
                print(f"witness: {witness}")
    sys.exit(0 if all_positive else 1)


@_command("tuple-check", _file("--flags", "flags_path", "flags file, the tuple in order"),
          _opt("--method", choices=["chain", "quad", "both"], default="chain",
               help="certificate, or both in turn"),
          _FORMAT)
def tuple_check(flags_path, method, fmt):
    """Certify positivity of an ordered flag tuple."""
    frames = fileio.parse_frames(_read(flags_path))
    flags = [Flag(f) for f in frames]
    names = ["chain", "quad"] if method == "both" else [method]
    all_positive = True
    for name in names:
        try:
            if name == "chain":
                verdict, cert = is_positive_tuple_chain(flags)
                factors = len(cert.factors)
            else:
                verdict = is_positive_tuple_quad(flags)
                factors = None
        except ZeroSuperdiagonal as exc:
            all_positive = False
            if fmt == "machine":
                _record("tuple-check", method=name, status="NotPositive",
                        detail="zero-superdiagonal", position=exc.position)
            else:
                print(f"{name}: not positive (zero superdiagonal at position {exc.position})")
            continue
        all_positive = all_positive and verdict.is_positive
        if fmt == "machine":
            _record("tuple-check", method=name, status=verdict.status.value,
                    witness=_witness_str(verdict.witness), factors=factors)
        else:
            print(f"{name}: {verdict.status.value}")
    sys.exit(0 if all_positive else 1)


@_command("map-check", _file("--sample", "sample_path", "sample file of points and flags"),
          _FORMAT)
def map_check(sample_path, fmt):
    """Run the sampled positivity-propagation check."""
    records = fileio.parse_sample(_read(sample_path))
    sample = FlagMapSample.from_records(records)
    report = check_sampled_positivity(sample)
    if fmt == "machine":
        token = {
            "consistent": "consistent",
            "vacuously consistent, no positive triple": "vacuously-consistent",
            "inconsistent": "inconsistent",
        }[report.status]
        _record("map-check", status=token, positive_triple=_seq_str(report.positive_triple),
                failing_quad=_seq_str(report.failing_quad), triples=report.triples_scanned,
                quads=report.quads_checked)
    else:
        print(f"status: {report.status}")
        if report.positive_triple is not None:
            print(f"positive triple: {_seq_str(report.positive_triple)}")
        if report.failing_quad is not None:
            print(f"failing quadruple: {_seq_str(report.failing_quad)}")
        print(f"scanned {report.triples_scanned} triples, {report.quads_checked} quadruples")
    sys.exit(1 if report.status == "inconsistent" else 0)


@_command("flags-transverse", _file("--input", "input_path", "flags file"),
          _opt("--pair", nargs=2, type=int, required=True, metavar=("I", "J"),
               help="positions of the two flags, from 1"),
          _FORMAT)
def flags_transverse(input_path, pair, fmt):
    """Test transversality of two flags from a flags file (1-based positions)."""
    frames = fileio.parse_frames(_read(input_path))
    i, j = pair
    for pos in (i, j):
        if not 1 <= pos <= len(frames):
            raise IndexOutOfRange(f"flag position {pos} outside 1..{len(frames)}")
    result = transverse(Flag(frames[i - 1]), Flag(frames[j - 1]))
    if fmt == "machine":
        _record("flags-transverse", pair=_seq_str(pair), transverse="true" if result else "false")
    else:
        print(f"flags {i} and {j} are {'transverse' if result else 'not transverse'}")
    sys.exit(0 if result else 1)


@_command("pascal", _DIM)
def pascal_cmd(d):
    """Print the upper-triangular binomial matrix as a matrix file."""
    print(fileio.format_matrix(pascal(d)), end="")


@_command("sym-power", _DIM, _file("--g", "g_path", "2x2 matrix file"))
def sym_power_cmd(d, g_path):
    """Print the d-dimensional symmetric power of a 2x2 matrix."""
    g = fileio.parse_matrix(_read(g_path))
    print(fileio.format_matrix(sym_power(g, d)), end="")


@_command("barbot", _ODD_DIM, _BLOCK,
          _opt("--emit", choices=["spec", "basis", "matrix", "flags"], default="spec",
               help="what to print"),
          _file("--g", "g_path", "2x2 matrix file, for --emit matrix", required=False),
          _file("--points", "points_path", "points file, for --emit flags", required=False))
def barbot_cmd(d, j, emit, g_path, points_path):
    """Inspect the reducible block family: shape, basis, matrices, flags."""
    spec = barbot_spec(d, j)
    if emit == "spec":
        print(f"d={spec.d} j={spec.j} k={spec.k} perm={_seq_str(spec.perm)}")
    elif emit == "basis":
        print(" ".join(f"e{i}" for i in spec.perm))
    elif emit == "matrix":
        if g_path is None:
            raise _UsageError("--emit matrix requires --g FILE")
        g = fileio.parse_matrix(_read(g_path))
        print(fileio.format_matrix(barbot_matrix(spec, g)), end="")
    else:
        if points_path is None:
            raise _UsageError("--emit flags requires --points FILE")
        pts = fileio.parse_points(_read(points_path))
        frames = [barbot_flag(spec, ProjectivePoint(p, q)).frame for p, q in pts]
        print(fileio.format_frames(frames), end="")


@_command("veronese", _opt("--d", type=_int_range(2), required=True, help="dimension, at least 2"),
          _file("--points", "points_path", "points file"))
def veronese_cmd(d, points_path):
    """Print the symmetric-power flags at the given projective points."""
    pts = fileio.parse_points(_read(points_path))
    frames = [veronese_flag(ProjectivePoint(p, q), d).frame for p, q in pts]
    print(fileio.format_frames(frames), end="")


@_command("threshold", _file("--u", "u_path", "unipotent matrix file"),
          _file("--flag", "flag_path", "flags file holding one frame"),
          _opt("--cap", type=_int_range(1), default=100_000, help="largest power, at least 1"),
          _FORMAT)
def threshold_cmd(u_path, flag_path, cap, fmt):
    """Find the first power of u making the triple with the given flag positive."""
    u = fileio.parse_matrix(_read(u_path))
    frames = fileio.parse_frames(_read(flag_path))
    if len(frames) != 1:
        raise BadParameters(f"flag file must hold exactly one frame, found {len(frames)}")
    t = power_positivity_threshold(u, Flag(frames[0]), cap)
    if fmt == "machine":
        _record("threshold", t=t, cap=cap)
    else:
        print(f"threshold: {t}")


@_command("limit-demo", _ODD_DIM, _BLOCK, _file("--g", "g_path", "hyperbolic 2x2 matrix file"),
          _opt("--iters", type=_int_range(0), default=50, help="powers of g, at least 0"),
          _opt("--emit", choices=["series"], default="series", help="what to print"))
def limit_demo(d, j, g_path, iters, emit):
    """CSV series of flag distances to the attracting limit flag."""
    spec = barbot_spec(d, j)
    g = MoebiusElement(fileio.parse_matrix(_read(g_path)))
    series = limit_convergence(spec, g, iters)
    print("n,distance,min_gap")
    for entry in series:
        dist = "skipped" if entry.skipped else f"{entry.distance:.6e}"
        print(f"{entry.n},{dist},{entry.min_gap:.6e}")


@_command("bench",
          _opt("--d-min", type=_int_range(3, 12), default=3, help="smallest dimension, 3 to 12"),
          _opt("--d-max", type=_int_range(3, 12), default=10, help="largest dimension, 3 to 12"),
          _opt("--samples", type=_int_range(1), default=1, help="matrices per d, at least 1"),
          _opt("--seed", type=int, help="defaults to POSIFLAG_SEED, else 0"),
          _FORMAT)
def bench_cmd(d_min, d_max, samples, seed, fmt):
    """Count determinant evaluations for both methods on identical inputs."""
    if d_max < d_min:
        raise _UsageError("--d-max must be at least --d-min")
    report = bench(range(d_min, d_max + 1), samples, _resolve_seed(seed))
    if fmt == "machine":
        _record("bench-env", **dict(field.split("=", 1) for field in report.env.split()))
        for row in report.rows:
            _record("bench", d=row.d, method=row.method, dets=row.dets,
                    time_ms=f"{row.time_ms:.3f}")
    else:
        print(report.env)
        print(f"{'d':>3} {'method':>7} {'dets':>8} {'time_ms':>10}")
        for row in report.rows:
            print(f"{row.d:>3} {row.method:>7} {row.dets:>8} {row.time_ms:>10.3f}")


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one subcommand; `args` defaults to the command line.  Every library
    error it raises except `InvariantViolated`, which reports a defect and
    propagates, ends in its documented exit code."""
    # exact results may exceed the interpreter's int/str digit limit; print
    # them in full (inputs are bounded by the parsers instead)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = argparse.ArgumentParser(
        prog=prog_name or "posiflag", allow_abbrev=False,
        description="Exact total positivity of unipotent matrices and flag tuples.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (run, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    values = vars(parser.parse_args(args))
    command = values.pop("command")
    try:
        _COMMANDS[command][0](**values)
    except _UsageError as exc:
        commands.choices[command].error(str(exc))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(4)
    except ZeroSuperdiagonal as exc:
        print(f"not positive: {exc}", file=sys.stderr)
        sys.exit(1)
    except InvariantViolated:
        raise
    except PosiflagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
