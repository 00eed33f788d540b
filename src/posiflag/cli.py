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
traceback, ends in one of these codes under every subcommand, since the
map sits on the command group; a new error class exits 3.  An input
file that is not UTF-8 is a parse error.

Machine format (--format machine) is line-oriented: one record per
verdict, space-separated key=value pairs, first pair record=<subcommand>.
Identical inputs and seeds give byte-identical output except for the
time_ms fields.  The seed for randomized subcommands comes from --seed,
else the POSIFLAG_SEED environment variable, else 0.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

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


class _Posiflag(click.Group):
    """Command group ending every library error under any subcommand in its
    documented exit code; `InvariantViolated` reports a defect and propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except CapExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except ZeroSuperdiagonal as exc:
            click.echo(f"not positive: {exc}", err=True)
            sys.exit(1)
        except InvariantViolated:
            raise
        except PosiflagError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


def _read(path: str) -> str:
    """Text of an input file, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _record(name: str, /, **fields) -> None:
    """Echo one machine record: record=<name>, then key=value for each field
    in call order, leaving out fields that are None."""
    pairs = [f"{key}={value}" for key, value in fields.items() if value is not None]
    click.echo(" ".join([f"record={name}", *pairs]))


_FILE = click.Path(exists=True, dir_okay=False)
_format = click.option(
    "--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True
)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("POSIFLAG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise click.UsageError("POSIFLAG_SEED must be an integer")
    return 0


# the formatters pass None through, so that _record leaves the field out
def _seq_str(seq) -> str | None:
    return None if seq is None else "(" + ",".join(str(x) for x in seq) + ")"


def _witness_str(w: Witness | None) -> str | None:
    if w is None:
        return None
    return f"{w.index.size};{_seq_str(w.index.rows)};{_seq_str(w.index.cols)};{w.value}"


@click.group(cls=_Posiflag)
def main():
    """Exact total positivity of unipotent matrices and flag tuples."""
    # exact results may exceed the interpreter's int/str digit limit; print
    # them in full (inputs are bounded by the parsers instead)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command("tp-check")
@click.option("--input", "input_path", type=_FILE, required=True)
@click.option("--method", type=click.Choice(["staged", "oracle", "both"]), default="staged", show_default=True)
@click.option("--emit", type=click.Choice(["status", "witness"]), default="status", show_default=True)
@_format
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
            click.echo(f"{name}: {verdict.status.value}")
            if witness is not None:
                click.echo(f"witness: {witness}")
    sys.exit(0 if all_positive else 1)


@main.command("tuple-check")
@click.option("--flags", "flags_path", type=_FILE, required=True)
@click.option("--method", type=click.Choice(["chain", "quad", "both"]), default="chain", show_default=True)
@_format
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
                click.echo(f"{name}: not positive (zero superdiagonal at position {exc.position})")
            continue
        all_positive = all_positive and verdict.is_positive
        if fmt == "machine":
            _record("tuple-check", method=name, status=verdict.status.value,
                    witness=_witness_str(verdict.witness), factors=factors)
        else:
            click.echo(f"{name}: {verdict.status.value}")
    sys.exit(0 if all_positive else 1)


@main.command("map-check")
@click.option("--sample", "sample_path", type=_FILE, required=True)
@_format
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
        click.echo(f"status: {report.status}")
        if report.positive_triple is not None:
            click.echo(f"positive triple: {_seq_str(report.positive_triple)}")
        if report.failing_quad is not None:
            click.echo(f"failing quadruple: {_seq_str(report.failing_quad)}")
        click.echo(f"scanned {report.triples_scanned} triples, {report.quads_checked} quadruples")
    sys.exit(1 if report.status == "inconsistent" else 0)


@main.command("flags-transverse")
@click.option("--input", "input_path", type=_FILE, required=True)
@click.option("--pair", nargs=2, type=int, required=True, metavar="I J")
@_format
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
        click.echo(f"flags {i} and {j} are {'transverse' if result else 'not transverse'}")
    sys.exit(0 if result else 1)


@main.command("pascal")
@click.option("--d", type=click.IntRange(min=1), required=True)
def pascal_cmd(d):
    """Print the upper-triangular binomial matrix as a matrix file."""
    click.echo(fileio.format_matrix(pascal(d)), nl=False)


@main.command("sym-power")
@click.option("--d", type=click.IntRange(min=1), required=True)
@click.option("--g", "g_path", type=_FILE, required=True)
def sym_power_cmd(d, g_path):
    """Print the d-dimensional symmetric power of a 2x2 matrix."""
    g = fileio.parse_matrix(_read(g_path))
    click.echo(fileio.format_matrix(sym_power(g, d)), nl=False)


@main.command("barbot")
@click.option("--d", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--emit", type=click.Choice(["spec", "basis", "matrix", "flags"]), default="spec", show_default=True)
@click.option("--g", "g_path", type=_FILE, default=None)
@click.option("--points", "points_path", type=_FILE, default=None)
def barbot_cmd(d, j, emit, g_path, points_path):
    """Inspect the reducible block family: shape, basis, matrices, flags."""
    spec = barbot_spec(d, j)
    if emit == "spec":
        click.echo(f"d={spec.d} j={spec.j} k={spec.k} perm={_seq_str(spec.perm)}")
    elif emit == "basis":
        click.echo(" ".join(f"e{i}" for i in spec.perm))
    elif emit == "matrix":
        if g_path is None:
            raise click.UsageError("--emit matrix requires --g FILE")
        g = fileio.parse_matrix(_read(g_path))
        click.echo(fileio.format_matrix(barbot_matrix(spec, g)), nl=False)
    else:
        if points_path is None:
            raise click.UsageError("--emit flags requires --points FILE")
        pts = fileio.parse_points(_read(points_path))
        frames = [barbot_flag(spec, ProjectivePoint(p, q)).frame for p, q in pts]
        click.echo(fileio.format_frames(frames), nl=False)


@main.command("veronese")
@click.option("--d", type=click.IntRange(min=2), required=True)
@click.option("--points", "points_path", type=_FILE, required=True)
def veronese_cmd(d, points_path):
    """Print the symmetric-power flags at the given projective points."""
    pts = fileio.parse_points(_read(points_path))
    frames = [veronese_flag(ProjectivePoint(p, q), d).frame for p, q in pts]
    click.echo(fileio.format_frames(frames), nl=False)


@main.command("threshold")
@click.option("--u", "u_path", type=_FILE, required=True)
@click.option("--flag", "flag_path", type=_FILE, required=True)
@click.option("--cap", type=click.IntRange(min=1), default=100_000, show_default=True)
@_format
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
        click.echo(f"threshold: {t}")


@main.command("limit-demo")
@click.option("--d", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--g", "g_path", type=_FILE, required=True)
@click.option("--iters", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--emit", type=click.Choice(["series"]), default="series", show_default=True)
def limit_demo(d, j, g_path, iters, emit):
    """CSV series of flag distances to the attracting limit flag."""
    spec = barbot_spec(d, j)
    g = MoebiusElement(fileio.parse_matrix(_read(g_path)))
    series = limit_convergence(spec, g, iters)
    click.echo("n,distance,min_gap")
    for entry in series:
        dist = "skipped" if entry.skipped else f"{entry.distance:.6e}"
        click.echo(f"{entry.n},{dist},{entry.min_gap:.6e}")


@main.command("bench")
@click.option("--d-min", type=click.IntRange(3, 12), default=3, show_default=True)
@click.option("--d-max", type=click.IntRange(3, 12), default=10, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="defaults to POSIFLAG_SEED, else 0")
@_format
def bench_cmd(d_min, d_max, samples, seed, fmt):
    """Count determinant evaluations for both methods on identical inputs."""
    if d_max < d_min:
        raise click.UsageError("--d-max must be at least --d-min")
    report = bench(range(d_min, d_max + 1), samples, _resolve_seed(seed))
    if fmt == "machine":
        _record("bench-env", **dict(field.split("=", 1) for field in report.env.split()))
        for row in report.rows:
            _record("bench", d=row.d, method=row.method, dets=row.dets,
                    time_ms=f"{row.time_ms:.3f}")
    else:
        click.echo(report.env)
        click.echo(f"{'d':>3} {'method':>7} {'dets':>8} {'time_ms':>10}")
        for row in report.rows:
            click.echo(f"{row.d:>3} {row.method:>7} {row.dets:>8} {row.time_ms:>10.3f}")


if __name__ == "__main__":
    main()
