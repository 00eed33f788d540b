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
traceback, ends in one of these codes; an error class added to the
package later exits 3 unless it is given a code of its own here.

Machine format (--format machine) is line-oriented: one record per
verdict, space-separated key=value pairs, first pair record=<subcommand>.
Identical inputs and seeds give byte-identical output except for the
time_ms fields.  The seed for randomized subcommands comes from --seed,
else the POSIFLAG_SEED environment variable, else 0.
"""

from __future__ import annotations

import os
import sys
from functools import wraps
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


def _mapped(fn):
    """Translate library exceptions into the documented exit codes;
    `InvariantViolated` reports a defect and propagates."""

    @wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
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

    return inner


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


def _witness_str(w: Witness) -> str:
    rows = "(" + ",".join(str(i) for i in w.index.rows) + ")"
    cols = "(" + ",".join(str(j) for j in w.index.cols) + ")"
    return f"{w.index.size};{rows};{cols};{w.value}"


def _seq_str(seq) -> str:
    return "(" + ",".join(str(x) for x in seq) + ")"


@click.group()
def main():
    """Exact total positivity of unipotent matrices and flag tuples."""
    # exact results may exceed the interpreter's int/str digit limit; print
    # them in full (inputs are bounded by the parsers instead)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command("tp-check")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--method", type=click.Choice(["staged", "oracle", "both"]), default="staged", show_default=True)
@click.option("--emit", type=click.Choice(["status", "witness"]), default="status", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@_mapped
def tp_check(input_path, method, emit, fmt):
    """Decide total positivity of one matrix."""
    m = fileio.parse_matrix(Path(input_path).read_text())
    names = ["staged", "oracle"] if method == "both" else [method]
    all_positive = True
    for name in names:
        run = tp_staged if name == "staged" else tp_oracle
        verdict = run(m)
        all_positive = all_positive and verdict.is_positive
        if fmt == "machine":
            parts = [f"record=tp-check", f"method={name}", f"status={verdict.status.value}"]
            if emit == "witness" and verdict.witness is not None:
                parts.append(f"witness={_witness_str(verdict.witness)}")
            click.echo(" ".join(parts))
        else:
            click.echo(f"{name}: {verdict.status.value}")
            if emit == "witness" and verdict.witness is not None:
                click.echo(f"witness: {_witness_str(verdict.witness)}")
    sys.exit(0 if all_positive else 1)


@main.command("tuple-check")
@click.option("--flags", "flags_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--method", type=click.Choice(["chain", "quad", "both"]), default="chain", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@_mapped
def tuple_check(flags_path, method, fmt):
    """Certify positivity of an ordered flag tuple."""
    frames = fileio.parse_frames(Path(flags_path).read_text())
    flags = [Flag(f) for f in frames]
    names = ["chain", "quad"] if method == "both" else [method]
    all_positive = True
    for name in names:
        try:
            if name == "chain":
                verdict, cert = is_positive_tuple_chain(flags)
                extra = f" factors={len(cert.factors)}"
            else:
                verdict = is_positive_tuple_quad(flags)
                extra = ""
        except ZeroSuperdiagonal as exc:
            all_positive = False
            if fmt == "machine":
                click.echo(
                    f"record=tuple-check method={name} status=NotPositive "
                    f"detail=zero-superdiagonal position={exc.position}"
                )
            else:
                click.echo(f"{name}: not positive (zero superdiagonal at position {exc.position})")
            continue
        all_positive = all_positive and verdict.is_positive
        if fmt == "machine":
            line = f"record=tuple-check method={name} status={verdict.status.value}"
            if verdict.witness is not None:
                line += f" witness={_witness_str(verdict.witness)}"
            click.echo(line + extra)
        else:
            click.echo(f"{name}: {verdict.status.value}")
    sys.exit(0 if all_positive else 1)


@main.command("map-check")
@click.option("--sample", "sample_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@_mapped
def map_check(sample_path, fmt):
    """Run the sampled positivity-propagation check."""
    records = fileio.parse_sample(Path(sample_path).read_text())
    sample = FlagMapSample.from_records(records)
    report = check_sampled_positivity(sample)
    if fmt == "machine":
        token = {
            "consistent": "consistent",
            "vacuously consistent, no positive triple": "vacuously-consistent",
            "inconsistent": "inconsistent",
        }[report.status]
        parts = [f"record=map-check", f"status={token}"]
        if report.positive_triple is not None:
            parts.append(f"positive_triple={_seq_str(report.positive_triple)}")
        if report.failing_quad is not None:
            parts.append(f"failing_quad={_seq_str(report.failing_quad)}")
        parts.append(f"triples={report.triples_scanned}")
        parts.append(f"quads={report.quads_checked}")
        click.echo(" ".join(parts))
    else:
        click.echo(f"status: {report.status}")
        if report.positive_triple is not None:
            click.echo(f"positive triple: {_seq_str(report.positive_triple)}")
        if report.failing_quad is not None:
            click.echo(f"failing quadruple: {_seq_str(report.failing_quad)}")
        click.echo(f"scanned {report.triples_scanned} triples, {report.quads_checked} quadruples")
    sys.exit(1 if report.status == "inconsistent" else 0)


@main.command("flags-transverse")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--pair", nargs=2, type=int, required=True, metavar="I J")
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@_mapped
def flags_transverse(input_path, pair, fmt):
    """Test transversality of two flags from a flags file (1-based positions)."""
    frames = fileio.parse_frames(Path(input_path).read_text())
    i, j = pair
    for pos in (i, j):
        if not 1 <= pos <= len(frames):
            raise IndexOutOfRange(f"flag position {pos} outside 1..{len(frames)}")
    result = transverse(Flag(frames[i - 1]), Flag(frames[j - 1]))
    if fmt == "machine":
        click.echo(f"record=flags-transverse pair=({i},{j}) transverse={'true' if result else 'false'}")
    else:
        click.echo(f"flags {i} and {j} are {'transverse' if result else 'not transverse'}")
    sys.exit(0 if result else 1)


@main.command("pascal")
@click.option("--d", type=click.IntRange(min=1), required=True)
@_mapped
def pascal_cmd(d):
    """Print the upper-triangular binomial matrix as a matrix file."""
    click.echo(fileio.format_matrix(pascal(d)), nl=False)


@main.command("sym-power")
@click.option("--d", type=click.IntRange(min=1), required=True)
@click.option("--g", "g_path", type=click.Path(exists=True, dir_okay=False), required=True)
@_mapped
def sym_power_cmd(d, g_path):
    """Print the d-dimensional symmetric power of a 2x2 matrix."""
    g = fileio.parse_matrix(Path(g_path).read_text())
    click.echo(fileio.format_matrix(sym_power(g, d)), nl=False)


@main.command("barbot")
@click.option("--d", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--emit", type=click.Choice(["spec", "basis", "matrix", "flags"]), default="spec", show_default=True)
@click.option("--g", "g_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--points", "points_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_mapped
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
        g = fileio.parse_matrix(Path(g_path).read_text())
        click.echo(fileio.format_matrix(barbot_matrix(spec, g)), nl=False)
    else:
        if points_path is None:
            raise click.UsageError("--emit flags requires --points FILE")
        pts = fileio.parse_points(Path(points_path).read_text())
        frames = [barbot_flag(spec, ProjectivePoint(p, q)).frame for p, q in pts]
        click.echo(fileio.format_frames(frames), nl=False)


@main.command("veronese")
@click.option("--d", type=click.IntRange(min=2), required=True)
@click.option("--points", "points_path", type=click.Path(exists=True, dir_okay=False), required=True)
@_mapped
def veronese_cmd(d, points_path):
    """Print the symmetric-power flags at the given projective points."""
    pts = fileio.parse_points(Path(points_path).read_text())
    frames = [veronese_flag(ProjectivePoint(p, q), d).frame for p, q in pts]
    click.echo(fileio.format_frames(frames), nl=False)


@main.command("threshold")
@click.option("--u", "u_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--flag", "flag_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--cap", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@_mapped
def threshold_cmd(u_path, flag_path, cap, fmt):
    """Find the first power of u making the triple with the given flag positive."""
    u = fileio.parse_matrix(Path(u_path).read_text())
    frames = fileio.parse_frames(Path(flag_path).read_text())
    if len(frames) != 1:
        raise BadParameters(f"flag file must hold exactly one frame, found {len(frames)}")
    t = power_positivity_threshold(u, Flag(frames[0]), cap)
    if fmt == "machine":
        click.echo(f"record=threshold t={t} cap={cap}")
    else:
        click.echo(f"threshold: {t}")


@main.command("limit-demo")
@click.option("--d", type=int, required=True)
@click.option("--j", type=int, required=True)
@click.option("--g", "g_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--iters", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--emit", type=click.Choice(["series"]), default="series", show_default=True)
@_mapped
def limit_demo(d, j, g_path, iters, emit):
    """CSV series of flag distances to the attracting limit flag."""
    spec = barbot_spec(d, j)
    g = MoebiusElement(fileio.parse_matrix(Path(g_path).read_text()))
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
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@_mapped
def bench_cmd(d_min, d_max, samples, seed, fmt):
    """Count determinant evaluations for both methods on identical inputs."""
    if d_max < d_min:
        raise click.UsageError("--d-max must be at least --d-min")
    report = bench(range(d_min, d_max + 1), samples, _resolve_seed(seed))
    if fmt == "machine":
        click.echo(f"record=bench-env {report.env}")
        for row in report.rows:
            click.echo(
                f"record=bench d={row.d} method={row.method} "
                f"dets={row.dets} time_ms={row.time_ms:.3f}"
            )
    else:
        click.echo(report.env)
        click.echo(f"{'d':>3} {'method':>7} {'dets':>8} {'time_ms':>10}")
        for row in report.rows:
            click.echo(f"{row.d:>3} {row.method:>7} {row.dets:>8} {row.time_ms:>10.3f}")


if __name__ == "__main__":
    main()
