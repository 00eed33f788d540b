"""The four benchmark workloads: inputs, the timed op, and its output check.

Each workload is a closed loop with one caller.  `setup()` returns the
specs of the warm-up inputs and of the pool.  The pool repeats a fixed,
seed-independent rotation of `cycle` input classes; each spec is a class
and a sub-seed drawn from the seed.  `make(spec)` draws one op input from
its sub-seed and builds its posiflag objects; the timed loop calls it,
untimed, just before each op, so no op reuses another's objects.
`run(inp)` is the timed call into posiflag and `check(inp, out)`
validates its output with the benchmark's own reference code, returning
an error message or None.  `reference()` times one run of the workload's
reference operation, which involves no posiflag code (see run.py).
posiflag is imported inside `setup()` and called through module
attributes at call time, so the traced run's wrappers are seen.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import reference as ref


def child_env(root: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    posiflag comes from the checkout's src/; optimization flags are cleared
    because the transporter postconditions are asserts on today's measured
    path; BLAS runs single-threaded, within the machine's cores, since
    every matrix it sees is at most 7 x 7.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_posiflag(root: Path):
    import posiflag

    src = (root / "src").resolve()
    if not Path(posiflag.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"posiflag imported from {posiflag.__file__}, not from {src}")
    return posiflag


def _matrix(pf, grid):
    return pf.Matrix([list(row) for row in grid])


_kernel_rng = random.Random(0)
KERNEL_MATRIX = [[Fraction(_kernel_rng.randint(-9, 9), _kernel_rng.randint(1, 9))
                  for _ in range(6)] for _ in range(6)]


def reference_kernel() -> float:
    """Seconds for one fixed Fraction matrix product and determinant (about 3 ms)."""
    start = perf_counter()
    ref.matmul(ref.matmul(KERNEL_MATRIX, KERNEL_MATRIX), KERNEL_MATRIX)
    ref.det(KERNEL_MATRIX)
    return perf_counter() - start


def _interleave(fast: list, slow: list) -> list:
    """Each slow class after an equal share of the fast ones."""
    k = len(fast) // len(slow)
    return [c for i, s in enumerate(slow) for c in fast[k * i:k * i + k] + [s]]


class Workload:
    in_process = True
    reference_every = 1  # ops per reference run
    trace_dir: Path | None = None  # set while a traced op runs out of process
    traced_calls = 0

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.rng, self.work = root, random.Random(seed), work

    def specs(self, classes, rotations: int) -> list[tuple]:
        """`rotations` times every class in order, each with its own sub-seed."""
        return [(c, self.rng.getrandbits(32)) for _ in range(rotations) for c in classes]

    def reference(self) -> float:
        # in-process ops are pure-Python Fraction arithmetic, like the kernel
        return reference_kernel()


class MapSweep(Workload):
    # Why: criterion 5's shape, most of Tier-1 time; stresses flags and tuples, bypasses positivity.
    name = "map-sweep"
    trace_ops = 30
    # (kind, d or (d, j), n), trimmed of the pairs that cost over 0.3 s an
    # op, so that a 25 s run completes many rotations.  Barbot (3, 1) with
    # n = 8 comes twice, in place of (5, 1) with n = 5: the middle class by
    # cost is then one of the twins, rather than (5, 1) with n = 5, whose
    # cost swings most with the drawn points.
    CLASSES = [("veronese", 3, 5), ("barbot", (3, 1), 5), ("veronese", 3, 6),
               ("barbot", (3, 1), 6), ("veronese", 3, 7), ("barbot", (3, 1), 7),
               ("veronese", 4, 5), ("barbot", (3, 1), 8), ("veronese", 4, 6),
               ("barbot", (3, 1), 8), ("veronese", 5, 5), ("barbot", (5, 1), 6),
               ("barbot", (5, 2), 5), ("barbot", (5, 2), 6), ("barbot", (7, 3), 5)]
    cycle = len(CLASSES)

    def make(self, spec):
        pf = self.pf
        (kind, shape, n), sub_seed = spec
        pts = ref.cyclic_points(n, random.Random(sub_seed), 4)
        points = tuple(pf.ProjectivePoint(p, q) for p, q in pts)
        if kind == "veronese":
            flags = tuple(pf.veronese_flag(x, shape) for x in points)
        else:
            bspec = pf.barbot_spec(*shape)
            flags = tuple(pf.barbot_flag(bspec, x) for x in points)
        return kind, n, pf.FlagMapSample(points, flags)

    def setup(self):
        self.pf = import_posiflag(self.root)
        return self.specs(self.CLASSES[:2], 1), self.specs(self.CLASSES, 24)

    def run(self, inp):
        return self.pf.check_sampled_positivity(inp[2])

    def check(self, inp, rep):
        kind, n, _ = inp
        if kind == "veronese":
            want = ("consistent", (1, 2, 3), None, 1, comb(n, 4))
        else:
            want = ("vacuously consistent, no positive triple", None, None, comb(n, 3), 0)
        got = (rep.status, rep.positive_triple, rep.failing_quad,
               rep.triples_scanned, rep.quads_checked)
        return None if got == want else f"{kind} n={n}: got {got}, want {want}"


class MinorScan(Workload):
    # Why: stresses positivity alone (fast path sets p50, full scans p90); bypasses flags and tuples.
    name = "minor-scan"
    trace_ops = 70
    FAST = list(range(10, 17))  # tp_staged on positive inputs
    SLOW = [  # (route, input kind, d), one after every four fast ops
        ("oracle", "positive", 8), ("staged", "perturbed", 8), ("staged", "boundary", 8),
        ("oracle", "positive", 9), ("staged", "perturbed", 9), ("staged", "boundary", 9),
        ("staged", "perturbed", 10),
    ]
    CLASSES = _interleave([("staged", "positive", d) for d in FAST] * 4, SLOW)
    cycle = len(CLASSES)

    def make(self, spec):
        (route, kind, d), sub_seed = spec
        rng = random.Random(sub_seed)
        if kind == "positive":
            grid = ref.staircase(d, rng)
        elif kind == "boundary":
            grid = ref.staircase(d, rng, rng.randrange(ref.word_length(d)), Fraction(0))
        else:  # the last word parameter pushed just below zero: a deep negative minor
            grid = ref.staircase(d, rng, ref.word_length(d) - 1, -Fraction(1, rng.randint(10, 99)))
        return route, kind, grid, _matrix(self.pf, grid)

    def setup(self):
        self.pf = import_posiflag(self.root)
        warm = self.specs([("staged", "positive", 10), ("oracle", "positive", 7)], 1)
        return warm, self.specs(self.CLASSES, 20)

    def run(self, inp):
        route, _, _, m = inp
        return (self.pf.tp_staged if route == "staged" else self.pf.tp_oracle)(m)

    def check(self, inp, verdict):
        route, kind, grid, _ = inp
        want = {"positive": "Positive", "boundary": "NonnegativeBoundary",
                "perturbed": "Outside"}[kind]
        status, w = verdict.status.value, verdict.witness
        if status != want:
            return f"{route} {kind} d={len(grid)}: status {status}, want {want}"
        if (w is None) != (kind == "positive"):
            return f"{route} {kind} d={len(grid)}: witness {w}"
        if w is not None:
            rows, cols = w.index.rows, w.index.cols
            value = ref.minor(grid, rows, cols)
            nontrivial = all(i <= j for i, j in zip(rows, cols))
            sign_ok = value == 0 if kind == "boundary" else value < 0
            if w.value != value or not nontrivial or not sign_ok:
                return f"{route} {kind}: witness {rows}{cols}={w.value}, reference {value}"
        return None


class PowerThreshold(Workload):
    # Why: map-sweep's tuples/flags/linalg path with one anchor pair reused over growing powers.
    name = "power-threshold"
    trace_ops = 15
    # a spans per d chosen so that ops cost about 0.03-0.35 s; few cases,
    # so that each is timed many times in one run
    CASES = ([(3, a) for a in (8, 10, 12, 14)] + [(4, a) for a in (3, 5, 7, 9)]
             + [(5, a) for a in (2, 4, 6, 7)] + [(6, a) for a in (1, 3, 5)])
    cycle = len(CASES)

    def make(self, spec):
        pf = self.pf
        (d, a), _ = spec
        return d, a, _matrix(pf, ref.pascal(d)), pf.Flag(_matrix(pf, ref.sheared_descending(d, a)))

    def setup(self):
        self.pf = import_posiflag(self.root)
        order = list(self.CASES)  # every case once per rotation, in seeded order
        self.rng.shuffle(order)
        return self.specs([(3, 2), (4, 1)], 1), self.specs(order, 20)

    def run(self, inp):
        _, _, u, g = inp
        return self.pf.power_positivity_threshold(u, g)

    def check(self, inp, t):
        d, a, _, _ = inp
        want = (d - 1) * a + 1
        return None if t == want else f"d={d} a={a}: threshold {t}, want {want}"


def _hyperbolic(rng):
    """A 2x2 with rational eigenvalues s, 1/s: h diag(s, 1/s) h^-1, det h = 1."""
    s = rng.choice([Fraction(2), Fraction(3, 2), Fraction(5, 4)])
    (a, b), (c, e) = rng.choice([((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)),
                                 ((1, 0), (1, 1))])
    h = [[Fraction(a), Fraction(b)], [Fraction(c), Fraction(e)]]
    h_inv = [[Fraction(e), Fraction(-b)], [Fraction(-c), Fraction(a)]]
    return ref.matmul(ref.matmul(h, [[s, 0], [0, 1 / s]]), h_inv)


class CliBatch(Workload):
    # Why: the only workload paying start-up, imports, click and fileio, and running dynamics.
    name = "cli-batch"
    in_process = False
    trace_ops = 20
    # map-check runs twice per rotation: a fifth of the ops form one slower
    # class, so op_p90_ref falls inside it rather than on start-up noise
    COMMANDS = ["pascal", "sym-power", "veronese", "tp-check", "map-check", "tuple-check",
                "flags-transverse", "threshold", "limit-demo", "map-check"]
    cycle = len(COMMANDS)

    def __init__(self, root: Path, seed: int, work: Path):
        super().__init__(root, seed, work)
        self.env = child_env(root)

    # an op is interpreter start and imports, then Fraction arithmetic: the
    # reference is a fresh interpreter summing Fractions for about 25 ms.
    # It imports neither numpy nor click, so that it stays well below the
    # ops' peak memory, which peak_rss_mb takes over all children; and it
    # is run after every other op only, to keep its cost down.
    REFERENCE_CHILD = ("from fractions import Fraction\n"
                       "total = Fraction(0)\n"
                       "for i in range(1, 6000):\n"
                       "    total += Fraction(1, i % 97 + 1)\n")
    reference_every = 2

    def reference(self) -> float:
        start = perf_counter()
        # with pipes, the end of the child is seen at once; a bare wait with
        # a timeout polls, and would round the time up by up to 50 ms
        subprocess.run([sys.executable, "-c", self.REFERENCE_CHILD], env=self.env,
                       capture_output=True, check=True, timeout=60)
        return perf_counter() - start

    def _file(self, text: str) -> str:
        path = self.work / f"in-{self._files}.txt"
        self._files += 1
        path.write_text(text)
        return str(path)

    def make(self, spec):
        cmd, sub_seed = spec
        rng = random.Random(sub_seed)
        if cmd == "pascal":
            d = rng.randint(4, 12)
            return cmd, ["--d", str(d)], ref.pascal(d)
        if cmd == "sym-power":
            d = rng.randint(3, 7)
            g = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            want = ref.sym_power(g[0][0], g[0][1], g[1][0], g[1][1], d)
            return cmd, ["--d", str(d), "--g", self._file(ref.format_matrix(g))], want
        if cmd == "veronese":
            d, pts = rng.randint(3, 5), ref.cyclic_points(5, rng, 4)
            want = [ref.veronese_frame(p, q, d) for p, q in pts]
            return cmd, ["--d", str(d), "--points", self._file(ref.format_points(pts))], want
        if cmd == "tp-check":
            grid = ref.staircase(rng.randint(5, 7), rng)
            return cmd, ["--input", self._file(ref.format_matrix(grid)), "--method", "both",
                         "--format", "machine"], None
        if cmd in ("tuple-check", "flags-transverse", "map-check"):
            n = 7 if cmd == "map-check" else 5
            pts = ref.cyclic_points(n, rng, 4)
            frames = [ref.veronese_frame(p, q, 3) for p, q in pts]
            if cmd == "tuple-check":
                args = ["--flags", self._file(ref.format_frames(frames)), "--method", "both"]
            elif cmd == "flags-transverse":
                i, j = sorted(rng.sample(range(1, n + 1), 2))
                args = ["--input", self._file(ref.format_frames(frames)),
                        "--pair", str(i), str(j)]
            else:
                args = ["--sample", self._file(ref.format_sample(pts, frames))]
            return cmd, args + ["--format", "machine"], None
        if cmd == "threshold":
            d, a = rng.randint(3, 4), rng.randint(2, 5)
            return cmd, ["--u", self._file(ref.format_matrix(ref.pascal(d))),
                         "--flag", self._file(ref.format_frames([ref.sheared_descending(d, a)])),
                         "--format", "machine"], (d - 1) * a + 1
        d, j = rng.choice([(3, 1), (5, 1), (5, 2), (7, 3)])
        iters = rng.randint(15, 25)
        return cmd, ["--d", str(d), "--j", str(j), "--g",
                     self._file(ref.format_matrix(_hyperbolic(rng))),
                     "--iters", str(iters)], iters

    def setup(self):
        self._files = 0
        return self.specs(["pascal"], 1), self.specs(self.COMMANDS, 16)

    def run(self, inp):
        cmd, args, _ = inp
        env = self.env
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "posiflag.cli", cmd, *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), cmd, *args]
            env = dict(env, PERFBENCH_OP=str(self.traced_calls),
                       PERFBENCH_TRACE_OUT=str(self.trace_dir / f"op-{self.traced_calls}.json"))
            self.traced_calls += 1
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        cmd, args, want = inp
        code, stdout, stderr = out
        if code != 0:
            return f"{cmd}: exit {code}: {stderr.strip()[-200:]}"
        lines = stdout.splitlines()
        if cmd in ("pascal", "sym-power"):
            ok = ref.parse_matrices(stdout) == [want]
        elif cmd == "veronese":
            ok = ref.parse_matrices(stdout) == want
        elif cmd in ("tp-check", "tuple-check"):
            recs = [ref.record_fields(line) for line in lines]
            ok = len(recs) == 2 and all(r.get("status") == "Positive" for r in recs)
        elif cmd == "flags-transverse":
            ok = [ref.record_fields(line).get("transverse") for line in lines] == ["true"]
        elif cmd == "map-check":
            rec = ref.record_fields(lines[0]) if len(lines) == 1 else {}
            ok = (rec.get("status"), rec.get("triples"), rec.get("quads")) == (
                "consistent", "1", str(comb(7, 4)))
        elif cmd == "threshold":
            ok = [ref.record_fields(line).get("t") for line in lines] == [str(want)]
        else:
            ok = _limit_series_ok(lines, want)
        return None if ok else f"{cmd} {' '.join(args)}: unexpected output {stdout[:200]!r}"


def _limit_series_ok(lines: list[str], iters: int) -> bool:
    """CSV header, one row per n, and some SVD flag within 1/100 of the first distance."""
    if not lines or lines[0] != "n,distance,min_gap" or len(lines) != iters + 1:
        return False
    dists = []
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 3 or cells[0] != str(n) or float(cells[2]) <= 0:
            return False
        if cells[1] != "skipped":
            dists.append(float(cells[1]))
    return bool(dists) and min(dists) <= dists[0] / 100


WORKLOADS = {cls.name: cls for cls in (MapSweep, MinorScan, PowerThreshold, CliBatch)}
