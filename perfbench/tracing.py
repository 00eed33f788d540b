"""Per-layer tracing by wrapping posiflag's public functions from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
posiflag module that binds it (a function imported with `from .x import f`
is a separate binding in the importing module), and traced methods on
their class.  Each call records a span (name, start, end, parent, op id)
in memory; `summary()` folds the spans into call counts and self times
(span time minus the time of its direct child spans) per layer metric.
A name that no longer exists is reported as absent, not as an error, so
that deleting a private helper does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric, module, attribute); "Class.method" attributes are patched on the class
TRACED = [
    ("linalg.matmul", "posiflag.linalg", "Matrix.__matmul__"),
    ("linalg.inverse", "posiflag.linalg", "Matrix.inverse"),
    ("linalg.elim", "posiflag.linalg", "_grid_det"),
    ("linalg.elim", "posiflag.linalg", "_grid_rank"),
    ("linalg.elim", "posiflag.linalg", "_grid_kernel"),
    ("positivity.staged", "posiflag.positivity", "tp_staged"),
    ("positivity.oracle", "posiflag.positivity", "tp_oracle"),
    ("flags.transverse", "posiflag.flags", "transverse"),
    ("flags.adapted_basis", "posiflag.flags", "adapted_basis"),
    ("flags.transporter", "posiflag.flags", "transporter"),
    ("flags.flag_eq", "posiflag.flags", "Flag.__eq__"),
    ("flags.apply", "posiflag.flags", "Flag.apply"),
    ("tuples.chain", "posiflag.tuples", "is_positive_tuple_chain"),
    ("tuples.quad", "posiflag.tuples", "is_positive_tuple_quad"),
    ("tuples.sample_check", "posiflag.tuples", "check_sampled_positivity"),
    ("reps.sym_power", "posiflag.reps", "sym_power"),
    ("reps.flag_build", "posiflag.reps", "veronese_flag"),
    ("reps.flag_build", "posiflag.reps", "barbot_flag"),
    ("dynamics.threshold", "posiflag.dynamics", "power_positivity_threshold"),
    ("dynamics.limit", "posiflag.dynamics", "limit_convergence"),
    ("dynamics.svd", "posiflag.dynamics", "svd_flag"),
    ("fileio.parse", "posiflag.fileio", "parse_matrix"),
    ("fileio.parse", "posiflag.fileio", "parse_frames"),
    ("fileio.parse", "posiflag.fileio", "parse_points"),
    ("fileio.parse", "posiflag.fileio", "parse_sample"),
    ("fileio.format", "posiflag.fileio", "format_matrix"),
    ("fileio.format", "posiflag.fileio", "format_frames"),
    ("fileio.format", "posiflag.fileio", "format_points"),
    ("fileio.format", "posiflag.fileio", "format_sample"),
]

# Patched only in the one module named: each call the threshold search
# makes to is_positive_triple is one scanned power t.
STEP = ("dynamics.threshold.step", "posiflag.dynamics", "is_positive_triple")

# exceptions that end a chain or a threshold step without a verdict
_RAISED = {"NotTransverse", "ZeroSuperdiagonal"}

# metrics whose self time is reported
TIMED = [
    "linalg.matmul", "linalg.inverse", "linalg.elim",
    "positivity.staged", "positivity.oracle",
    "flags.transverse", "flags.adapted_basis", "flags.transporter", "flags.flag_eq",
    "tuples.chain", "tuples.sample_check",
    "reps.sym_power", "reps.flag_build",
    "dynamics.threshold", "dynamics.limit",
    "fileio.parse", "fileio.format",
]
COUNTED = [
    "linalg.matmul", "linalg.inverse", "linalg.elim",
    "positivity.staged", "positivity.oracle",
    "flags.transverse", "flags.adapted_basis", "flags.transporter", "flags.flag_eq",
    "flags.apply",
    "tuples.chain", "tuples.quad", "tuples.sample_check",
    "reps.sym_power",
    "dynamics.threshold", "dynamics.svd",
    "fileio.parse", "fileio.format",
]


def _entry_bits(matrix) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for row in matrix.rows_tuple() for x in row),
        default=0,
    )


class Tracer:
    """Span recorder; install() wraps, uninstall() restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.op = -1  # op id stamped on new spans; -1 is set-up
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.bits_max = 0
        self._pairs: set = set()

    # -- patching -----------------------------------------------------------

    def install(self):
        self.absent = []
        for metric, module, attr in TRACED:
            self._patch(metric, module, attr, everywhere=True)
        self._patch(*STEP, everywhere=False)

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches = []

    def _patch(self, metric: str, module: str, attr: str, everywhere: bool):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{metric} ({module}.{attr})")
            return
        wrapper = self._wrap(metric, original)
        if owner_name:
            targets = [(owner, name)]
        elif everywhere:
            targets = [
                (m, key)
                for mname, m in list(sys.modules.items())
                if mname == "posiflag" or mname.startswith("posiflag.")
                for key, value in list(vars(m).items())
                if value is original
            ]
        else:
            targets = [(mod, name)]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def _wrap(self, metric: str, fn):
        spans, stack = self.spans, self._stack
        post = self._post_hooks(metric, fn)
        from posiflag.linalg import Matrix

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = post.before(args, kwargs) if post else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ in _RAISED:
                    self.counters[f"{metric}.raised"] += 1
                raise
            finally:
                spans[idx] = (metric, start, perf_counter(), parent, self.op)
                stack.pop()
            if post:
                post.after(state, result)
            if isinstance(result, Matrix):
                bits = _entry_bits(result)
                if bits > self.bits_max:
                    self.bits_max = bits
            return result

        return traced

    def _post_hooks(self, metric: str, fn):
        if metric in ("positivity.staged", "positivity.oracle"):
            return _MinorCount(self, metric, fn)
        if metric == "flags.adapted_basis":
            return _PairCount(self)
        return None

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and self times per metric, mergeable across processes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "bits_max": self.bits_max,
            "distinct_pairs": len(self._pairs),
            "absent": list(self.absent),
        }

    def extend(self, spans):
        """Append another process's spans, re-basing their parent indices."""
        base = len(self.spans)
        self.spans += [(n, s, e, p + base if p >= 0 else -1, op) for n, s, e, p, op in spans]

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _MinorCount:
    """Injects a DetCounter into a minor scan and adds up its evaluations."""

    def __init__(self, tracer: Tracer, metric: str, fn):
        import posiflag.positivity as positivity

        self.tracer = tracer
        self.metric = metric
        self.counter_type = getattr(positivity, "DetCounter", None)
        self.enabled = (
            self.counter_type is not None
            and "counter" in inspect.signature(fn).parameters
        )
        note = "positivity.minor_evals (DetCounter, counter=)"
        if not self.enabled and note not in tracer.absent:
            tracer.absent.append(note)

    def before(self, args, kwargs):
        if not self.enabled:
            return None
        if kwargs.get("counter") is None:
            kwargs["counter"] = self.counter_type()
        counter = kwargs["counter"]
        return counter, counter.evaluations

    def after(self, state, verdict):
        if state is not None:
            counter, before = state
            self.tracer.counters["positivity.minor_evals"] += counter.evaluations - before
        if self.metric == "positivity.staged" and not getattr(verdict, "is_positive", True):
            self.tracer.counters["positivity.fallback.calls"] += 1


class _PairCount:
    """Records which (f, h) frame pairs adapted_basis was asked for."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        f, h = args[:2]
        return f.frame, h.frame

    def after(self, state, result):
        self.tracer._pairs.add(state)


def merge(summaries: list[dict]) -> dict:
    """Combine summaries of several processes (sums, and the max of maxima)."""
    out = {"calls": Counter(), "self_s": defaultdict(float), "counters": Counter(),
           "bits_max": 0, "distinct_pairs": 0, "absent": []}
    for s in summaries:
        out["calls"].update(s["calls"])
        for k, v in s["self_s"].items():
            out["self_s"][k] += v
        out["counters"].update(s["counters"])
        out["bits_max"] = max(out["bits_max"], s["bits_max"])
        out["distinct_pairs"] += s["distinct_pairs"]
        out["absent"] += [a for a in s["absent"] if a not in out["absent"]]
    return out


def layer_metrics(s: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that come from spans."""
    calls, self_s, counters = s["calls"], s["self_s"], s["counters"]
    m: dict[str, float] = {}
    for name in COUNTED:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in TIMED:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["linalg.entry_bits.max"] = s["bits_max"]
    m["positivity.minor_evals"] = counters.get("positivity.minor_evals", 0)
    m["positivity.fallback.calls"] = counters.get("positivity.fallback.calls", 0)
    ab_calls = calls.get("flags.adapted_basis", 0)
    m["flags.adapted_basis.distinct_ratio"] = s["distinct_pairs"] / ab_calls if ab_calls else 1.0
    m["tuples.chain.raised"] = counters.get("tuples.chain.raised", 0)
    m["dynamics.threshold.t_scanned"] = calls.get(STEP[0], 0)
    m["dynamics.threshold.t_skipped"] = counters.get(f"{STEP[0]}.raised", 0)
    return m
