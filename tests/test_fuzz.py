"""Fuzz tests of the text parsers and the file-reading CLI subcommands.

Arbitrary text, token soup and mutated well-formed files go through the
four parsers and through every subcommand that reads a file: `tp-check`,
`threshold`, `map-check`, `tuple-check`, `flags-transverse`, `sym-power`,
`barbot`, `veronese` and `limit-demo`, the last with a few iterations
only.  A parser either returns or raises ParseError; a subcommand always
ends in one of the documented exit codes 0..4, never in a traceback.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posiflag import ParseError
from posiflag.cli import main
from posiflag.fileio import parse_frames, parse_matrix, parse_points, parse_sample
from helpers import CliRunner

SETTINGS = settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# values a parser must refuse: zero denominators, signs in the wrong place,
# floats, non-ASCII digits, and an integer over the digit limit
BAD_VALUES = ["1/0", "0/0", "2/-3", "--1", "x", "1e3", "1.5", "٣", "9" * 4301]
TOKENS = [
    "dim", "dim:", "entries", "entries:", "frame", "point", "#", ":", "\n",
    "0", "1", "-1", "2", "3", "+2", "1/2", "-3/4", *BAD_VALUES,
]

ENTRIES = ["0", "1", "2", "-1", "1/2", "-2/3", "3"]


def matrix_text(rng: random.Random, d: int, unipotent: bool) -> str:
    rows = []
    for i in range(d):
        if unipotent:
            row = ["0"] * i + ["1"] + [rng.choice(ENTRIES) for _ in range(d - i - 1)]
        else:
            row = [rng.choice(ENTRIES) for _ in range(d)]
        rows.append(" ".join(row))
    return f"dim {d}\nentries\n" + "\n".join(rows) + "\n"


SHAPES = ["matrix", "unipotent", "frame", "frames", "sample", "points"]


def well_formed(rng: random.Random, shape: str, d: int) -> str:
    """A file of the given shape with d x d matrices."""
    if shape in ("matrix", "unipotent"):
        return matrix_text(rng, d, shape == "unipotent")
    if shape in ("frame", "frames"):
        n = 1 if shape == "frame" else rng.randint(1, 4)
        return "".join("frame\n" + matrix_text(rng, d, False) for _ in range(n))
    points = [(rng.randint(-4, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 5))]
    if shape == "points":
        return "".join(f"point {p} {q}\n" for p, q in points)
    return "".join(
        f"point {p} {q}\nframe\n" + matrix_text(rng, d, False) for p, q in points
    )


@st.composite
def texts(draw, shape=None, d=None):
    """Free text, token soup, or a well-formed file (of `shape`, else any)
    with d x d matrices (else 1..4): intact, with one value made bad, or
    with a few tokens dropped, replaced or inserted."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = rng.choices(["text", "tokens", "bad value", "mutated", "intact"], [1, 1, 2, 2, 3])[0]
    if kind == "text":
        return draw(st.text(max_size=60))
    if kind == "tokens":
        return " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=30)))
    text = well_formed(rng, shape or rng.choice(SHAPES), d or rng.randint(1, 4))
    if kind == "intact":
        return text
    tokens = text.split()
    if kind == "bad value":
        values = [i for i, t in enumerate(tokens) if t[-1].isdigit()]
        tokens[rng.choice(values)] = rng.choice(BAD_VALUES)
        return " ".join(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        op = rng.choice(["drop", "swap", "insert"])
        if op == "drop":
            del tokens[i]
        elif op == "swap":
            tokens[i] = rng.choice(TOKENS)
        else:
            tokens.insert(i, rng.choice(TOKENS))
        if not tokens:
            break
    return " ".join(tokens)


@SETTINGS
@given(texts())
def test_parsers_return_or_raise_parse_error(text):
    for parse in (parse_matrix, parse_frames, parse_points, parse_sample):
        try:
            parse(text)
        except ParseError:
            pass


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, tmp_path, args, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    result = runner.invoke(main, [a if a not in files else str(tmp_path / a) for a in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert 0 <= result.exit_code <= 4, result.output
    return result.exit_code


@st.composite
def command_inputs(draw):
    """Inputs for tp-check, threshold and map-check, mostly of the right shape."""
    d = draw(st.integers(1, 4))
    return (
        draw(texts("unipotent", d)), draw(texts("frame", d)),
        draw(texts("sample", draw(st.integers(1, 3)))),
    )


@SETTINGS
@given(command_inputs())
def test_file_commands_end_in_documented_exit_codes(runner, tmp_path, inputs):
    u, flag, sample = inputs
    invoke(runner, tmp_path, ["tp-check", "--input", "m.txt", "--method", "both",
                              "--emit", "witness"], {"m.txt": u})
    invoke(runner, tmp_path, ["threshold", "--u", "u.txt", "--flag", "f.txt", "--cap", "20"],
           {"u.txt": u, "f.txt": flag})
    invoke(runner, tmp_path, ["map-check", "--sample", "s.txt"], {"s.txt": sample})


# (d, j) for barbot and limit-demo, mostly valid (d odd >= 3, 1 <= j <= (d-1)/2)
SHAPES_DJ = [(3, 1), (5, 1), (5, 2), (7, 3), (1, 1), (4, 1), (3, 2), (0, -1)]
# hyperbolic 2x2 matrices: rational eigenlines (diagonal, conjugated) or not
HYPERBOLIC = ["dim 2\nentries\n2 0\n0 1/2\n", "dim 2\nentries\n7/2 -3\n3/2 -1\n",
              "dim 2\nentries\n2 1\n1 1\n"]


@st.composite
def generator_inputs(draw):
    """Inputs for the other file-reading subcommands: flags files, 2x2
    matrices (sometimes hyperbolic, sometimes of another size) and point
    lists, with small and sometimes invalid shape parameters."""
    d, j = draw(st.sampled_from(SHAPES_DJ))
    return {
        "flags": draw(texts("frames", draw(st.integers(1, 4)))),
        "pair": [str(draw(st.integers(0, 5))) for _ in range(2)],
        "g": draw(st.one_of(st.sampled_from(HYPERBOLIC),
                            texts("matrix", draw(st.sampled_from([2, 2, 2, 1, 3]))))),
        "points": draw(texts("points")),
        "d": str(d),
        "j": str(j),
        "emit": draw(st.sampled_from(["spec", "basis", "matrix", "flags"])),
        "iters": str(draw(st.integers(0, 3))),
    }


@SETTINGS
@given(generator_inputs())
def test_generator_commands_end_in_documented_exit_codes(runner, tmp_path, inputs):
    files = {"f.txt": inputs["flags"], "g.txt": inputs["g"], "p.txt": inputs["points"]}
    d, j = inputs["d"], inputs["j"]
    for args in (
        ["tuple-check", "--flags", "f.txt", "--method", "both"],
        ["flags-transverse", "--input", "f.txt", "--pair", *inputs["pair"]],
        ["sym-power", "--d", d, "--g", "g.txt"],
        ["barbot", "--d", d, "--j", j, "--emit", inputs["emit"], "--g", "g.txt",
         "--points", "p.txt"],
        ["veronese", "--d", d, "--points", "p.txt"],
        ["limit-demo", "--d", d, "--j", j, "--g", "g.txt", "--iters", inputs["iters"]],
    ):
        invoke(runner, tmp_path, args, files)
