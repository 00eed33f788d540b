import random

import pytest

from posiflag import Matrix, ParseError
from posiflag.fileio import (
    MAX_DIGITS,
    format_frames,
    format_matrix,
    format_points,
    format_sample,
    parse_frames,
    parse_matrix,
    parse_points,
    parse_sample,
)
from helpers import gen_uniform


def test_parse_matrix_basic():
    m = parse_matrix("dim 2\nentries\n1 1/2\n0 1\n")
    assert m == Matrix((("1", "1/2"), ("0", "1")))


def test_parse_matrix_free_form():
    text = "dim: 3 entries: 1 2 3  4 5 6 7 8 9"
    m = parse_matrix(text)
    assert m.entry(3, 1) == 7


def test_parse_matrix_comments_ignored():
    text = "# header\ndim 2 # two\nentries\n1 0 # row\n0 1\n"
    assert parse_matrix(text) == Matrix.identity(2)


def test_matrix_round_trip():
    rng = random.Random(5)
    for d in (1, 2, 4, 6):
        m = gen_uniform(d, rng)
        assert parse_matrix(format_matrix(m)) == m


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("entries 1")
    with pytest.raises(ParseError):
        parse_matrix("dim 0 entries")
    with pytest.raises(ParseError):
        parse_matrix("dim x entries 1")
    with pytest.raises(ParseError):
        parse_matrix("dim 2 entries 1 0 0")
    with pytest.raises(ParseError):
        parse_matrix("dim 1 entries 0.5")
    with pytest.raises(ParseError):
        parse_matrix("dim 1 entries 1 trailing")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_matrix("dim 2 entries 1 1/0 0 1")


def test_frames_round_trip():
    rng = random.Random(9)
    frames = [gen_uniform(3, rng) for _ in range(4)]
    assert parse_frames(format_frames(frames)) == frames


def test_frames_require_keyword_and_content():
    with pytest.raises(ParseError):
        parse_frames("dim 1 entries 1")
    with pytest.raises(ParseError):
        parse_frames("")


def test_points_round_trip_and_bare_pairs():
    pts = [(1, 0), (-3, 2), (0, 5)]
    text = format_points(pts)
    assert text == "point 1 0\npoint -3 2\npoint 0 5\n"
    assert parse_points(text) == pts
    assert parse_points("1 0\n-3 2\n0 5\n") == pts


def test_points_errors():
    with pytest.raises(ParseError):
        parse_points("")
    with pytest.raises(ParseError):
        parse_points("point 1")
    with pytest.raises(ParseError):
        parse_points("1 2/3")


def test_sample_round_trip():
    rng = random.Random(2)
    records = [((1, 0), gen_uniform(2, rng)), ((-2, 7), gen_uniform(2, rng))]
    assert parse_sample(format_sample(records)) == records


def test_sample_requires_point_frame_alternation():
    with pytest.raises(ParseError):
        parse_sample("frame dim 1 entries 1")
    with pytest.raises(ParseError):
        parse_sample("point 1 0 dim 1 entries 1")
    with pytest.raises(ParseError):
        parse_sample("")


def test_token_digit_limit():
    at_limit = "9" * MAX_DIGITS
    assert parse_matrix(f"dim 1 entries -{at_limit}/{'8' * MAX_DIGITS}").entry(1, 1) < -1
    for token in ("7" * (MAX_DIGITS + 1), "1/" + "3" * 5000, "-" + "2" * 5000):
        with pytest.raises(ParseError, match=f"limit is {MAX_DIGITS} digits"):
            parse_matrix(f"dim 1 entries {token}")
    with pytest.raises(ParseError, match="5000 digits"):
        parse_points("1 " + "4" * 5000)
