"""Contract of the frozen value classes: field order, construction, repr,
equality within one class, hash of the field tuple, and immutability."""

import pytest

from posiflag import (
    FlagMapSample,
    Matrix,
    MinorIndex,
    MoebiusElement,
    ProjectivePoint,
    SingularProfile,
    adapted_basis,
    barbot_spec,
    boundary_corner_check,
    check_sampled_positivity,
    is_positive_tuple_chain,
    limit_convergence,
    standard_flags,
    tp_staged,
    veronese_flag,
)
from posiflag.positivity import bench


def _sample() -> FlagMapSample:
    points = tuple(ProjectivePoint(p, q) for p, q in ((1, 0), (1, 1), (0, 1), (-1, 1)))
    return FlagMapSample(points, tuple(veronese_flag(x, 3) for x in points))


def _outside():
    return tp_staged(Matrix(((1, -1), (0, 1))))


# class name: (a small real instance, from the library call that returns one
# where there is such a call; its fields in order)
CASES = {
    "MinorIndex": (lambda: MinorIndex([1, 3], (2, 4)), ("rows", "cols")),
    "Witness": (lambda: _outside().witness, ("index", "value")),
    "PositivityVerdict": (_outside, ("status", "witness", "method")),
    "BoundaryReport": (
        lambda: boundary_corner_check(Matrix(((1, 1, 0), (0, 1, 1), (0, 0, 1)))),
        ("level", "failing_index", "corner_index", "corner_value"),
    ),
    "BenchRow": (lambda: bench([2], 1, 3).rows[0], ("d", "method", "dets", "time_ms")),
    "BenchReport": (lambda: bench([2], 1, 3), ("rows", "env")),
    "AdaptedBasis": (lambda: adapted_basis(*standard_flags(3)), ("matrix", "source")),
    "ProjectivePoint": (lambda: ProjectivePoint(2, -4), ("p", "q")),
    "MoebiusElement": (lambda: MoebiusElement.of(2, 1, 1, 1), ("matrix",)),
    "BarbotSpec": (lambda: barbot_spec(5, 2), ("d", "j", "k", "perm")),
    "TupleCertificate": (
        lambda: is_positive_tuple_chain(list(_sample().flags))[1],
        ("adapted", "sign", "factors", "verdicts"),
    ),
    "FlagMapSample": (_sample, ("points", "flags")),
    "SampleReport": (
        lambda: check_sampled_positivity(_sample()),
        ("status", "positive_triple", "failing_quad", "triples_scanned", "quads_checked"),
    ),
    "SingularProfile": (lambda: SingularProfile((8.0, 2.0, 1.0)), ("values",)),
    "LimitEntry": (
        lambda: limit_convergence(barbot_spec(3, 1), MoebiusElement.of(2, 0, 0, 1), 1)[0],
        ("n", "distance", "min_gap", "skipped"),
    ),
}

REPRS = {
    "MinorIndex": "MinorIndex(rows=(1, 3), cols=(2, 4))",
    "PositivityVerdict": (
        "PositivityVerdict(status=<Status.OUTSIDE: 'Outside'>, witness=Witness("
        "index=MinorIndex(rows=(1,), cols=(2,)), value=Fraction(-1, 1)), method='staged')"
    ),
    "SampleReport": (
        "SampleReport(status='consistent', positive_triple=(1, 2, 3), failing_quad=None, "
        "triples_scanned=1, quads_checked=1)"
    ),
}


@pytest.fixture(scope="module")
def instances():
    return {name: build() for name, (build, _) in CASES.items()}


@pytest.mark.parametrize("name", list(CASES))
def test_value_class_contract(name, instances):
    a, fields = instances[name], CASES[name][1]
    values = tuple(getattr(a, f) for f in fields)
    assert type(a).__name__ == name
    listed = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(a) == REPRS.get(name, f"{name}({listed})")

    b, c = type(a)(*values), type(a)(**dict(zip(fields, values)))
    assert b is not a and a == b == c and not a != b
    try:
        expected = hash(values)
    except TypeError:  # a field holds a Flag, which is unhashable, and so is the value
        for x in (a, b):
            pytest.raises(TypeError, hash, x)
    else:
        assert hash(a) == hash(b) == hash(c) == expected

    assert a != values
    for other_name, other in instances.items():
        if other_name != name:
            assert a != other and not a == other

    with pytest.raises(AttributeError):
        setattr(a, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert getattr(a, fields[0]) is values[0]

    if name == "AdaptedBasis":
        object.__setattr__(b, "inverse", Matrix.reversal(3))
        assert b.inverse != a.inverse == a.matrix.inverse()
        assert a == b and repr(a) == repr(b) and "inverse" not in repr(a)
