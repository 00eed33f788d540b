"""Contract of the frozen value classes: field order, construction by
position or by name, repr, equality within one class, hash of the field
tuple, immutability, and copy and pickle by reconstruction."""

import copy
import pickle

import pytest

from posiflag import (
    BadParameters,
    BarbotSpec,
    DimensionMismatch,
    Flag,
    FlagMapSample,
    Matrix,
    MinorIndex,
    MoebiusElement,
    PreconditionViolated,
    ProjectivePoint,
    SingularProfile,
    adapted_basis,
    barbot_spec,
    boundary_corner_check,
    check_sampled_positivity,
    is_positive_tuple_chain,
    limit_convergence,
    standard_flags,
    svd_flag,
    tp_staged,
    veronese_flag,
)
from posiflag.positivity import bench


def _sample() -> FlagMapSample:
    points = tuple(ProjectivePoint(p, q) for p, q in ((1, 0), (1, 1), (0, 1), (-1, 1)))
    return FlagMapSample(points, tuple(veronese_flag(x, 3) for x in points))


def _outside():
    return tp_staged(Matrix(((1, -1), (0, 1))))


def _round_trips(value) -> list:
    """value copied, deep-copied and pickled at every protocol."""
    return [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


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
    "BarbotSpec": (lambda: barbot_spec(5, 2), ("d", "j")),
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
    "FloatFlag": (lambda: svd_flag([[3.0, 1.0], [0.0, 1.0]]), ("frame", "min_gap")),
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

    kwargs = dict(zip(fields, values))
    for bad_args, bad_kwargs in (
        (values + values[:1], {}),  # one positional too many
        (values[:-1], {}),  # one field missing
        ((), {**kwargs, "bogus": 1}),  # an unknown keyword
        (values[:1], kwargs),  # the first field by position and by name
    ):
        with pytest.raises(TypeError):
            type(a)(*bad_args, **bad_kwargs)

    for clone in _round_trips(a):
        assert type(clone) is type(a) and clone == a and repr(clone) == repr(a)
        if name == "AdaptedBasis":
            assert clone.inverse == a.inverse
        if name == "BarbotSpec":
            assert (clone.k, clone.perm) == (a.k, a.perm) == (1, (1, 4, 2, 5, 3))

    if name == "AdaptedBasis":
        object.__setattr__(b, "inverse", Matrix.reversal(3))
        assert b.inverse != a.inverse == a.matrix.inverse()
        assert a == b and repr(a) == repr(b) and "inverse" not in repr(a)


def test_keywords_run_the_checks():
    """A value built by keywords passes the same checks as one built by position."""
    sample = _sample()
    bad = [
        (BadParameters, lambda: BarbotSpec(d=4, j=1)),
        (BadParameters, lambda: SingularProfile(values=(1.0, 2.0))),
        (BadParameters, lambda: MinorIndex(rows=(2, 1), cols=(3, 4))),
        (DimensionMismatch, lambda: MoebiusElement(matrix=Matrix.identity(3))),
        (PreconditionViolated,
         lambda: FlagMapSample(points=sample.points, flags=sample.flags[:-1])),
    ]
    for error, build in bad:
        with pytest.raises(error):
            build()
    assert ProjectivePoint(p=2, q=-4) == ProjectivePoint(-1, 2)


def test_copies_rerun_the_checks():
    profile = SingularProfile((2.0, 1.0))
    object.__setattr__(profile, "values", (1.0, 2.0))
    with pytest.raises(BadParameters, match="must not increase"):
        pickle.loads(pickle.dumps(profile))
    with pytest.raises(BadParameters, match="must not increase"):
        copy.copy(profile)


@pytest.mark.parametrize(
    "value, slots",
    [(Matrix(((1, 2), (3, 5))), ("_rows", "dim")),
     (Flag(Matrix(((1, 2), (3, 5)))), ("frame", "dim", "_rows"))],
    ids=["Matrix", "Flag"],
)
def test_matrix_and_flag_are_immutable_and_copy_by_reconstruction(value, slots):
    message = f"^{type(value).__name__} is immutable$"
    for slot in slots:
        with pytest.raises(AttributeError, match=message):
            setattr(value, slot, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, slot)
    assert value.dim == 2
    for clone in _round_trips(value):
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)
        assert clone.dim == value.dim
