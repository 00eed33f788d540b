"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "posiflag").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    """Invariants are explicit checks that raise, so they survive `python -O`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_public_names_are_exported():
    """`__all__` lists exactly the public classes and functions of the package."""
    import inspect

    import posiflag

    missing = [name for name in posiflag.__all__ if not hasattr(posiflag, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    public = {
        name for name, obj in vars(posiflag).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    unlisted = sorted(public - set(posiflag.__all__))
    assert not unlisted, f"public names missing from __all__: {unlisted}"
