"""Source-level guards on the package itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "posiflag").glob("*.py"))
MODULES = [p.stem for p in SOURCES if p.stem != "__init__"]
PYTHON_FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    """Invariants are explicit checks that raise, so they survive `python -O`."""
    lines = [node.lineno for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_name_the_standard_library_or_posiflag(path):
    """The package runs on the standard library alone: every import,
    including one under TYPE_CHECKING, names a standard module or posiflag."""
    foreign = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [(node.lineno, name) for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names | {"posiflag"}]
    assert not foreign, f"{path.name} imports outside the standard library: {foreign}"


def _literal_all(tree: ast.Module) -> set[str]:
    """The names of a module-level `__all__ = [...]` literal, if there is one."""
    names = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


@pytest.mark.parametrize(
    "path", PYTHON_FILES, ids=[f"{p.parent.name}/{p.name}" for p in PYTHON_FILES]
)
def test_no_unused_imports(path):
    """Every imported name is read somewhere in its file (no linter is assumed)."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(bound, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        (line, name) for name, line in imported.items() if name not in read | _literal_all(tree)
    )
    assert not unused, f"{path.name} imports names it never reads: {unused}"


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
    duplicated = sorted({name for name in posiflag.__all__ if posiflag.__all__.count(name) > 1})
    assert not duplicated, f"names listed twice in __all__: {duplicated}"


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined_there(name):
    """A module's `__all__` names only objects that the module itself defines,
    so each public name is declared once, where it lives."""
    module = importlib.import_module(f"posiflag.{name}")
    foreign = sorted(
        n for n in getattr(module, "__all__", ()) if getattr(module, n).__module__ != module.__name__
    )
    assert not foreign, f"{name}.py exports names defined elsewhere: {foreign}"


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of the module and of its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _reads_text(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
        node.func.attr == "read_text"
    )


def _spells_record(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and "record=" in str(node.value)


def _floats_an_entry(node: ast.AST) -> bool:
    """A float(...) call on anything but a determinant, the one scalar converted."""
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        and not (len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
                 and node.args[0].attr == "det")
    )


BOUNDARY_RULES = [
    ("cli.py", "_read", _reads_text),
    ("cli.py", "_record", _spells_record),
    ("dynamics.py", "_floats", _floats_an_entry),
]


@pytest.mark.parametrize(
    "module, owner, matches", BOUNDARY_RULES, ids=[f"{m}:{o}" for m, o, _ in BOUNDARY_RULES]
)
def test_boundary_rule_is_written_once(module, owner, matches):
    """Input files are read, machine records spelled and exact grids turned
    into floats in one function each, so every site shares its checks."""
    tree = _parse(ROOT / "src" / "posiflag" / module)
    owners = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == owner]
    assert len(owners) == 1, f"{module} must define {owner} once at module level"
    inside = {id(n) for n in ast.walk(owners[0])}
    skip = _docstrings(tree)
    hits = [n for n in ast.walk(tree) if id(n) not in skip and matches(n)]
    outside = sorted(n.lineno for n in hits if id(n) not in inside)
    assert not outside, f"{module} does outside {owner} what {owner} is for, at lines {outside}"
    assert any(id(n) in inside for n in hits), f"{owner} in {module} no longer does it"


def test_interleaved_basis_is_decoded_in_reps_only():
    """dynamics takes the block family from reps.barbot_matrix and each basis
    vector's block from reps._blocks, so it neither names sym_power nor
    reads a spec's perm: the interleaved layout is decoded in one place."""
    tree = _parse(ROOT / "src" / "posiflag" / "dynamics.py")
    hits = sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "sym_power")
        or (isinstance(node, ast.alias) and node.name == "sym_power")
        or (isinstance(node, ast.Attribute) and node.attr in ("perm", "sym_power"))
    )
    assert not hits, f"dynamics.py decodes the interleaved basis itself, at lines {hits}"


def _callers(name: str) -> list[tuple[str, str]]:
    """(file, function) of every call to `name` in the package, in source order."""
    callers = []
    for path in SOURCES:
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [
                    (path.name, fn.name) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
                ]
    return callers


def test_only_the_oracle_builds_the_full_table():
    """`_full_scan` tabulates every nontrivial minor.  It is the oracle's
    independent route, so no other code, the staged scan's fallback
    included, calls it, and only it reads the index plan and evaluates
    its levels."""
    callers = {name: _callers(name) for name in ("_full_scan", "_index_plan", "_plan_level",
                                                 "_level_table")}
    assert callers == {
        "_full_scan": [("positivity.py", "tp_oracle")],
        "_index_plan": [("positivity.py", "_full_scan")],
        "_plan_level": [("positivity.py", "_full_scan")],
        "_level_table": [("positivity.py", "_full_scan")],
    }, f"the oracle's table is built from {callers}"


def test_laplace_expansion_is_written_once():
    """The oracle's index plan expands minors along their last row by one
    step, written once and called by the plan builder alone, and nothing
    else expands by it: the staged route shares no minor evaluation with
    the oracle."""
    callers = _callers("_laplace_step")
    assert callers == [("positivity.py", "_plan_level")], f"_laplace_step is called from {callers}"


def test_start_up_builds_no_index_plan():
    """Importing posiflag and printing pascal(5) build no oracle plan and
    load no `array` module, so every command but the oracle's starts as
    before."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import posiflag\n"
         "from posiflag.cli import main\n"
         "from posiflag.positivity import _index_plan\n"
         "print(_index_plan.cache_info().misses)\n"
         "main(['pascal', '--d', '5'])\n"
         "print(_index_plan.cache_info().misses, 'array' in sys.modules)\n"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    lines = out.stdout.splitlines()
    assert (lines[0], lines[1:3], lines[-1], len(lines)) == (
        "0", ["dim 5", "entries"], "0 False", 9
    ), out.stdout


def test_elimination_is_written_once():
    """Every det, rank, solve, inverse and pair coordinate runs on one forward
    fraction-free elimination, called from these four places only."""
    callers = _callers("_bareiss")
    assert callers == [
        ("flags.py", "_coordinates"), ("linalg.py", "_det"),
        ("linalg.py", "_grid_rank"), ("linalg.py", "_scaled_solve"),
    ], f"_bareiss is called from {callers}"


def test_pair_coordinates_are_built_by_anchors_alone():
    """The tuple engine builds pair coordinates in one place, anchor by
    anchor, so every chain reads them, and every route checks the pairs
    left, through `_TupleEngine.anchors`."""
    callers = [caller for caller in _callers("_coordinates") if caller[0] == "tuples.py"]
    assert callers == [("tuples.py", "anchors")], f"_coordinates is called from {callers}"


def test_transversality_rule_is_written_once():
    """A chain that does not come out Positive builds every remaining
    anchor, and nothing else does: `anchors()` with no argument is called
    only inside `_TupleEngine.chain`, once for a zero superdiagonal and
    once for any other verdict, and no wrapper applies the rule for it."""
    sites = []
    for path in SOURCES:
        tree = _parse(path)
        owner = {id(node): fn.name for fn in tree.body for node in ast.walk(fn)
                 if isinstance(fn, ast.FunctionDef)}
        owner |= {
            id(node): f"{cls.name}.{fn.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        sites += [
            (path.name, owner.get(id(node), "module level")) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "anchors"
            and not node.args and not node.keywords
        ]
    assert sites == [("tuples.py", "_TupleEngine.chain")] * 2, f"anchors() is called at {sites}"
    wrappers = {
        node.name for node in ast.walk(_parse(ROOT / "src" / "posiflag" / "tuples.py"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    } & {"_ruled", "_engine"}
    assert not wrappers, f"tuples.py defines {sorted(wrappers)}"


def test_tuple_engine_catches_no_refusal():
    """A zero superdiagonal is a value inside the tuple engine, raised only
    where a public route hands back its result: tuples.py has no handler
    that catches ZeroSuperdiagonal."""
    handlers = sorted(
        node.lineno for node in ast.walk(_parse(ROOT / "src" / "posiflag" / "tuples.py"))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "ZeroSuperdiagonal" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    )
    assert not handlers, f"tuples.py catches ZeroSuperdiagonal at lines {handlers}"


def test_back_substitution_is_written_once():
    """Every solve, inverse, chain factor and threshold quotient c^-1 S c
    back-substitutes by one integer loop, called from these two places only."""
    callers = _callers("_back_substitute")
    assert callers == [
        ("linalg.py", "_scaled_solve"), ("linalg.py", "_quotient"),
    ], f"_back_substitute is called from {callers}"


def test_svd_kernel_has_one_entry():
    """Every singular value and vector comes out of `_svd`, which sorts them
    and completes the vectors without a direction: the Jacobi kernel
    `_hestenes` is called from there and from its own recursion only."""
    callers = _callers("_hestenes")
    assert callers == [
        ("dynamics.py", "_hestenes"), ("dynamics.py", "_svd"),
    ], f"_hestenes is called from {callers}"


def test_jordan_chain_has_two_callers():
    """The fixed flag and the threshold search take u's Jordan chain from one
    routine; nothing else builds a fixed flag's frame."""
    callers = _callers("_jordan_chain")
    assert callers == [
        ("dynamics.py", "power_positivity_threshold"), ("flags.py", "unipotent_fixed_flag"),
    ], f"_jordan_chain is called from {callers}"


def test_consecutive_minor_scan_has_three_callers():
    """The staged verdict, the boundary corner check and the threshold
    search scan consecutive minors by one condensation, called from these
    three places only."""
    callers = _callers("_contiguous_minors")
    assert callers == [
        ("dynamics.py", "power_positivity_threshold"), ("positivity.py", "_staged_scan"),
        ("positivity.py", "boundary_corner_check"),
    ], f"_contiguous_minors is called from {callers}"


def test_value_fields_are_set_in_one_constructor():
    """Value fields are set by `_Value.__init__` alone.  `object.__setattr__`
    appears only there, in the Matrix and Flag constructors and Matrix's
    unchecked `_of`, where AdaptedBasis stores its derived inverse, and
    where BarbotSpec stores its derived k and perm; of the values, only the
    two that normalize their arguments and Matrix and Flag write an
    `__init__`.  So no hand-written field setter grows back."""
    sites = []
    for path in SOURCES:
        tree = _parse(path)
        owner = {
            id(node): f"{cls.name}.{fn.name}"
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        sites += sorted(
            (path.name, owner.get(id(node), "module level")) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        )
    assert sites == [
        ("flags.py", "AdaptedBasis._check"),
        ("flags.py", "Flag.__init__"), ("flags.py", "Flag.__init__"), ("flags.py", "Flag.__init__"),
        ("linalg.py", "Matrix.__init__"), ("linalg.py", "Matrix.__init__"),
        ("linalg.py", "Matrix._of"), ("linalg.py", "Matrix._of"),
        ("linalg.py", "_Value.__init__"),
        ("reps.py", "BarbotSpec._check"), ("reps.py", "BarbotSpec._check"),
    ], f"object.__setattr__ is used at {sites}"

    for module in MODULES:
        importlib.import_module(f"posiflag.{module}")
    values, stack = [], list(importlib.import_module("posiflag.linalg")._Value.__subclasses__())
    while stack:
        cls = stack.pop()
        values.append(cls)
        stack += cls.__subclasses__()
    with_init = sorted(cls.__name__ for cls in values if "__init__" in vars(cls))
    assert with_init == ["Flag", "Matrix", "MinorIndex", "ProjectivePoint"], with_init


def test_every_private_helper_has_a_caller_in_the_package():
    """Every module-level private function and class is read somewhere in the
    package outside its own definition, so no helper stays alive only for
    the tests or for fault injection."""
    trees = {path.name: _parse(path) for path in SOURCES}
    reads: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.setdefault(getattr(node, "id", getattr(node, "attr", None)), []).append(id(node))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
            ):
                inside = {id(n) for n in ast.walk(node)}
                if all(i in inside for i in reads.get(node.name, [])):
                    orphans.append(f"{module}:{node.name}")
    assert not orphans, f"private helpers with no caller in the package: {orphans}"
