"""The package's modules import each other only downward.

Layers, lowest first: ``prob``; then ``info``, ``lp`` and ``io``; then
``rates``; then ``fm``, ``optimize`` and ``sim``; then ``cli``; then
``__main__``, which runs ``cli``.  A module may import from a lower layer
only, at module level or inside a function.  ``__init__`` re-exports the
public surface and is exempt.

No module imports scipy at module level, so ``import tworelay`` does not
load it; a function that needs scipy imports it where it is used.

No module calls ``object.__new__``, the one way to build a pmf around the
checks its constructor runs.

Every function that the benchmark's per-layer tracer wraps
(``perfbench/layers.py``'s ``SPANS``) exists in the package: the tracer
skips a missing name, so a deleted or renamed function would otherwise read
as a layer with zero calls.

Every name the package exports is used by code outside ``tests/``: by
another part of the package, a demo or the benchmark.  An export that only
tests call is surface kept for nothing.
"""

import ast
import importlib
from pathlib import Path

import pytest

import tworelay

LAYERS = (
    ("prob",), ("info", "lp", "io"), ("rates",), ("fm", "optimize", "sim"), ("cli",),
    ("__main__",),
)
LAYER = {name: depth for depth, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(tworelay.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH_LAYERS = ROOT / "perfbench" / "layers.py"

# exports with no caller yet, each awaiting one the roadmap names
UNCALLED_EXPORTS = {
    "embed_t1_in_t2",  # warm starts of an alphabet-size sweep (roadmap item 9)
}


def perfbench_spans():
    """The literal ``SPANS`` tuple of ``perfbench/layers.py``, read from its
    source without running it."""
    tree = ast.parse(PERFBENCH_LAYERS.read_text(encoding="utf-8"))
    (value,) = (
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)
    )
    return ast.literal_eval(value)


def package_imports(path: Path) -> set[str]:
    """What one source file imports from the package: a module name, or a
    name read from the package itself (``from . import x``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            module = node.module or ""
            if node.level == 1:
                module = f"tworelay.{module}".rstrip(".")
            if module == "tworelay":
                found.update(alias.name for alias in node.names)
            elif module.startswith("tworelay."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("tworelay.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_go_downward(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    # a name that is no module comes from ``__init__``, above every layer
    upward = sorted(m for m in imported if LAYER.get(m, len(LAYERS)) >= LAYER[module])
    assert not upward, f"{module} imports {upward} from its own layer or above"


def load_time_imports(source: str) -> set[str]:
    """Absolute modules a source file imports when it is loaded: every import
    outside a function body, including those under ``if``, ``try`` or a class."""
    found, stack = set(), [ast.parse(source)]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.add(child.module)
            stack.append(child)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_level_scipy(path):
    eager = sorted(m for m in load_time_imports(path.read_text(encoding="utf-8"))
                   if m.partition(".")[0] == "scipy")
    assert not eager, f"{path.name} imports {eager} at module level"


def test_load_time_imports_skip_function_bodies():
    source = (
        "import numpy as np\n"
        "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy import optimize\n"
        "def f():\n    from scipy.special import gammaln\n"
        "async def g():\n    import scipy.sparse\n"
        "h = lambda: __import__('scipy.linalg')\n"
        "from . import sim\n"
    )
    assert load_time_imports(source) == {"numpy", "scipy.stats", "scipy"}


def object_new_calls(source: str) -> list[int]:
    """Line numbers of every ``object.__new__`` call in a source file."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_object_new(path):
    lines = object_new_calls(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name} calls object.__new__ on lines {lines}"


def test_object_new_calls_found():
    source = (
        "a = object.__new__(A)\n"
        "def f():\n    return object.__new__(cls)\n"
        "b = super().__new__(B)\n"
        "c = A.__new__(A)\n"
    )
    assert object_new_calls(source) == [1, 3]


@pytest.mark.parametrize(
    "span", perfbench_spans(), ids=lambda span: f"{span[1]}.{span[2]}"
)
def test_perfbench_span_resolves(span):
    name, home, attr = span
    target = getattr(importlib.import_module(f"tworelay.{home}"), attr, None)
    assert callable(target), f"span {name} wraps tworelay.{home}.{attr}, which is missing"


def referenced_names(source: str) -> set[str]:
    """Every name a source file reads, as a variable or as an attribute;
    definitions, imports and strings (docstrings too) do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def test_referenced_names_skip_definitions_imports_and_strings():
    source = (
        '"""unused_in_docstring"""\n'
        "from tworelay import imported_only, used\n"
        "def defined(): return used(tworelay.attribute)\n"
        "assigned = 'in_a_string'\n"
    )
    assert referenced_names(source) == {"used", "tworelay", "attribute"}


def test_every_export_has_a_caller_outside_tests():
    paths = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    paths += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in paths))
    used |= {attr for _, _, attr in perfbench_spans()}  # the tracer wraps these by name
    # ``__version__`` is metadata for packaging tools, not code to call
    exports = {name for name in tworelay.__all__ if not name.startswith("__")}
    uncalled = sorted(exports - used - UNCALLED_EXPORTS)
    assert not uncalled, f"exported, but called only from tests: {uncalled}"
    # an export that gains a caller, or leaves the package, leaves the list
    assert UNCALLED_EXPORTS <= exports - used
