"""The public surface stays as small as the workbench needs.

A function exported from ``orelab``, and a public method of an exported
class, must be used by the package itself (a suite, the CLI, another layer)
or by the benchmark in ``bench/``. Tests do not count: code only its own
tests call is dead weight. The few exports kept for users of the library
are listed below, each with its reason, and an entry that gains a caller
must leave its list, so the lists only shrink.
"""

import ast
import inspect
from functools import lru_cache
from pathlib import Path

import orelab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orelab"

ALLOWED_UNUSED = {
    "tree_loads": "reads back the JSON lines that gen-ore --tree-out writes",
    "colorable": "the witness-returning, re-verified form of first_coloring",
    "is_isomorphic": "the isomorphism predicate over canonical_key for library users",
}

ALLOWED_UNUSED_METHODS = {
    "Graph.cycle": "builds C_n, the standard odd-critical family that library users and tests start from",
    "Graph.path": "builds P_n, the standard tree family that library users and tests start from",
}


@lru_cache(maxsize=None)
def _names_used(path: Path, skip_def: str | None) -> set[str]:
    """Names a file loads, ``orelab.<name>`` attributes and string constants
    (the bench lists its traced functions as strings), leaving out the body
    of the function ``skip_def`` so recursion does not count as a use."""
    found: set[str] = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == skip_def:
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "orelab":
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def _exported_functions() -> list[str]:
    return [name for name in orelab.__all__ if inspect.isfunction(getattr(orelab, name))]


def _unused_functions() -> list[str]:
    """Exported functions that neither the package nor the bench calls."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((ROOT / "bench").glob("*.py"))
    unused = []
    for name in _exported_functions():
        home = Path(inspect.getsourcefile(getattr(orelab, name))).resolve()
        used = any(name in _names_used(p, name if p.resolve() == home else None) for p in sources)
        used = used or any(name in _names_used(p, None) for p in bench)
        if not used:
            unused.append(name)
    return unused


def test_every_exported_function_has_a_caller():
    unused = [name for name in _unused_functions() if name not in ALLOWED_UNUSED]
    assert unused == [], f"exported but called only by tests: {unused}"


def test_allowlist_names_exported_functions():
    assert set(ALLOWED_UNUSED) <= set(_exported_functions())
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())
    stale = sorted(set(ALLOWED_UNUSED) - set(_unused_functions()))
    assert stale == [], f"allowlisted but called now, drop from ALLOWED_UNUSED: {stale}"


@lru_cache(maxsize=None)
def _attributes_used(path: Path, skip: tuple[str, str] | None) -> set[str]:
    """Attribute names a file reads (``x.name``) and its string constants,
    leaving out the body of method ``skip`` = (class, method) and the
    attributes of imported modules, so ``sys.path`` is not a use of
    ``Graph.path``."""
    tree = ast.parse(path.read_text())
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    found: set[str] = set()

    def visit(node, owner: str | None):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.FunctionDef) and (owner, node.name) == skip:
            return
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in modules:
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _public_methods() -> list[tuple[type, str]]:
    out = []
    for name in orelab.__all__:
        cls = getattr(orelab, name)
        if not inspect.isclass(cls) or not cls.__module__.startswith("orelab"):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod, property)):
                out.append((cls, attr))
    return out


def _unused_methods() -> list[str]:
    """Public methods, as Class.method, that neither the package nor the
    bench calls."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    unused = []
    for cls, attr in _public_methods():
        home = Path(inspect.getsourcefile(cls)).resolve()
        skip = (cls.__name__, attr)
        if not any(attr in _attributes_used(p, skip if p.resolve() == home else None) for p in sources):
            unused.append(f"{cls.__name__}.{attr}")
    return unused


def test_every_public_method_has_a_caller():
    unused = [name for name in _unused_methods() if name not in ALLOWED_UNUSED_METHODS]
    assert unused == [], f"public methods called only by tests: {unused}"


def test_method_allowlist_names_public_methods():
    methods = {f"{cls.__name__}.{attr}" for cls, attr in _public_methods()}
    assert set(ALLOWED_UNUSED_METHODS) <= methods
    assert all(reason.strip() for reason in ALLOWED_UNUSED_METHODS.values())
    stale = sorted(set(ALLOWED_UNUSED_METHODS) - set(_unused_methods()))
    assert stale == [], f"allowlisted but called now, drop from ALLOWED_UNUSED_METHODS: {stale}"
