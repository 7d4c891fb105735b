"""The public surface stays as small as the workbench needs.

A function exported from ``orelab`` must be used by the package itself (a
suite, the CLI, another layer) or by the benchmark in ``bench/``. Tests do
not count: a function only its own tests call is dead weight. The few
exports kept for users of the library are listed below, each with its
reason.
"""

import ast
import inspect
from pathlib import Path

import orelab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orelab"

ALLOWED_UNUSED = {
    "tree_loads": "reads back the JSON lines that gen-ore --tree-out writes",
    "clear_recognition_cache": "the only way to release the unbounded recognition memo",
    "colorable": "the witness-returning, re-verified form of first_coloring",
    "is_isomorphic": "the isomorphism predicate over canonical_key for library users",
}


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


def test_every_exported_function_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((ROOT / "bench").glob("*.py"))
    unused = []
    for name in _exported_functions():
        home = Path(inspect.getsourcefile(getattr(orelab, name))).resolve()
        used = any(name in _names_used(p, name if p.resolve() == home else None) for p in sources)
        used = used or any(name in _names_used(p, None) for p in bench)
        if not used and name not in ALLOWED_UNUSED:
            unused.append(name)
    assert unused == [], f"exported but called only by tests: {unused}"


def test_allowlist_names_exported_functions():
    assert set(ALLOWED_UNUSED) <= set(_exported_functions())
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())
