"""The public surface stays as small as the workbench needs.

A function exported from ``orelab``, a public method of an exported class,
a field of an exported dataclass and an attribute an exported exception
sets must be used by the package itself (a suite, the CLI, another layer)
or by the benchmark in ``bench/``. Tests do not count: code only its own
tests call or read is dead weight. The few exceptions are listed below,
each with its reason, and an entry that gains a caller or reader must leave
its list, so the lists only shrink. Each public entry also refuses an
argument outside its domain with its own message.
"""

import ast
import dataclasses
import importlib
import inspect
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

import orelab
from orelab import Graph, Leaf

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orelab"

ALLOWED_UNUSED = {
    "tree_loads": "reads back the JSON lines that gen-ore --tree-out writes",
    "eps_edge_bound": "the paper's main edge bound; ROADMAP item 1's eps-bound suite will call it",
    "embeddings": "bench/spans.py traces it; it goes with ROADMAP item 2's benchmark change",
}

ALLOWED_UNUSED_METHODS = {
    "Graph.cycle": "builds C_n, the standard odd-critical family that library users and tests start from",
    "Graph.path": "builds P_n, the standard tree family that library users and tests start from",
}


@lru_cache(maxsize=None)
def _names_used(path: Path, skip_def: str | None) -> set[str]:
    """Names a file loads and ``orelab.<name>`` attributes, leaving out the
    body of the function ``skip_def`` so recursion does not count as a use.
    String constants do not count: bench/spans.py names the functions it
    traces, which is not a call, and test_traced_benchmark_targets_exist
    guards those names."""
    found: set[str] = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == skip_def:
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "orelab":
            found.add(node.attr)
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


ALLOWED_UNUSED_FIELDS = {
    "Gadget.tree": "the composition tree a gadget comes from; tests/golden/catalogs.json digests it",
    "Gadget.deleted_vertex": "the vertex deleted from the realized tree; tests/golden/catalogs.json digests it",
    "Gadget.graph": "the realized tree less the deleted vertex; it goes with ROADMAP item 2's benchmark change",
    "Gadget.key_vertices": "the key vertices left in that graph; it goes with ROADMAP item 2's benchmark change",
    "GraphFormatError.offset": "gives library callers the byte offset of the failure in bad graph6 input",
    "ChargeLedger.final": "the charges the vertices end with after the rules; tests/golden/structure.json digests them",
}

SHARED_FIELD_NAMES = {
    "n": "Graph.n and CanonicalForm.n are both the vertex count of one graph",
}


@lru_cache(maxsize=None)
def _fields_read(path: Path) -> set[str]:
    """Attribute names a file reads as ``x.name``; assignments and string
    constants do not count."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _dataclass_fields() -> list[str]:
    return [
        f"{name}.{field.name}"
        for name in orelab.__all__
        if dataclasses.is_dataclass(cls := getattr(orelab, name)) and cls.__module__.startswith("orelab")
        for field in dataclasses.fields(cls)
    ]


def _exception_attributes() -> list[str]:
    """Attributes, as Class.attr, that an exported exception's own
    ``__init__`` sets on ``self``."""
    out = []
    for name in orelab.__all__:
        cls = getattr(orelab, name)
        if not (inspect.isclass(cls) and issubclass(cls, BaseException) and "__init__" in vars(cls)):
            continue
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        out += [
            f"{name}.{node.attr}"
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
        ]
    return out


def _record_fields() -> list[str]:
    return _dataclass_fields() + _exception_attributes()


def _unread_fields() -> list[str]:
    """Fields of exported dataclasses and attributes of exported exceptions,
    as Class.field, that neither the package nor the bench reads."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = set().union(*(_fields_read(p) for p in sources))
    return [name for name in _record_fields() if name.split(".")[1] not in read]


def test_every_dataclass_field_is_read():
    """A field only tests read is carried by every record for nothing; the
    value can be rebuilt where a test needs it; the same holds for an
    attribute an exception sets. Like the method audit, this matches by
    name, so a field counts as read when any ``x.<field>`` is."""
    unread = [name for name in _unread_fields() if name not in ALLOWED_UNUSED_FIELDS]
    assert unread == [], f"record fields read only by tests: {unread}"


def test_field_allowlist_names_unread_fields():
    assert set(ALLOWED_UNUSED_FIELDS) <= set(_record_fields())
    assert all(reason.strip() for reason in ALLOWED_UNUSED_FIELDS.values())
    stale = sorted(set(ALLOWED_UNUSED_FIELDS) - set(_unread_fields()))
    assert stale == [], f"allowlisted but read now, drop from ALLOWED_UNUSED_FIELDS: {stale}"


def test_no_two_exported_dataclasses_share_a_field_name():
    """The field audit matches by name, so a field that shares its name with
    a read field of another class passes it unread. Distinct names keep the
    audit exact; a shared name is allowed only where both fields mean the
    same thing."""
    owners: dict[str, list[str]] = {}
    for name in _dataclass_fields():
        cls, field = name.split(".")
        owners.setdefault(field, []).append(cls)
    shared = {field: classes for field, classes in owners.items() if len(classes) > 1}
    unexplained = {field: classes for field, classes in shared.items() if field not in SHARED_FIELD_NAMES}
    assert unexplained == {}, f"field names shared across dataclasses: {unexplained}"
    assert all(reason.strip() for reason in SHARED_FIELD_NAMES.values())
    stale = sorted(set(SHARED_FIELD_NAMES) - set(shared))
    assert stale == [], f"no longer shared, drop from SHARED_FIELD_NAMES: {stale}"


def _traced_targets() -> dict[str, list[str]]:
    """bench/spans.py's TARGETS, read from its source: layer -> names."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return targets


def test_traced_benchmark_targets_exist():
    """bench/spans.py wraps its TARGETS by name and patches
    Graph.__post_init__; a rename in the package must not break the trace."""
    missing = [
        f"{layer}.{attr}"
        for layer, attrs in _traced_targets().items()
        for attr in attrs
        if not hasattr(importlib.import_module(f"orelab.{layer}"), attr)
    ]
    assert missing == [], f"bench/spans.py traces names the package lacks: {missing}"
    assert "__post_init__" in vars(orelab.Graph)


def test_traced_names_have_no_private_twin():
    """A traced function is the one way into its work: a private ``_<name>``
    beside a traced ``<name>`` would let callers run that work outside the
    span the benchmark records."""
    traced = {attr for attrs in _traced_targets().values() for attr in attrs}
    twins = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[:1] == "_" and node.name[1:] in traced
    ]
    assert twins == [], f"private twins of traced functions: {twins}"


def test_no_nested_function_refers_to_itself():
    """A function nested in another that names itself holds its own closure
    cell, a reference cycle that keeps its captures until a collector pass;
    a recursive search recurses at module level, taking its state as
    arguments."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, ast.FunctionDef) and any(
                    isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)
                ):
                    found.add(f"{path.stem}.{outer.name}.{inner.name}")
    assert sorted(found) == [], f"nested functions that refer to themselves: {sorted(found)}"


def test_no_frozenset_in_the_package():
    """A vertex set crosses every layer as a bitmask: no module of the
    package builds, converts to or annotates a frozenset."""
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "frozenset"
    ]
    assert found == [], f"frozenset names in the package: {found}"


def test_no_vertex_iterable_crosses_a_boundary():
    """A vertex set is handed over as a bitmask: no function of the package
    but ``mask_of`` takes a parameter annotated ``Iterable[int]``, and none
    rebuilds a vertex list by ``sorted(set(...))``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.FunctionDef) and node.name != "mask_of":
            found.extend(
                f"{scope}({arg.arg})"
                for arg in ast.walk(node.args)
                if isinstance(arg, ast.arg) and arg.annotation and ast.unparse(arg.annotation) == "Iterable[int]"
            )
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "sorted"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "set"
        ):
            found.append(f"{scope}: sorted(set(...))")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == [], f"vertex sets handed over as iterables: {found}"


# a split's two halves as vertex tuples, and a role or label per vertex
TUPLE_AND_DICT_VERTEX_SETS = {"tuple[tuple[int, ...], tuple[int, ...]]", "dict[int, str]"}


def test_no_vertex_set_is_annotated_as_tuples_or_a_vertex_dict():
    """A split's halves, the roles of the degree-(k-1) vertices and the
    charge labels cross as vertex masks: no annotation in the package, on a
    parameter, a return, a field or a variable, names a pair of vertex
    tuples or a per-vertex string dict."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else getattr(node, "annotation", None)
            if annotation is not None:
                found.extend(
                    f"{path.stem}:{part.lineno} {ast.unparse(part)}"
                    for part in ast.walk(annotation)
                    if ast.unparse(part) in TUPLE_AND_DICT_VERTEX_SETS
                )
    assert found == [], f"vertex sets annotated as tuples or dicts: {found}"


EDGE_LIST_BUILDERS = {"graphs.Graph.cycle", "graphs.Graph.path", "census.random_graph"}


def test_graphs_are_built_from_edge_lists_only_at_the_source():
    """Every derived graph (induced, merged, relabelled, composed, reduced,
    a found subgraph) comes from rows through the one row-quotient kernel;
    only the constructors that start from nothing take an edge list."""
    callers = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_edges":
            callers.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert set(callers) <= EDGE_LIST_BUILDERS, f"edge-list builds outside the sources: {sorted(set(callers) - EDGE_LIST_BUILDERS)}"


# module-level values of orelab.suites that are tables, not stores
SUITES_TABLES = {"_SUITES"}


def test_suite_stores_start_empty():
    """orelab.suites defines no module-level dict, list or set besides its
    tables, and exactly two lru_caches, both bounded (ROADMAP aim 3); each
    is empty once the autouse fixture in conftest.py has run, also after a
    run that fills them, so no test reads a record or an input another test
    stored."""
    from conftest import clear_suite_stores, suite_caches
    from orelab import suites

    caches = suite_caches()
    stores = [
        name
        for name, value in vars(suites).items()
        if isinstance(value, (dict, list, set)) and name not in SUITES_TABLES and not name.startswith("__")
    ]
    assert stores == []
    assert sorted(cache.__name__ for cache in caches) == ["_default_input", "_tree_records"]
    assert all(cache.cache_info().maxsize for cache in caches)

    def empty() -> bool:
        return all(cache.cache_info().currsize == 0 for cache in caches)

    assert empty()
    assert suites.run_suite("t-lower", params={"k": 4, "seed": 1}).passed
    assert not empty()
    clear_suite_stores()
    assert empty()


def test_census_imports_nothing_from_coloring():
    """The census reads colorability off its own partition walks, so it
    sits below the coloring layer: ``orelab.census`` imports nothing from
    ``orelab.coloring``, by any form of import."""
    names = []
    for node in ast.walk(ast.parse((PACKAGE / "census.py").read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [module] + [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
    assert [name for name in names if name.lstrip(".").removeprefix("orelab.") == "coloring"] == []
    census = importlib.import_module("orelab.census")
    from_coloring = [name for name, value in vars(census).items() if getattr(value, "__module__", None) == "orelab.coloring"]
    assert from_coloring == []


def test_no_test_module_imports_another():
    """Shared test code lives in helper modules such as ``oracles`` and
    ``sample_graphs``; no ``tests/test_*.py`` imports another test module,
    by any form of import, so each reference has one home."""
    tests = Path(__file__).resolve().parent
    test_modules = {path.stem for path in tests.glob("test_*.py")}
    found = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if set(name.split(".")) & test_modules]
    assert found == []


K3 = Graph.complete(3)

GUARDS = [
    pytest.param(lambda: orelab.is_k_critical(K3, 1), "criticality is defined here for k >= 2", id="is_k_critical"),
    pytest.param(lambda: Graph(2, (0b100, 0)), "vertex 0 has a neighbor outside 0..1", id="Graph"),
    pytest.param(lambda: Graph.cycle(2), "cycle needs at least 3 vertices", id="Graph.cycle"),
    pytest.param(
        lambda: orelab.ore_compose(Graph.complete(4), (0, 1), Graph.complete(4), 4, (0b1, 0b110)),
        "split vertex 4 not in the split side",
        id="ore_compose",
    ),
    pytest.param(lambda: orelab.realize(Leaf(4), 5), "tree is built over k=4, caller expected 5", id="realize"),
    pytest.param(lambda: orelab.is_k_ore(K3, 3), "recognition requires k >= 4", id="is_k_ore"),
    pytest.param(lambda: orelab.compute_T(K3, 3), "packing parameter requires k >= 4", id="compute_T"),
    pytest.param(
        lambda: orelab.compute_T_bruteforce(K3, 3), "packing parameter requires k >= 4", id="compute_T_bruteforce"
    ),
    pytest.param(lambda: orelab.rho_ky(K3, 3), "potential requires k >= 4", id="rho_ky"),
    pytest.param(lambda: orelab.ky_edge_bound(5, 3), "edge bound requires k >= 4", id="ky_edge_bound"),
    pytest.param(lambda: orelab.eps_edge_bound(5, 3, 0), "edge bound requires k >= 4", id="eps_edge_bound-k"),
    pytest.param(
        lambda: orelab.eps_edge_bound(3, 4, 0), "edge bound needs n >= k, got n=3, k=4", id="eps_edge_bound-n"
    ),
]


@pytest.mark.parametrize("call, message", GUARDS)
def test_input_guards_refuse_with_their_message(call, message):
    """Each public entry refuses an argument outside its domain with its own
    message, not a wrong answer or a failure deeper down."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
