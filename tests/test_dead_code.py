"""Every function, class and method in ``src/planefill`` is used by the package.

A definition counts as used when some code of the package outside its own
body refers to it:
* a module-level function or class by a loaded name, an attribute
  (``fc.build_FA``) or an import in a module other than ``__init__`` (an
  export alone is not a use);
* a method only by an attribute (``self.values``, ``spec.inv``), so a local
  variable that shares its name does not keep it alive.
Dunder methods are exempt: the language calls them.  The scan is syntactic
(stdlib ``ast``, as the project has no linter), so a name used anywhere
keeps every definition of that name alive, and a use through a
``getattr`` string would go unseen (the package has none).

The import-graph tests check that the package's modules import each other
without a cycle, counting the relative imports inside functions, so that
the sweep plumbing (``sweep``) and the plane (``homog``) stay below both the
packed kernels (``batch``) and the oracle (``verify``).

The last test checks the other direction for the names the benchmark's
span tracer (``perfbench/spans.py``) wraps: each must still be a function
of the package, since the tracer fails on a missing one.

Run it alone with ``PYTHONPATH=src python -m pytest tests/test_dead_code.py``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planefill"
SPANS = ROOT / "perfbench" / "spans.py"

# definitions only the tests call, each a reference the tests check against
ALLOWED = {
    "batch.Kernel.section": "tests unpack one named section of a packed image",
    "fillcurve.Matrix3.det": "tests pick invertible matrices for similarity transforms",
    "fillcurve.Matrix3.transpose": "tests build B^T A B^-T to test equivalence invariance",
    "fillcurve.rcf_similarity": "tests check S A S^-1 = C and pin S to the reference construction",
    "fillcurve.equiv_key": "tests check the complete equivalence key against orbits",
    "gf.FieldSpec.element": "tests build elements from their encodings",
    "gf.FieldSpec.from_coeffs": "tests build extension-field elements from base-field digits",
    "homog.HomogPoly.eval": "tests evaluate at one point as the reference for the plane's value columns",
}


def _scan(package: Path):
    """(definitions, references): a definition is (qualified name, name,
    is method, file, first line, last line); a reference is (name, is
    attribute, file, line)."""
    defs, refs = [], []

    def visit(path, node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                defs.append((qual, child.name, in_class, path, child.lineno, child.end_lineno))
                visit(path, child, qual, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                refs.append((child.id, False, path, child.lineno))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, True, path, child.lineno))
            elif isinstance(child, ast.ImportFrom) and path.name != "__init__.py":
                refs.extend((alias.name, False, path, child.lineno) for alias in child.names)
            visit(path, child, prefix, in_class)

    for path in sorted(package.glob("*.py")):
        visit(path, ast.parse(path.read_text()), path.stem, False)
    return defs, refs


def unused(package: Path = PACKAGE) -> set:
    """Qualified names of the definitions nothing else in package uses."""
    defs, refs = _scan(package)
    out = set()
    for qual, name, is_method, path, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            ref == name
            and (is_attr or not is_method)
            and not (where == path and first <= line <= last)
            for ref, is_attr, where, line in refs
        ):
            out.add(qual)
    return out


def test_every_definition_is_used_by_the_package():
    dead = sorted(unused() - ALLOWED.keys())
    assert not dead, f"defined in src/planefill but used nowhere in it: {dead}"


def test_allowlist_names_only_unused_definitions():
    stale = sorted(ALLOWED.keys() - unused())
    assert not stale, f"allowlisted names that are gone or now used by the package: {stale}"


def test_scan_flags_each_kind_of_dead_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import exported_only, used\n")
    (tmp_path / "core.py").write_text(
        "class Point:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    def norm(self):\n"
        "        return self.x\n"
        "    def lead(self):\n"
        "        return self.x\n"
        "\n"
        "def used(p):\n"
        "    lead = p.norm()\n"
        "    return lead\n"
        "\n"
        "def exported_only():\n"
        "    return 0\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "cli.py").write_text("from .core import Point, used\n\nused(Point(1))\n")
    assert unused(tmp_path) == {"core.Point.lead", "core.exported_only", "core.recursive"}


def imports(package: Path = PACKAGE) -> dict:
    """The package modules that each module other than ``__init__`` imports
    by relative imports, at any depth (lazy imports in functions too)."""
    graph = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[path.stem] = targets
    return graph


def import_cycle(graph: dict):
    """One cycle of the graph as [m, ..., m], or None when it has none."""
    done, path = set(), []

    def visit(m):
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if n in path:
                return path[path.index(n):] + [n]
            if n not in done:
                cycle = visit(n)
                if cycle:
                    return cycle
        path.pop()
        done.add(m)
        return None

    for m in sorted(graph):
        if m not in done:
            cycle = visit(m)
            if cycle:
                return cycle
    return None


def test_package_imports_form_no_cycle():
    cycle = import_cycle(imports())
    assert cycle is None, f"import cycle in src/planefill: {' -> '.join(cycle)}"


def test_import_scan_sees_a_cycle_through_a_lazy_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .oracle import check\n")
    (tmp_path / "gf.py").write_text("ONE = 1\n")
    (tmp_path / "kernel.py").write_text("from .gf import ONE\nfrom .oracle import check\n")
    (tmp_path / "oracle.py").write_text(
        "from . import gf\n\ndef check():\n    from . import kernel\n    return kernel\n"
    )
    graph = imports(tmp_path)
    assert graph == {"gf": set(), "kernel": {"gf", "oracle"}, "oracle": {"gf", "kernel"}}
    assert import_cycle(graph) == ["kernel", "oracle", "kernel"]
    del graph["oracle"]
    assert import_cycle(graph) is None


def test_every_traced_name_is_a_function_of_the_package():
    # spans.py imports only the standard library, so it loads by path
    loader = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    missing = []
    for module, func, _moves in spans.LAYERS:
        owner = importlib.import_module(f"planefill.{module}")
        *cls, attr = func.split(".")
        for name in cls:
            owner = getattr(owner, name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if isinstance(raw, classmethod):
            raw = raw.__func__
        if not (inspect.isfunction(raw) and raw.__module__.startswith("planefill.")):
            missing.append(f"{module}.{func}")
    assert spans.LAYERS
    assert not missing, f"traced by perfbench/spans.py but not a planefill function: {missing}"
