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
``getattr`` string would go unseen (the package has none).  The same scan
flags a name that a module other than ``__init__`` imports but never loads;
``from __future__`` imports are exempt.

The import-graph tests check that the package's modules import each other
without a cycle, counting the relative imports inside functions, so that
the sweep plumbing (``sweep``) and the plane (``homog``) stay below both the
packed kernels (``batch``) and the oracle (``verify``).

The reachability tests run the command line in a fresh interpreter under
``sys.setprofile`` and check that every function of the package is entered
on some run, apart from ``REACH_ALLOWED`` and the repr, eq, hash and
pickling dunders: classify and atlas in both families at q = 2 and 3, every
suite at q = 2, ``theorem-4`` at q = 5 (the class representatives) and
``affine-6`` at q = 3, whose scaling orbits cM need a c other than 1.

The last test checks the other direction for the names the benchmark's
span tracer (``perfbench/spans.py``) wraps: each must still be a function
of the package, since the tracer fails on a missing one.

Run it alone with ``PYTHONPATH=src python -m pytest tests/test_dead_code.py``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planefill"
SPANS = ROOT / "perfbench" / "spans.py"

# definitions only the tests call, each a reference the tests check against
ALLOWED = {
    "batch.Kernel.section": "tests unpack one named section of a packed image",
    "fillcurve.rcf_similarity": "tests check S A S^-1 = C and pin S to the reference construction",
    "homog.HomogPoly.eval": "tests evaluate at one point as the reference for the plane's value columns",
}


def _scan(package: Path):
    """(definitions, references, imports): a definition is (qualified name,
    name, is method, is function, file, first line, last line), its first
    line a decorator's if it has one, as in a code object; a reference is
    (name, kind, file, line), its kind "name" for a loaded name, "attr" for
    an attribute and "import" for an imported name; an import is (module,
    bound name, file), for the modules other than ``__init__``."""
    defs, refs, imported = [], [], []

    def visit(path, node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                is_class = isinstance(child, ast.ClassDef)
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs.append((qual, child.name, in_class, not is_class, path, first, child.end_lineno))
                visit(path, child, qual, is_class)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                refs.append((child.id, "name", path, child.lineno))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, "attr", path, child.lineno))
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
                if isinstance(child, ast.ImportFrom):
                    refs.extend((alias.name, "import", path, child.lineno) for alias in child.names)
                if getattr(child, "module", None) != "__future__":
                    imported.extend(
                        (path.stem, alias.asname or alias.name.split(".")[0], path)
                        for alias in child.names
                    )
            visit(path, child, prefix, in_class)

    for path in sorted(package.glob("*.py")):
        visit(path, ast.parse(path.read_text()), path.stem, False)
    return defs, refs, imported


def unused(package: Path = PACKAGE) -> set:
    """Qualified names of the definitions nothing else in package uses."""
    defs, refs, _imported = _scan(package)
    out = set()
    for qual, name, is_method, _is_function, path, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            ref == name
            and (kind == "attr" or not is_method)
            and not (where == path and first <= line <= last)
            for ref, kind, where, line in refs
        ):
            out.add(qual)
    return out


def unused_imports(package: Path = PACKAGE) -> set:
    """"module.name" for each name a module imports but never loads."""
    _defs, refs, imported = _scan(package)
    loaded = {(name, where) for name, kind, where, _line in refs if kind == "name"}
    return {f"{module}.{name}" for module, name, path in imported if (name, path) not in loaded}


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


def test_every_import_is_loaded():
    unloaded = sorted(unused_imports())
    assert not unloaded, f"imported in src/planefill but never loaded: {unloaded}"


def test_scan_flags_each_import_that_is_never_loaded(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import chain, used\n")
    (tmp_path / "core.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from itertools import chain, zip_longest as zl\n"
        "\n"
        "def used(p):\n"
        "    from functools import reduce\n"
        "    return os.path.join(p.chain, zl)\n"
    )
    (tmp_path / "cli.py").write_text("from . import core\nfrom .core import used\n\ncore.sys\n")
    assert unused_imports(tmp_path) == {"core.sys", "core.chain", "core.reduce", "cli.used"}


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


# functions no run of the reachability tests enters, and why they stay
REACH_ALLOWED = {
    "batch.Kernel.section": "tests unpack one named section of a packed image",
    "cli._check_out": "runs only with --out",
    "fillcurve.Matrix3.inverse": "rcf_similarity's inverse",
    "fillcurve.charpoly": "a reference the tests check against; perfbench/spans.py wraps it",
    "fillcurve.minpoly": "a reference the tests check against; perfbench/spans.py wraps it",
    "fillcurve.rcf_similarity": "a reference the tests check against; perfbench/spans.py wraps it",
    "gf._gfp_rem": "the modulus search by trial division, for degrees above 3",
    "gf._gfp_trim": "the modulus search by trial division, for degrees above 3",
    "homog.HomogPoly.eval": "tests evaluate at one point as the reference for the plane's value columns",
    "sweep._note_failure": "runs only on a failed check",
    "verify.exceptional_quartic": "only sziklai at q = 4 audits the exceptional quartic",
    "verify.sziklai_audit": "only sziklai at q = 4 audits the exceptional quartic",
}
REACH_EXEMPT_DUNDERS = ("__repr__", "__eq__", "__hash__", "__reduce__")

_REACH_SCRIPT = """
import contextlib, io, json, sys
from planefill import verify
from planefill.cli import main
runs = [["classify", "--q", q, "--matrix", "1,1,0,1,0,0,0,0,0"] for q in ("2", "3")]
runs += [["classify", "--q", q, "--affine", "--matrix", "0,1,0,1,0,0"] for q in ("2", "3")]
runs += [["atlas", "--q", q, "--family", f] for q in ("2", "3") for f in ("projective", "affine")]
runs += [["verify", "--q", "2", "--suite", s] for s in verify.SUITES]
runs += [["verify", "--q", "5", "--suite", "theorem-4"]]
runs += [["verify", "--q", "3", "--suite", "affine-6", "--jobs", "1"]]
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


@lru_cache(maxsize=None)
def never_entered() -> frozenset:
    """Qualified names of the functions that no run enters, less the
    exempt dunders; every run must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c", _REACH_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(done.stdout)
    assert set(got["codes"]) == {0}, got["codes"]
    entered = {(path, line) for path, line in got["entered"]}
    defs, _refs, _imported = _scan(PACKAGE)
    return frozenset(
        qual for qual, name, _is_method, is_function, path, first, _last in defs
        if is_function and (str(path), first) not in entered and name not in REACH_EXEMPT_DUNDERS
    )


def test_every_function_runs_on_a_cli_path():
    idle = sorted(never_entered() - REACH_ALLOWED.keys())
    assert not idle, f"functions of src/planefill that no command-line run enters: {idle}"


def test_reach_allowlist_names_only_functions_that_never_run():
    stale = sorted(REACH_ALLOWED.keys() - never_entered())
    assert not stale, f"allowlisted names that are gone or now run: {stale}"


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
