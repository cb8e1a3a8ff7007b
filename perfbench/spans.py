"""Span tracing of planefill's public functions, from outside the package.

``Tracer.install`` wraps each function in ``LAYERS``.  A module-level
function is replaced on every loaded ``planefill`` module attribute that is
the same function object, so names bound by ``from ... import`` (for
example ``verify.linear_substitute``) are recorded too.  A method is
replaced on its class.  Each call appends one span (name, parent, start,
end) to flat in-memory arrays; ``self_times`` turns them into per-function
call counts and self time after the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (module, function, which end-to-end metric it should move, on which workload)
LAYERS = (
    ("verify", "run_suite", "wall_s, checked_per_s on proj-sweep and affine-sweep; not classes"),
    ("verify", "sweep_case_reports", "wall_s, checked_per_s on proj-sweep"),
    ("verify", "sweep_plane_filling", "wall_s, checked_per_s on fill-sweep (its self time)"),
    ("verify", "sweep_affine_filling", "wall_s, checked_per_s on affine-sweep"),
    ("verify", "sweep_affine_reports", "wall_s, checked_per_s on affine-sweep"),
    ("verify", "sweep_case_representatives", "nothing measurable on classes"),
    ("verify", "decomposition_report", "wall_s, checked_per_s on proj-sweep"),
    ("verify", "affine_report", "wall_s, checked_per_s on affine-sweep"),
    ("verify", "find_linear_components", "wall_s, checked_per_s on proj-sweep and affine-sweep"),
    ("verify", "singular_Fq_points", "wall_s, checked_per_s on proj-sweep and affine-sweep"),
    ("verify", "concurrency_check", "wall_s, checked_per_s on proj-sweep and affine-sweep"),
    ("fillcurve", "Matrix3.from_ints", "wall_s, checked_per_s on fill-sweep"),
    ("fillcurve", "build_FA", "wall_s, checked_per_s on fill-sweep"),
    ("fillcurve", "charpoly", "wall_s, checked_per_s on proj-sweep only"),
    ("fillcurve", "minpoly", "wall_s, checked_per_s on proj-sweep only"),
    ("fillcurve", "classify", "wall_s, checked_per_s on proj-sweep only"),
    ("fillcurve", "rcf_similarity", "wall_s, checked_per_s on proj-sweep only"),
    ("fillcurve", "predicted_decomposition", "wall_s, checked_per_s on proj-sweep only"),
    ("fillcurve", "equivalence_representatives", "wall_s on classes"),
    ("homog", "linear_substitute", "wall_s, checked_per_s on proj-sweep and affine-sweep"),
    ("homog", "partials", "wall_s, checked_per_s on proj-sweep and affine-sweep"),
    ("homog", "scalar_ratio", "wall_s, checked_per_s on proj-sweep and affine-sweep"),
    ("poly", "UniPoly.affine_transform", "wall_s on classes"),
    ("poly", "cubic_shape", "wall_s on classes and proj-sweep"),
    ("poly", "roots", "wall_s, checked_per_s on proj-sweep"),
    ("poly", "quad_shape", "wall_s, checked_per_s on affine-sweep"),
    ("affine", "Matrix23.from_ints", "wall_s, checked_per_s on affine-sweep only"),
    ("affine", "build_GM", "wall_s, checked_per_s on affine-sweep only"),
    ("affine", "classify_affine", "wall_s, checked_per_s on affine-sweep only"),
    ("affine", "reduce_to_canonical", "wall_s, checked_per_s on affine-sweep only"),
    ("affine", "apply_transform", "wall_s, checked_per_s on affine-sweep only"),
    ("affine", "left_quad_shape", "wall_s, checked_per_s on affine-sweep only"),
    ("affine", "points_at_infinity", "wall_s, checked_per_s on affine-sweep only"),
    ("gf", "field_for_order", "setup_s on every workload"),
    ("cli", "main", "negligible self time in wall_s on every workload"),
)

PACKAGE = "planefill"
LAYER_NAMES = tuple(f"{module}.{func}" for module, func, _moves in LAYERS)
LINE_SEARCH = "verify.find_linear_components"


class Tracer:
    """Records one span per call of a wrapped function.

    Spans live in four parallel arrays indexed by span id: ``name`` (an
    index into ``LAYER_NAMES``), ``parent`` (a span id, -1 for a root),
    ``start`` and ``end`` (``time.perf_counter`` seconds).
    """

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # multiplicities found by the line search, and lines it tried
        self.lines_found = 0
        self.lines_tried = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        for module, _func, _moves in LAYERS:
            importlib.import_module(f"{PACKAGE}.{module}")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for idx, (module, func, _moves) in enumerate(LAYERS):
            owner = sys.modules[f"{PACKAGE}.{module}"]
            attr = func
            if "." in func:
                cls_name, attr = func.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(idx, raw.__func__))
                else:
                    wrapped = self._wrap(idx, raw)
                self._replace(owner, attr, raw, wrapped)
                continue
            raw = getattr(owner, attr)
            wrapped = self._wrap(idx, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._replace(m, key, raw, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _replace(self, owner, attr, raw, wrapped):
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, idx: int, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe_lines if LAYER_NAMES[idx] == LINE_SEARCH else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args[0], result)
            return result

        return wrapper

    def _observe_lines(self, f, result):
        q = f.spec.q
        self.lines_found += sum(mult for _line, mult in result.lines)
        self.lines_tried += q * q + q + 1

    def self_times(self) -> dict[str, dict]:
        return self_times(LAYER_NAMES, self.name, self.parent, self.start, self.end)

    def root_time(self) -> float:
        return root_time(self.parent, self.start, self.end)

    def write(self, path):
        """Write every span as a gzip'd text file: a header naming the
        columns, then one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# id name parent start_s end_s  (parent is a span id, -1 for a root)\n")
            for i, (idx, par, t0, t1) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i} {LAYER_NAMES[idx]} {par} {t0:.9f} {t1:.9f}\n")


def self_times(names, name, parent, start, end) -> dict[str, dict]:
    """Per-name ``calls`` and ``self_s`` from span columns: ``name`` indexes
    ``names`` and ``parent`` indexes the spans (-1 for a root).  Self time
    is a span's duration minus the durations of its direct child spans, so
    the self times of all spans sum to ``root_time``.  Every name appears,
    with zero calls if it never ran."""
    child = array("d", bytes(8 * len(start)))
    for par, t0, t1 in zip(parent, start, end):
        if par >= 0:
            child[par] += t1 - t0
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for idx, t0, t1, inner in zip(name, start, end, child):
        calls[idx] += 1
        own[idx] += (t1 - t0) - inner
    return {nm: {"calls": c, "self_s": s} for nm, c, s in zip(names, calls, own)}


def root_time(parent, start, end) -> float:
    """Total duration of the root spans."""
    return sum(t1 - t0 for par, t0, t1 in zip(parent, start, end) if par < 0)
