"""Counters and chunking shared by the exhaustive sweeps: a worker takes
(spec, lo, hi) and counts on the matrices lo, ..., hi-1 in counting order;
``_run_ranges`` runs it over [0, total) in chunks and merges the counters."""

from __future__ import annotations

import os
from multiprocessing import Pool

from .gf import FieldSpec


def _note_failure(counters: dict, key: str, message: str, index: int | None = None):
    """Count a failure; the message is the first discrepancy if it is the
    first one noted or, for a worker that does not visit its matrices in
    counting order and passes their counting ``index``, if no failing
    matrix before it in counting order was noted."""
    counters[key] += 1
    if counters["first_discrepancy"] is None or (
        index is not None and index < counters["first_index"]
    ):
        counters["first_discrepancy"] = message
        if index is not None:
            counters["first_index"] = index


def _check_cycle(
    counters: dict, a, irreducible: bool, has_lin: bool, has_sing: bool,
    index: int | None = None,
):
    """Theorem 2.4 for one non-scalar Matrix3 a: irreducible characteristic
    polynomial <=> no rational line divides F_A <=> F_A has no singular
    rational point."""
    if not (irreducible == (not has_lin) == (not has_sing)):
        _note_failure(
            counters, "cycle_failures",
            f"matrix {a.to_ints()}: irreducible={irreducible} "
            f"no-lines={not has_lin} no-singular={not has_sing}",
            index,
        )


def _merge(counters: list[dict]) -> dict:
    """The counters of the chunks, in counting order, added up; the first
    discrepancy is that of the earliest chunk with one or, where the chunks
    carry the counting index of theirs, that of the smallest index, which
    is then dropped."""
    noted = [c for c in counters if c.get("first_discrepancy") is not None]
    first = min(noted, key=lambda c: c.get("first_index", 0), default=counters[0])
    out = dict(counters[0])
    out["first_discrepancy"] = first.get("first_discrepancy")
    out.pop("first_index", None)
    for c in counters[1:]:
        for k, v in c.items():
            if k in ("first_discrepancy", "first_index"):
                continue
            if isinstance(v, dict):
                tgt = out.setdefault(k, {})
                for kk, vv in v.items():
                    tgt[kk] = tgt.get(kk, 0) + vv
            else:
                out[k] = out.get(k, 0) + v
    return out


def _ranges(total: int, jobs: int):
    chunks = max(jobs * 4, 1)
    step = max(total // chunks, 1)
    edges = list(range(0, total, step)) + [total]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i] < edges[i + 1]]


def _run_ranges(worker, spec: FieldSpec, total: int, jobs: int) -> dict:
    """worker(spec, lo, hi) over [0, total) in chunks, on at most
    os.cpu_count() processes; the counters merge in counting order, and
    ``pass`` holds when no ``*_failures`` counter is nonzero."""
    jobs = min(jobs, os.cpu_count() or 1)
    args = [(spec, lo, hi) for lo, hi in _ranges(total, jobs)]
    if jobs <= 1:
        parts = [worker(*a) for a in args]
    else:
        with Pool(processes=jobs) as pool:
            parts = pool.starmap(worker, args)
    out = _merge(parts)
    out["pass"] = not any(v for k, v in out.items() if k.endswith("_failures"))
    return out
