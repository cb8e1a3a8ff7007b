"""Counters and chunking shared by the exhaustive sweeps: a worker takes
(spec, lo, hi) and counts on the matrices lo, ..., hi-1 in counting order;
``_run_ranges`` runs it over [0, total) in chunks and merges the counters."""

from __future__ import annotations

import os
from multiprocessing import Pool

from .gf import FieldSpec


def _note_failure(counters: dict, key: str, message: str):
    counters[key] += 1
    if counters["first_discrepancy"] is None:
        counters["first_discrepancy"] = message


def _check_cycle(counters: dict, a, irreducible: bool, has_lin: bool, has_sing: bool):
    """Theorem 2.4 for one non-scalar Matrix3 a: irreducible characteristic
    polynomial <=> no rational line divides F_A <=> F_A has no singular
    rational point."""
    if not (irreducible == (not has_lin) == (not has_sing)):
        _note_failure(
            counters, "cycle_failures",
            f"matrix {a.to_ints()}: irreducible={irreducible} "
            f"no-lines={not has_lin} no-singular={not has_sing}",
        )


def _merge(counters: list[dict]) -> dict:
    out = dict(counters[0])
    for c in counters[1:]:
        for k, v in c.items():
            if k == "first_discrepancy":
                if out.get(k) is None:
                    out[k] = v
            elif isinstance(v, dict):
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
