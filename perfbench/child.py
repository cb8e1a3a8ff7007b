"""One measurement in a fresh interpreter, the way a CLI user pays for it.

    python3 perfbench/child.py setup --q Q
    python3 perfbench/child.py run --workload NAME [--jobs J] [--spans FILE]

Prints one JSON object as the last line of stdout.  ``setup`` times the
import of planefill (with its CLI module) plus ``field_for_order(q)``.
``run`` then calls ``planefill.cli.main`` on the workload with the suite's
stdout captured, and reports wall time, CPU time including pool workers,
peak RSS, the suite's ``checked`` counter and the gate's verdict.  With
``--spans`` the call is traced and every span is written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, checked_count, gate

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup(q: int):
    """Import the checkout's planefill and build GF(q); returns the CLI
    module and the seconds this took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import planefill.cli
    from planefill.gf import field_for_order

    field_for_order(q)
    setup_s = time.perf_counter() - t0
    origin = Path(planefill.__file__).resolve().parent
    if origin != SRC / "planefill":
        raise SystemExit(f"imported planefill from {origin}, not from {SRC}")
    return planefill.cli, setup_s


def run(name: str, jobs: int | None, spans_path: str | None) -> dict:
    workload = WORKLOADS[name]
    cli, setup_s = setup(workload.q)
    tracer = Tracer() if spans_path else None
    captured = io.StringIO()
    with tracer or contextlib.nullcontext():
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(workload.argv(jobs))
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0

    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        summary = json.loads(captured.getvalue())
    except json.JSONDecodeError as exc:
        summary = {}
        problems.append(f"suite output is not JSON: {exc}")
    else:
        problems += gate(workload, summary)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "checked": checked_count(summary) if summary else 0,
        "problems": problems,
    }
    if tracer is not None:
        layers = tracer.self_times()
        traced = tracer.root_time()
        total_self = sum(v["self_s"] for v in layers.values())
        if abs(total_self - traced) > 1e-6 * max(1.0, traced):
            problems.append(f"self times sum to {total_self} s, traced wall is {traced} s")
        tracer.write(spans_path)
        out.update(
            layers=layers,
            traced_wall_s=traced,
            lines_found=tracer.lines_found,
            lines_tried=tracer.lines_tried,
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--q", type=int, required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": setup(args.q)[1]}
    else:
        result = run(args.workload, args.jobs, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
