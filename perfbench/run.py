"""Benchmark of the planefill verification suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  Every repetition is a fresh interpreter
(``child.py``) that runs ``planefill.cli.main(["verify", ...])`` once, as a
CLI user pays for it, and every repetition's output goes through the
correctness gate in ``workloads.py``.

``--trace 0`` times set-up in several fresh interpreters, then repeats the
workload (at least twice) until another repetition would end after
``--seconds``, and reports the medians of the end-to-end metrics.
``--trace 1`` runs the workload untraced (at its own ``--jobs`` and at
``--jobs 1``) and once traced at ``--jobs 1``, and reports each traced
function's calls and self time plus derived ratios.

The workloads are fixed enumerations: ``--seed`` is recorded with the
result but changes no input.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out``
also writes it with every sample and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_NAMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 9  # fresh interpreters that only set up, after one warm-up
MIN_REPS = 2  # repetitions per timed run, even when one outlasts --seconds
RUN_DEADLINE_S = 170.0  # the whole run, repetitions and set-up included

END_TO_END = {
    "wall_s": "s",
    "checked_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
DERIVED = {
    "verify.find_linear_components.hit_ratio": "ratio",
    "verify.sweep.parallel_efficiency": "ratio",
    "trace_overhead": "ratio",
    "trace.wall_s": "s",
}
PER_LAYER = {
    **{f"{n}.{kind}": unit for n in LAYER_NAMES for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **DERIVED,
}


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``child.py`` in its own process group and return its JSON line.
    On timeout the whole group, pool workers included, is killed."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise ChildFailed(f"child {args} timed out after {timeout:.0f} s")
    except BaseException:
        _kill_group(proc)
        raise
    finally:
        _kill_group(proc, wait=False)
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _kill_group(proc: subprocess.Popen, wait: bool = True):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if wait:
        proc.communicate()


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def timed(workload, seconds: int, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over fresh-interpreter repetitions."""
    setups = [run_child(["setup", "--q", str(workload.q)], deadline) for _ in range(SETUP_SAMPLES)]
    reps, failures = [], []
    begin = time.monotonic()
    elapsed = []
    while True:
        t0 = time.monotonic()
        try:
            rep = run_child(["run", "--workload", workload.name], deadline)
        except ChildFailed as exc:
            failures.append(str(exc))
        else:
            reps.append(rep)
            failures += rep["problems"]
        elapsed.append(time.monotonic() - t0)
        now = time.monotonic()
        if now + max(elapsed) > deadline:
            break
        if len(elapsed) >= MIN_REPS and now - begin + statistics.median(elapsed) > seconds:
            break
    if not reps:
        raise ChildFailed("; ".join(failures))
    for rep in reps:
        rep["checked_per_s"] = rep["checked"] / rep["wall_s"]
    metrics = {
        "wall_s": _median(reps, "wall_s"),
        "checked_per_s": _median(reps, "checked_per_s"),
        "cpu_s": _median(reps, "cpu_s"),
        "setup_s": _median(setups + reps, "setup_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }
    failed_reps = len(elapsed) - sum(1 for r in reps if not r["problems"])
    counts = {"runs": len(elapsed), "failed_runs": failed_reps, "problems": failures}
    return metrics, {"counts": counts, "setups": setups, "reps": reps}


def traced(workload, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced ``--jobs 1`` run, with the untraced
    runs that the derived ratios need."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.txt.gz"
    base = ["run", "--workload", workload.name]
    plain = run_child(base + ["--jobs", "1"], deadline)
    pool = run_child(base, deadline) if workload.jobs > 1 else plain
    trace = run_child(base + ["--jobs", "1", "--spans", str(spans_path)], deadline)
    runs = [plain, trace] + ([pool] if pool is not plain else [])
    metrics = {}
    for name, entry in trace["layers"].items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    tried = trace["lines_tried"]
    metrics["verify.find_linear_components.hit_ratio"] = trace["lines_found"] / tried if tried else 0.0
    metrics["verify.sweep.parallel_efficiency"] = pool["cpu_s"] / (workload.jobs * pool["wall_s"])
    metrics["trace_overhead"] = trace["cpu_s"] / plain["cpu_s"] - 1.0
    metrics["trace.wall_s"] = trace["traced_wall_s"]
    problems = [p for r in runs for p in r["problems"]]
    counts = {
        "runs": len(runs),
        "failed_runs": sum(1 for r in runs if r["problems"]),
        "problems": problems,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, {"counts": counts, "untraced_jobs1": plain, "untraced": pool, "traced": trace}


def provenance() -> dict:
    """The machine record (compared between result sets) and the commit."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
        },
        "commit": commit,
    }


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the planefill verification suites.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="recorded; the workloads take no seed")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result set here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    record = provenance()
    record["loadavg_start"] = os.getloadavg()

    if not (ROOT / "src" / "planefill" / "cli.py").is_file():
        print(f"error: no planefill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run_child(["setup", "--q", str(workload.q)], deadline)  # warm-up: byte-compile, page cache
        if args.trace:
            metrics, detail = traced(workload, deadline)
        else:
            metrics, detail = timed(workload, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()

    counts = detail["counts"]
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": counts["failed_runs"] == 0,
        "attempted": counts["runs"] * workload.operations,
        "failed": counts["failed_runs"] * workload.operations,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for problem in counts["problems"][:10]:
        print(f"gate: {problem}", file=sys.stderr)
    print(
        f"{workload.name}: {counts['runs']} run(s), {counts['failed_runs']} failed the gate; "
        f"load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}",
        file=sys.stderr,
    )
    if args.out:
        full = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": record,
            "result": result,
            "detail": detail,
        }
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
