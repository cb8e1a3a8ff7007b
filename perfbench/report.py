"""Run every workload and print its metrics, or compare two result sets.

    python3 perfbench/report.py [--trace] [--out FILE]
    python3 perfbench/report.py --compare BEFORE.json AFTER.json

The first form runs ``run.py`` once per workload (seed 0, the
``run_seconds`` of BENCHMARK.json), prints every metric with
its unit, the failure rate and the gate's verdict, and writes the result
set (with provenance) to ``--out``.  The second form flags differing
machine records, shows each metric's change, marks end-to-end metrics that
got worse by more than their bound in BENCHMARK.json, and says whether the
traced ``.calls`` counts are identical.  It exits 1 if any end-to-end
metric got worse beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def run_all(trace: bool, seconds: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in WORKLOADS:
        path = OUT_DIR / f"result-{name}-trace{int(trace)}.json"
        path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
             "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(path)],
            cwd=ROOT, check=False,
        )
        if proc.returncode != 0 or not path.exists():
            results[name] = {"workload": name, "error": f"run.py exited {proc.returncode}"}
        else:
            results[name] = json.loads(path.read_text(encoding="utf-8"))
    return {"workloads": results}


def print_results(result_set: dict):
    print(f"{'workload':<14} {'metric':<48} {'value':>16}  unit")
    for name, rec in result_set["workloads"].items():
        if "error" in rec:
            print(f"{name:<14} {'ERROR: ' + rec['error']}")
            continue
        res = rec["result"]
        for metric, entry in res["metrics"].items():
            print(f"{name:<14} {metric:<48} {entry['value']:>16.6g}  {entry['unit']}")
        rate = res["failed"] / res["attempted"]
        print(f"{name:<14} {'failure_rate':<48} {rate:>16.6g}  ratio ({res['failed']}/{res['attempted']})")
        print(f"{name:<14} {'gate':<48} {'pass' if res['correct'] else 'FAIL':>16}")
        load = rec["provenance"]
        print(f"{name:<14} {'loadavg start/end':<48} {load['loadavg_start'][0]:>7.2f} {load['loadavg_end'][0]:>8.2f}")


def _machine(result_set: dict):
    for rec in result_set["workloads"].values():
        if "provenance" in rec:
            return rec["provenance"]["machine"]
    return {}


def compare(before: dict, after: dict) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    m0, m1 = _machine(before), _machine(after)
    for key in sorted(set(m0) | set(m1)):
        if m0.get(key) != m1.get(key):
            print(f"WARNING: machine records differ in {key}: {m0.get(key)!r} vs {m1.get(key)!r}")
    regressions = 0
    calls_same = calls_diff = 0
    for name, rec1 in after["workloads"].items():
        rec0 = before["workloads"].get(name)
        if not rec0 or "result" not in rec0 or "result" not in rec1:
            print(f"{name}: not comparable (missing or failed run)")
            continue
        old, new = rec0["result"]["metrics"], rec1["result"]["metrics"]
        for metric in old.keys() & new.keys():
            a, b = old[metric]["value"], new[metric]["value"]
            meta = declared.get(metric, {})
            if metric.endswith(".calls"):
                if a == b:
                    calls_same += 1
                else:
                    calls_diff += 1
                    print(f"{name:<14} {metric:<48} calls {a} -> {b}")
                continue
            change = (b - a) / a if a else 0.0
            verdict = ""
            if "bound" in meta:
                worse = change if meta["better"] == "lower" else -change
                verdict = f"bound {meta['bound']:.0%}  " + ("WORSE beyond bound" if worse > meta["bound"] else "ok")
                regressions += worse > meta["bound"]
            print(f"{name:<14} {metric:<48} {a:>12.6g} -> {b:<12.6g} {change:+8.1%}  {verdict}")
    if calls_same or calls_diff:
        print(f".calls: {calls_same} identical, {calls_diff} differ")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run all workloads, or compare two result sets.")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.compare:
        sets = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare]
        return compare(*sets)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    result_set = run_all(args.trace, seconds)
    print_results(result_set)
    if args.out:
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n", encoding="utf-8")
    ok = all(rec.get("result", {}).get("correct") for rec in result_set["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
