"""Tests of the benchmark itself, kept apart from the package's own tests.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from spans import LAYER_NAMES, Tracer, root_time, self_times  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402

# The suites' stdout at the commit that defined the benchmark.
RECORDED = {
    "proj-sweep": '{"suite": "theorem-4", "q": 3, "checked": 19683, "scalars": 3, "match_failures": 0, "cycle_failures": 0, "minpoly_criterion_failures": 0, "audit_checked": 15210, "audit_failures": 0, "cases": {"4.3": 3, "3.2": 702, "4.2": 312, "2": 1404, "1": 6318, "3.1": 5616, "4.1": 1872, "nonsingular": 3456}, "first_discrepancy": null, "pass": true}',  # noqa: E501
    "fill-sweep": '{"suite": "plane-filling", "q": 4, "checked": 262144, "scalars": 4, "fill_failures": 0, "kernel_failures": 0, "first_discrepancy": null, "pass": true}',  # noqa: E501
    "affine-sweep": '{"suite": "affine-6", "q": 5, "filling": {"checked": 15624, "filling": 5000, "iff_failures": 0, "coverage_failures": 0, "singular_failures": 0, "first_discrepancy": null, "pass": true}, "reports": {"checked": 10624, "match_failures": 0, "audit_checked": 9780, "audit_failures": 0, "labels": {"II-3": 120, "I-3": 600, "III-3": 24, "I-1": 4500, "III-1": 100, "II-1": 2400, "I-2": 2400, "II-2": 480}, "first_discrepancy": null, "pass": true}, "pass": true}',  # noqa: E501
    "classes": '{"suite": "theorem-4", "q": 9, "checked": 15, "match_failures": 0, "orbit_total": 387420480, "cases": {"4.1": 1, "4.2": 1, "2": 2, "nonsingular": 4, "1": 5, "3.1": 1, "3.2": 1}, "first_discrepancy": null, "orbit_sum_ok": true, "pass": true}',  # noqa: E501
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_gate_accepts_recorded_output(name):
    assert gate(WORKLOADS[name], json.loads(RECORDED[name])) == []


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_gate_accepts_extra_keys(name):
    summary = json.loads(RECORDED[name])
    summary["stage_seconds"] = {"build_FA": 1.5}
    assert gate(WORKLOADS[name], summary) == []


def _tampered(name, edit):
    summary = json.loads(RECORDED[name])
    edit(summary)
    return gate(WORKLOADS[name], summary)


def test_gate_rejects_one_fewer_checked():
    def edit(s):
        s["checked"] -= 1

    assert _tampered("proj-sweep", edit) == ["checked: expected 19683, got 19682"]


def test_gate_rejects_a_moved_case_count():
    def edit(s):
        s["cases"]["1"] -= 1
        s["cases"]["2"] += 1

    assert len(_tampered("proj-sweep", edit)) == 1


def test_gate_rejects_nested_changes():
    def edit(s):
        s["reports"]["labels"]["I-1"] -= 1
        s["filling"]["checked"] -= 1

    assert len(_tampered("affine-sweep", edit)) == 2


@pytest.mark.parametrize("key", ["fill_failures", "kernel_failures"])
def test_gate_rejects_failures(key):
    def edit(s):
        s[key] = 1

    assert _tampered("fill-sweep", edit) == [f"{key}: expected 0, got 1"]


def test_gate_rejects_a_nested_failed_pass():
    def edit(s):
        s["filling"]["pass"] = False

    assert _tampered("affine-sweep", edit) == ["filling.pass: expected true, got False"]


def test_gate_rejects_missing_keys():
    problems = gate(WORKLOADS["classes"], {"pass": True})
    assert "checked: missing" in problems and "orbit_total: missing" in problems


def test_self_times_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [20, 21] is a second root
    names = ["a", "b", "c", "d", "e", "unused"]
    rows = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (3, 1, 2.0, 3.0), (2, 0, 5.0, 9.0), (4, -1, 20.0, 21.0)]
    name, parent, start, end = (array(t, col) for t, col in zip("iidd", zip(*rows)))
    got = self_times(names, name, parent, start, end)
    assert got == {
        "a": {"calls": 1, "self_s": 3.0},
        "b": {"calls": 1, "self_s": 2.0},
        "c": {"calls": 1, "self_s": 4.0},
        "d": {"calls": 1, "self_s": 1.0},
        "e": {"calls": 1, "self_s": 1.0},
        "unused": {"calls": 0, "self_s": 0.0},
    }
    assert sum(v["self_s"] for v in got.values()) == root_time(parent, start, end) == 11.0


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(run.END_TO_END) + list(run.PER_LAYER)
    bad = [n for n in names if not re.fullmatch(r"[A-Za-z0-9_.-]+", n) or len(n) > 64]
    assert bad == []


def test_manifest_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_tracer_records_calls_through_every_alias():
    from planefill import homog, verify
    from planefill.gf import make_field
    from planefill.homog import HomogPoly

    original = homog.linear_substitute
    spec = make_field(3)
    f = HomogPoly(spec, 2, {(2, 0, 0): 1, (0, 1, 1): 2})
    rows = ((1, 0, 0), (0, 1, 0), (1, 1, 1))
    with Tracer() as tracer:
        assert verify.linear_substitute is homog.linear_substitute is not original
        homog.linear_substitute(f, rows)
        verify.linear_substitute(f, rows)
    assert homog.linear_substitute is original and verify.linear_substitute is original
    calls = tracer.self_times()["homog.linear_substitute"]["calls"]
    assert calls == 2


def _traced_calls(argv):
    import contextlib
    import io

    from planefill import cli

    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return {name: v["calls"] for name, v in tracer.self_times().items()}, tracer


def test_traced_call_counts_repeat_exactly():
    argv = ["verify", "--suite", "theorem-4", "--q", "2"]
    first, tracer = _traced_calls(argv)
    second, _ = _traced_calls(argv)
    assert first == second
    assert set(first) == set(LAYER_NAMES)
    assert first["cli.main"] == 1 and first["verify.decomposition_report"] == 2**9
    assert tracer.lines_tried == first["verify.find_linear_components"] * 7
    total = sum(v["self_s"] for v in tracer.self_times().values())
    assert total == pytest.approx(tracer.root_time(), rel=1e-9)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

