"""Byte-for-byte guard on what the command line prints.

Each case runs ``planefill.cli.main`` and compares its stdout and exit code
with a file under ``tests/golden/``.  The files pin the reports of every
projective case and every affine label at q = 3 and q = 4 (characteristic
2, with witnesses that combine a basis change and a shift), both atlases at q = 2 and
q = 3, the six verification suites at q = 2, and ``affine-6`` at q = 3,
where all eight degenerate affine labels occur, so its file pins the label
histogram and the audit counts.  At q = 3, where all eight projective
cases occur, ``theorem-4`` pins the case histogram in the order the sweep
first meets each case, and ``sziklai``, which runs the same report sweep,
pins its residual point-bound audits; both at one and at two jobs.

To rewrite the files after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from planefill.cli import main

GOLDEN = Path(__file__).parent / "golden"

CLASSIFY_Q3 = {
    "zero": "0,0,0,0,0,0,0,0,0",
    "scalar": "2,0,0,0,2,0,0,0,2",
    "nonsingular": "0,1,1,1,1,0,1,0,0",
    "1": "1,1,0,1,0,0,0,0,0",
    "2": "0,1,0,1,0,0,0,0,0",
    "3.1": "1,2,0,1,0,0,0,0,0",
    "3.2": "1,0,0,0,0,0,0,0,0",
    "4.1": "0,0,1,1,0,0,0,0,0",
    "4.2": "0,1,0,0,0,0,0,0,0",
}

AFFINE_Q3 = {
    "filling": "1,0,0,0,1,0",
    "I-1": "0,1,0,1,0,0",
    "I-2": "0,0,1,1,0,0",
    "I-3": "0,1,0,0,0,0",
    "II-1": "1,2,0,1,0,0",
    "II-2": "0,0,1,0,1,0",
    "II-3": "1,0,0,0,0,0",
    "III-1": "0,2,0,1,0,0",
    "III-3": "0,0,1,0,0,0",
}

AFFINE_Q4 = {
    "filling": "2,0,1,3,2,2",
    "I-1": "0,2,2,1,0,2",
    "I-2": "0,2,1,0,2,3",
    "I-3": "1,1,0,3,3,0",
    "II-1": "2,2,2,2,0,1",
    "II-2": "2,2,3,2,2,2",
    "II-3": "3,2,0,2,1,0",
    "III-1": "0,1,2,1,0,0",
    "III-3": "0,0,2,0,0,0",
}

SUITES = ("plane-filling", "theorem-2.4", "theorem-4", "affine-6", "sziklai", "collinear")


def _cases():
    cases = {}
    for name, matrix in CLASSIFY_Q3.items():
        cases[f"classify_q3_{name}"] = ["classify", "--q", "3", "--matrix", matrix]
    for name, matrix in AFFINE_Q3.items():
        cases[f"classify_affine_q3_{name}"] = [
            "classify", "--q", "3", "--affine", "--matrix", matrix,
        ]
    for name, matrix in AFFINE_Q4.items():
        cases[f"classify_affine_q4_{name}"] = [
            "classify", "--q", "4", "--affine", "--matrix", matrix,
        ]
    for q in (2, 3):
        for family in ("projective", "affine"):
            cases[f"atlas_q{q}_{family}"] = ["atlas", "--q", str(q), "--family", family]
    for suite in SUITES:
        cases[f"verify_q2_{suite}"] = ["verify", "--q", "2", "--suite", suite]
    cases["verify_q3_affine-6"] = ["verify", "--q", "3", "--suite", "affine-6"]
    for suite in ("theorem-4", "sziklai"):
        cases[f"verify_q3_{suite}"] = ["verify", "--q", "3", "--suite", suite]
    return cases


CASES = _cases()


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _golden_text(code: int, out: str) -> str:
    return f"exit {code}\n{out}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _run(CASES[name])
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _golden_text(code, out) == expected


def test_golden_verify_output_does_not_depend_on_jobs():
    for name in ("verify_q3_theorem-4", "verify_q3_sziklai"):
        code, out = _run([*CASES[name], "--jobs", "2"])
        expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert _golden_text(code, out) == expected, name


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        (GOLDEN / f"{name}.txt").write_text(_golden_text(code, out), encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
