"""The four benchmark workloads and the correctness gate for their output.

Every workload is a fixed, deterministic enumeration run through
``planefill.cli.main(["verify", ...])``, so none of them takes a seed.
The gate compares the suite's parsed JSON summary with the counts recorded
when the benchmark was defined.  It checks only the keys named here plus
two generic rules (every ``*_failures`` counter is zero and every ``pass``
flag is true), so the summary may grow new keys without failing the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    q: int
    suite: str
    jobs: int
    expected: dict = field(repr=False)

    def argv(self, jobs: int | None = None) -> list[str]:
        """CLI arguments; ``jobs`` overrides the workload's own job count."""
        jobs = self.jobs if jobs is None else jobs
        out = ["verify", "--suite", self.suite, "--q", str(self.q)]
        if jobs > 1:
            out += ["--jobs", str(jobs)]
        return out

    @property
    def operations(self) -> int:
        """Checked matrices (or classes) in one run: the unit that
        ``checked_per_s`` and ``failure_rate`` count."""
        return checked_count(self.expected)


def checked_count(summary: dict) -> int:
    """The suite's own ``checked`` counter, summed over nested sub-suites
    (affine-6 reports a ``filling`` and a ``reports`` pass)."""
    if "checked" in summary:
        return summary["checked"]
    return sum(checked_count(v) for v in summary.values() if isinstance(v, dict))


PROJ_CASES = {
    "nonsingular": 3456, "1": 6318, "3.1": 5616, "2": 1404,
    "4.1": 1872, "3.2": 702, "4.2": 312, "4.3": 3,
}
AFFINE_LABELS = {
    "I-1": 4500, "I-2": 2400, "I-3": 600, "II-1": 2400, "II-2": 480,
    "II-3": 120, "III-1": 100, "III-3": 24,
}
CLASS_CASES = {"nonsingular": 4, "1": 5, "2": 2, "3.1": 1, "3.2": 1, "4.1": 1, "4.2": 1}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "proj-sweep",
            "Full per-matrix theorem-4 reports on all 19,683 q=3 matrices, all eight cases; "
            "stands in for the same path at q=4, left out for its 95 s run.",
            q=3, suite="theorem-4", jobs=2,
            expected={
                "checked": 19683, "scalars": 3, "audit_checked": 15210,
                "cases": PROJ_CASES,
            },
        ),
        Workload(
            "fill-sweep",
            "Plane-filling check of all 262,144 q=4 matrices over GF(4): build_FA and "
            "point evaluation only, the mechanism a batch oracle would replace.",
            q=4, suite="plane-filling", jobs=2,
            expected={"checked": 262144, "scalars": 4},
        ),
        Workload(
            "affine-sweep",
            "Affine-6 suite over all 15,624 nonzero 2x3 matrices at q=5 in one process; "
            "exercises affine and the degree-6 oracle, never the projective prediction.",
            q=5, suite="affine-6", jobs=1,
            expected={
                "filling": {"checked": 15624, "filling": 5000},
                "reports": {"checked": 10624, "audit_checked": 9780, "labels": AFFINE_LABELS},
            },
        ),
        Workload(
            "classes",
            "Theorem-4 at q=9 through the 15 class representatives; the only workload "
            "dominated by poly, with few large-field polynomials.",
            q=9, suite="theorem-4", jobs=1,
            expected={
                "checked": 15, "orbit_total": 9**9 - 9, "orbit_sum_ok": True,
                "cases": CLASS_CASES,
            },
        ),
    )
}


def gate(workload: Workload, summary: dict) -> list[str]:
    """Every way ``summary`` departs from the recorded result; empty if it
    passes."""
    problems = []
    _expect(workload.expected, summary, "", problems)
    _generic(summary, "", problems)
    return problems


def _expect(expected: dict, got: dict, where: str, problems: list[str]):
    for key, want in expected.items():
        path = f"{where}{key}"
        if key not in got:
            problems.append(f"{path}: missing")
        elif isinstance(want, dict) and key not in ("cases", "labels"):
            _expect(want, got[key], path + ".", problems)
        elif got[key] != want:
            problems.append(f"{path}: expected {want!r}, got {got[key]!r}")


def _generic(summary: dict, where: str, problems: list[str]):
    if summary.get("pass") is not True:
        problems.append(f"{where}pass: expected true, got {summary.get('pass')!r}")
    for key, value in summary.items():
        if isinstance(value, dict) and "pass" in value:
            _generic(value, f"{where}{key}.", problems)
        elif key.endswith("_failures") and value != 0:
            problems.append(f"{where}{key}: expected 0, got {value!r}")
