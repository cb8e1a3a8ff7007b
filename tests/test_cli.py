import json
import os

import pytest

from planefill import cli
from planefill.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_case_41(capsys):
    code, out = run(capsys, "classify", "--q", "3", "--matrix", "0,1,0,0,0,1,0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "4.1"
    assert report["match"] is True


def test_classify_affine_I2(capsys):
    code, out = run(capsys, "classify", "--q", "4", "--affine", "--matrix", "0,1,0,0,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "I-2"


def test_classify_scalar_zero_polynomial(capsys):
    code, out = run(capsys, "classify", "--q", "2", "--matrix", "1,0,0,0,1,0,0,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "4.3"
    assert report["observed"]["zero_polynomial"] is True


def test_classify_malformed_matrix(capsys):
    code = main(["classify", "--q", "3", "--matrix", "1,2,3"])
    capsys.readouterr()
    assert code == 2


def test_classify_out_of_range_entry(capsys):
    code = main(["classify", "--q", "3", "--matrix", "0,1,0,0,0,1,0,0,7"])
    capsys.readouterr()
    assert code == 2


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--q", "2", "--suite", "nonsense"])
    capsys.readouterr()
    assert err.value.code == 2


def test_atlas_projective_q2_partitions(capsys):
    code, out = run(capsys, "atlas", "--q", "2", "--family", "projective")
    assert code == 0
    entries = [json.loads(line) for line in out.splitlines()]
    assert sum(e["orbit_size"] for e in entries) == 2**9 - 2
    assert all(e["match"] for e in entries)


def test_atlas_affine_lists_tags(capsys):
    code, out = run(capsys, "atlas", "--q", "3", "--family", "affine")
    assert code == 0
    entries = [json.loads(line) for line in out.splitlines()]
    assert [e["label"] for e in entries] == [
        "filling", "I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "III-1", "III-3"
    ]
    assert sum(e["population"] for e in entries) == 3**6 - 1
    assert all(e["match"] for e in entries)


def test_verify_suite_exit_code(capsys):
    code, out = run(capsys, "verify", "--q", "2", "--suite", "plane-filling")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_collinear_small(capsys):
    code, out = run(capsys, "verify", "--q", "7", "--suite", "collinear", "--samples", "20")
    assert code == 0
    assert json.loads(out)["checked"] == 20


def test_deterministic_output(capsys):
    _, first = run(capsys, "atlas", "--q", "2", "--family", "projective")
    _, second = run(capsys, "atlas", "--q", "2", "--family", "projective")
    assert first == second
    _, one = run(capsys, "classify", "--q", "3", "--matrix", "0,1,0,0,0,1,0,0,0")
    _, two = run(capsys, "classify", "--q", "3", "--matrix", "0,1,0,0,0,1,0,0,0")
    assert one == two


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["classify", "--q", "2", "--matrix", "0,1,0,0,0,1,0,0,0", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["case"] == "4.1"


@pytest.mark.parametrize("flag,value", [
    ("--samples", "0"), ("--samples", "-4"), ("--jobs", "0"), ("--jobs", "-1"), ("--jobs", "x"),
])
def test_counts_below_one_are_usage_errors(capsys, monkeypatch, flag, value):
    def no_suite(*args, **kwargs):
        raise AssertionError("a rejected count must not start a suite")

    monkeypatch.setattr(cli.verify, "run_suite", no_suite)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--q", "2", "--suite", "collinear", flag, value])
    assert err.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_bad_max_q_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("FILLCURVE_MAX_Q", "abc")
    code = main(["classify", "--q", "2", "--matrix", "0,1,0,0,0,1,0,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "FILLCURVE_MAX_Q" in captured.err


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
        code = main(["atlas", "--q", "2", "--family", "projective"])
    finally:
        os.close(fd)
    assert code == 1
    assert capsys.readouterr().err == ""
