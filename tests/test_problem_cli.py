"""Problem-file parsing, report determinism, corpus goldens, CLI exit codes."""

import json
import subprocess
import sys

import pytest

from srfield.cli import main
from srfield.corpus import (
    CORPUS_NAMES,
    corpus_check,
    diff_reports,
    projectability_replay,
    run_corpus,
)
from srfield.errors import ParseError
from srfield.problem import parse_problem
from srfield.report import report_json, run_problem

PLATE_PROBLEM = """
# plate under unit load
m=2
n=1
k=2
field q(x[1],x[2]) = 1
lagrangian = 1/2*(u[2,0]^2 + 2*u[1,1]^2 + u[0,2]^2 - 2*q*u[0,0])
"""

MECH_PROBLEM = """
m=1
n=1
k=1
lagrangian = u[1]^2/2 - u[0]^2
"""


def test_parse_problem_fields_and_points():
    text = PLATE_PROBLEM + "point = u[2,0]=1.5 u[1,1]=0.25\n"
    p = parse_problem(text)
    assert (p.bundle.m, p.bundle.n, p.bundle.k) == (2, 1, 2)
    assert p.fields["q"][0] == (1, 2)
    pts = p.point_assignments()
    assert len(pts) == 1
    values = {s.render(): v for s, v in pts[0].items()}
    assert values == {"u[2,0]": 1.5, "u[1,1]": 0.25}


def test_parse_problem_sections_pair_in_order():
    text = MECH_PROBLEM + "section@1 = x[1]^2\nvariation@1 = 1\nsection@1 = x[1]\nvariation@1 = x[1]\n"
    p = parse_problem(text)
    assert len(p.sections) == 2 and len(p.variations) == 2


@pytest.mark.parametrize("bad,exc", [
    ("m=2\nn=1\nlagrangian = u[0,0]", "missing header key k="),
    ("m=2\nn=1\nk=1\n", "missing lagrangian="),
    ("m=0\nn=1\nk=1\nlagrangian = 1", "m, n, k >= 1"),
    ("m=2\nn=1\nk=1\nlagrangian = u[2,0]", "jet order"),
    ("m=2\nn=1\nk=1\nwhat = 1\nlagrangian = u[0,0]", "unknown key"),
])
def test_parse_problem_errors(bad, exc):
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert exc in str(err.value)


def test_report_deterministic_bytes():
    p = parse_problem(MECH_PROBLEM)
    r1 = report_json(run_problem(p, seed=3))
    r2 = report_json(run_problem(p, seed=3))
    assert r1 == r2
    r3 = report_json(run_problem(p, seed=4))
    assert r1 != r3  # seed is recorded and drives the sampling


def test_report_stages_subset():
    p = parse_problem(MECH_PROBLEM)
    r = run_problem(p, seed=0, stages={"el"})
    assert "euler_lagrange" in r and "analysis" not in r and "equations" not in r
    r2 = run_problem(p, seed=0, stages={"analysis"})
    assert "analysis" in r2 and "euler_lagrange" not in r2


def test_report_flags():
    assert run_problem(parse_problem(MECH_PROBLEM), 0, stages={"el"})["flags"]
    plate = parse_problem(PLATE_PROBLEM)
    assert run_problem(plate, 0, stages={"el"})["flags"] == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_matches_golden(name):
    report, diffs = corpus_check(name)
    assert diffs == [], "\n".join(diffs)


def test_corpus_overdetermination_flags():
    first = run_corpus("first-order")
    mech = run_corpus("mechanics")
    plate = run_corpus("plate")
    assert first["analysis"]["classification"]["verdict"] == "overdetermined"
    assert any("further constraint steps" in f for f in first["flags"])
    assert mech["analysis"]["classification"]["verdict"] == "overdetermined"
    assert any("further constraint steps" in f for f in mech["flags"])
    assert plate["analysis"]["classification"]["verdict"] == "exactly-determined"
    assert plate["flags"] == []


def test_corpus_mechanics_el_hand_value():
    mech = run_corpus("mechanics")
    assert mech["euler_lagrange"] == ["-u[2] - 2*u[0]"]


def test_corpus_plate_report_fields():
    plate = run_corpus("plate")
    assert plate["euler_lagrange"] == ["-q + u[0,4] + 2*u[2,2] + u[4,0]"]
    assert plate["analysis"]["regularity"]["regular_all"]
    assert plate["analysis"]["omega2"]["kernel_dims"] == [0, 0, 0, 0, 0]


def test_corpus_ch_report_fields():
    ch = run_corpus("camassa-holm")
    hess = ch["analysis"]["hessian"]["entries"]
    assert hess == [["0", "0", "0"], ["0", "1/u[1,0]", "0"], ["0", "0", "0"]]
    assert not ch["analysis"]["regularity"]["regular_all"]
    assert all(d >= 1 for d in ch["analysis"]["omega2"]["kernel_dims"])


def test_projectability_replay():
    from srfield.corpus import corpus_problem
    rep = projectability_replay(corpus_problem("first-as-second"))
    assert rep["matches_first_order_top_constraints"]
    assert rep["matches_first_order_euler_lagrange"]
    assert rep["trace_equations_match"]


TWO_FIELD_PROBLEM = """
m=2
n=2
k=1
lagrangian = 1/2*(u[1,0]^2 + u[0,1]^2 + u[1,0]@2^2 + u[0,1]@2^2) - u[0,0]*u[0,0]@2
section@1 = x[1]^2
section@2 = x[1]*x[2]
variation@1 = 1
variation@2 = x[2]
point = u[1,0]=1.5 u[0,1]@2=0.5
"""


def test_two_field_problem_end_to_end():
    p = parse_problem(TWO_FIELD_PROBLEM)
    r = run_problem(p, seed=2)
    assert r["euler_lagrange"] == ["-u[0,0]@2 - u[0,2] - u[2,0]",
                                   "-u[0,2]@2 - u[2,0]@2 - u[0,0]"]
    w1 = [(e["lhs"], e["rhs"]) for e in r["equations"]["W1"]]
    assert w1 == [("p[0,0;1]", "u[1,0]"), ("p[0,0;2]", "u[0,1]"),
                  ("p[0,0;1]@2", "u[1,0]@2"), ("p[0,0;2]@2", "u[0,1]@2")]
    assert r["analysis"]["omega2"]["kernel_dims"] == [0] * 5
    # the supplied point is appended after the seeded samples
    assert r["analysis"]["regularity"]["samples"][-1]["point"] == {
        "u[0,1]@2": 0.5, "u[1,0]": 1.5}
    assert all(e["rel_err"] < 1e-5 for e in r["oracle"])


def test_zero_lagrangian_report():
    p = parse_problem("m=2\nn=1\nk=1\nlagrangian = 0\n")
    r = run_problem(p, seed=0, stages={"el", "analysis"})
    assert r["euler_lagrange"] == ["0"]
    hess = r["analysis"]["hessian"]["entries"]
    assert all(v == "0" for row in hess for v in row)
    assert not r["analysis"]["regularity"]["regular_all"]
    assert all(not s["regular"] for s in r["analysis"]["regularity"]["samples"])


def test_diff_reports_structure():
    assert diff_reports({"a": 1}, {"a": 1}) == []
    assert diff_reports({"a": 1}, {"a": 2}) == ["a: 1 vs 2"]
    assert diff_reports({"a": [1.0]}, {"a": [1.0 + 1e-12]}) == []
    assert diff_reports({"a": [1.0]}, {"a": [1.1]}) != []
    assert diff_reports({}, {"b": 1}) == ["b: only in actual"]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_json(tmp_path, capsys):
    path = _write(tmp_path, "mech.prob", MECH_PROBLEM)
    rc = main(["run", path, "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["euler_lagrange"] == ["-u[2] - 2*u[0]"]
    assert report["problem"]["seed"] == 1


def test_cli_run_text(tmp_path, capsys):
    path = _write(tmp_path, "mech.prob", MECH_PROBLEM)
    rc = main(["run", path, "--text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "euler-lagrange: -u[2] - 2*u[0] = 0" in out


def test_cli_el_and_analyze(tmp_path, capsys):
    path = _write(tmp_path, "mech.prob", MECH_PROBLEM)
    assert main(["el", path]) == 0
    el_out = json.loads(capsys.readouterr().out)
    assert "euler_lagrange" in el_out and "analysis" not in el_out
    assert main(["analyze", path]) == 0
    an_out = json.loads(capsys.readouterr().out)
    assert "analysis" in an_out and "euler_lagrange" not in an_out


def test_cli_run_deep_lagrangian(tmp_path, capsys):
    # 100 nested parentheses: the numeric stages compile it without hitting
    # the Python parser's nesting limit
    text = "u[1]^2"
    for _ in range(100):
        text = "(%s*2+x[1])" % text
    path = _write(tmp_path, "deep.prob", "m=1\nn=1\nk=1\nlagrangian = %s\n" % text)
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["oracle"]) == 3


def test_cli_exit_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.prob", "m=2\nn=1\nk=1\nlagrangian = u[2,0]\n")
    assert main(["run", path]) == 2


def test_cli_exit_usage_error(tmp_path, capsys):
    text = MECH_PROBLEM + "section@1 = u[1]\nvariation@1 = 1\n"
    path = _write(tmp_path, "bad2.prob", text)
    assert main(["run", path]) == 3


def test_cli_missing_file(capsys):
    assert main(["run", "/nonexistent/problem.prob"]) == 3


def test_cli_corpus_all(capsys):
    rc = main(["corpus", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in CORPUS_NAMES:
        assert "%s: ok" % name in out


def test_cli_entrypoint_subprocess(tmp_path):
    path = _write(tmp_path, "mech.prob", MECH_PROBLEM)
    proc = subprocess.run([sys.executable, "-m", "srfield", "run", path, "--text"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "euler-lagrange" in proc.stdout
