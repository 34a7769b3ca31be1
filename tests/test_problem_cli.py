"""Problem-file parsing, report determinism, corpus goldens, CLI exit codes."""

import json
import random
import subprocess
import sys
import time

import pytest

from srfield import errors
from srfield.cli import main
from srfield.corpus import (
    CORPUS_NAMES,
    corpus_check,
    diff_reports,
    projectability_replay,
    run_corpus,
)
from srfield.errors import ParseError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.problem import ProblemFile, parse_problem
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


def test_parse_problem_long_index():
    # an index past Python's int-to-string limit used to end in exit 4
    big = "7" * 5000
    for bad, exc in (("field q(x[%s])\nlagrangian = u[1]" % big, "bad field dependence"),
                     ("lagrangian = u[1]\nsection@%s = x[1]" % big, "unknown key")):
        with pytest.raises(ParseError, match=exc):
            parse_problem("m=1\nn=1\nk=1\n" + bad)


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


@pytest.mark.parametrize("command", ["run", "el", "analyze"])
@pytest.mark.parametrize("lines", ["section@1 = q*x[1]\nvariation@1 = 1\n",
                                   "section@1 = x[1]\nvariation@1 = q\n"])
def test_cli_field_in_section_or_variation(tmp_path, capsys, command, lines):
    """A section or variation on a field stops every subcommand at parse."""
    path = _write(tmp_path, "field.prob", PLATE_PROBLEM + lines)
    assert main([command, path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "references q, which is not a base variable" in err


def test_cli_missing_file(tmp_path, capsys):
    assert main(["run", "/nonexistent/problem.prob"]) == 3
    assert main(["run", str(tmp_path)]) == 3  # a directory, not a file


def test_cli_binary_file_parse_error(tmp_path, capsys):
    path = tmp_path / "random.prob"
    path.write_bytes(random.Random(7).randbytes(200))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: not UTF-8 text")


@pytest.mark.parametrize("depth", [300, 1000])
def test_cli_deep_parentheses_parse_error(tmp_path, capsys, depth):
    text = "(" * depth + "u[2]*u[2]" + ")" * depth
    path = _write(tmp_path, "deep.prob", "m=1\nn=1\nk=2\nlagrangian = %s\n" % text)
    assert main(["el", path]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_cli_continued_fraction_budget(tmp_path, capsys):
    # 20 levels of 1/(1+...) put a degree-20 denominator under every sum;
    # multiplying the denominators of a sum instead of taking their lcm took
    # about 17 s on a 2-core VM
    text = "u[1]"
    for _ in range(20):
        text = "1/(1+%s)" % text
    path = _write(tmp_path, "cf.prob", "m=1\nn=1\nk=1\nlagrangian = %s\n" % text)
    start = time.perf_counter()
    assert main(["el", path]) == 0
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["euler_lagrange"][0].startswith(
        "(2/45765225*u[2])/(u[1]^3 + ")
    assert elapsed < 5.0, "continued fraction took %.2fs" % elapsed


@pytest.mark.parametrize("lagrangian,exponent", [("(u[1]+u[0]+x[1])^400", 400),
                                                 ("(u[1]+u[0]+x[1])^-400", -400),
                                                 ("((u[1]+u[0]+x[1])^8)^8", 64),
                                                 ("((u[1]+u[0]+x[1])^64)^64", 64),
                                                 ("2^1000000000", 1000000000)])
def test_cli_exponent_budget(tmp_path, capsys, lagrangian, exponent):
    path = _write(tmp_path, "pow.prob", "m=1\nn=1\nk=1\nlagrangian = %s\n" % lagrangian)
    start = time.perf_counter()
    assert main(["el", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert ("exponent %d exceeds the budget of 32" % exponent) in capsys.readouterr().err


@pytest.mark.parametrize("lagrangian,code,message", [
    ("7" * 5000 + "*u[1]^2", 2, "number with more than 600 digits"),
    ("u[1]^2/" + "3" * 4400, 2, "number with more than 600 digits"),
    ("(((3^32)^32)^32)*u[1]^2", 3, "constant with more than 600 digits"),
    ("u[1]^2*" + "*".join(["(3^32)^32"] * 3), 3, "constant with more than 600 digits"),
    ("(u[1]+(3^32)^32)^32", 3, "constant with more than 600 digits in a result"),
], ids=["literal", "denominator", "nested-power", "product", "expansion"])
def test_cli_digit_budget(tmp_path, capsys, lagrangian, code, message):
    # past Python's 4,300-digit int-to-string limit these used to exit 4
    path = _write(tmp_path, "big.prob", "m=1\nn=1\nk=1\nlagrangian = %s\n" % lagrangian)
    start = time.perf_counter()
    assert main(["el", path]) == code
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["el", "run"])
def test_cli_digit_budget_in_derived_sides(tmp_path, capsys, command):
    # L itself renders (a 600-digit coefficient); its derived sides carry
    # 32*10^599, which only the renderer of the equations and EL can catch
    text = "m=1\nn=1\nk=1\nlagrangian = 1%s*u[1]^32\n" % ("0" * 599)
    path = _write(tmp_path, "big.prob", text)
    assert main([command, path]) == 3
    assert "constant with more than 600 digits in a result" in capsys.readouterr().err


def test_cli_digit_budget_boundary(tmp_path, capsys):
    # (3^32)^32 has 489 digits, a 600-digit literal is still a number
    text = "(3^32)^32*u[1]^2 + %s*u[1]" % ("1" * 600)
    path = _write(tmp_path, "edge.prob", "m=1\nn=1\nk=1\nlagrangian = %s\n" % text)
    assert main(["el", path]) == 0
    assert str(3 ** 1024) in capsys.readouterr().out


@pytest.mark.parametrize("coef", ["9" * 500, "9" * 500 + "/7"], ids=["integer", "fraction"])
def test_cli_constant_beyond_float_range(tmp_path, capsys, coef):
    # within the digit budget but past the float range: the numeric checks
    # used to end in LinAlgError or OverflowError (exit 4)
    text = "m=2\nn=1\nk=2\nlagrangian = %s*u[2,0]^2 + u[0,2]^2 + u[1,1]^2\n" % coef
    path = _write(tmp_path, "big.prob", text)
    start = time.perf_counter()
    assert main(["run", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "too large for floating point" in capsys.readouterr().err
    assert main(["el", path]) == 0


def test_cli_singular_kernel_block_is_not_a_warning(tmp_path):
    # det warns on an exactly singular block, whose determinant is correctly 0;
    # with warnings as errors that warning used to end the run with exit 4
    text = ("m=2\nn=1\nk=2\nlagrangian = 1%s*u[2,0]^2*u[1,0]^32 + u[0,2]^2 + u[1,1]^2\n"
            % ("0" * 300))
    path = _write(tmp_path, "singular.prob", text)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "srfield",
                           "run", path], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "non-finite value" in proc.stderr


def _run_strict(path):
    """`srfield run` with warnings as errors: the exit code and the report, NaN rejected."""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "srfield",
                           "run", path], capture_output=True, text=True)
    assert "Warning" not in proc.stderr

    def reject(constant):
        raise ValueError("non-finite JSON constant %s" % constant)

    return proc.returncode, (json.loads(proc.stdout, parse_constant=reject)
                             if proc.returncode == 0 else proc.stderr)


def test_cli_non_finite_oracle_is_a_diagnostic(tmp_path):
    # near the box's edge x[1] = 0, L grows like 1e300/x[1]^8 and passes the
    # float range on the nodes nearest it, whatever the section; this used to
    # write NaN, which is not JSON, and to exit 4 with warnings as errors
    text = "m=1\nn=1\nk=1\nlagrangian = 1%s*u[1]^2/x[1]^8\n" % ("0" * 300)
    code, report = _run_strict(_write(tmp_path, "overflow.prob", text))
    assert code == 0, report
    pairs = report["oracle"]
    assert len(pairs) == 3
    for entry in pairs:
        assert entry["diagnostic"].startswith("non-finite ")
        assert "lhs" not in entry and "rel_err" not in entry


POLE = "division by zero in (x[1] - 1/2)^-1"


@pytest.mark.parametrize("lagrangian,lines,poles", [
    ("u[1]^2", "section@1 = 1/(x[1]-1/2)\nvariation@1 = 1\n", [True, False, False]),
    ("u[1]^2/(x[1]-1/2)", "", [True, True, True])])
def test_cli_pole_on_a_node_is_a_diagnostic(tmp_path, capsys, lagrangian, lines, poles):
    # 1/2 is the middle node of both Gauss-Legendre rules; a pole there used to
    # end the whole run with exit 3, while one between the nodes gave diagnostics
    text = "m=1\nn=1\nk=1\nlagrangian = %s\n%s" % (lagrangian, lines)
    assert main(["run", _write(tmp_path, "pole.prob", text)]) == 0
    pairs = json.loads(capsys.readouterr().out)["oracle"]
    assert [entry.get("diagnostic") == POLE for entry in pairs] == poles
    for entry in pairs:
        assert ("diagnostic" in entry) != ("rel_err" in entry)


def test_cli_large_action_oracle_passes(tmp_path):
    # the action is about 1e300; a complex step scaled by it overflowed the
    # stepped jets, and every pair reported a non-finite action derivative
    text = "m=1\nn=1\nk=1\nlagrangian = 1%s*u[1]^2\n" % ("0" * 300)
    code, report = _run_strict(_write(tmp_path, "large.prob", text))
    assert code == 0, report
    pairs = report["oracle"]
    assert len(pairs) == 3
    for entry in pairs:
        assert "diagnostic" not in entry
        assert entry["eps"] == 1e-20
        assert abs(entry["lhs"]) > 1e290
        assert entry["rel_err"] <= 1e-9


def test_cli_term_budget(tmp_path, capsys):
    # every power is within the exponent budget, but expanding it passes
    # 10,000 terms; `srfield el` used to run on for more than 20 s
    text = "(u[0,0]+u[1,0]+u[0,1]+u[2,0]+u[1,1]+u[0,2])^32"
    path = _write(tmp_path, "terms.prob", "m=2\nn=1\nk=2\nlagrangian = %s\n" % text)
    start = time.perf_counter()
    assert main(["el", path]) == 3
    assert time.perf_counter() - start < 10.0
    assert "exceeds the budget of 10000 terms" in capsys.readouterr().err


# twenty jet and base coordinates and 1, summed: L's denominator is that sum s cubed,
# 1,771 terms, and the partials table keeps its partials over powers of s, whose
# fourth, 10,626 terms, passes the budget
RATIONAL_BUDGET_SUM = "+".join(["u[0,0]%s+u[1,0]%s+u[0,1]%s+u[2,0]%s+u[1,1]%s+u[0,2]%s"
                                % ((fiber,) * 6) for fiber in ("", "@2", "@3")] + ["x[1]+x[2]+1"])


@pytest.mark.parametrize("command", ["el", "run"])
def test_cli_rational_power_budget(tmp_path, capsys, command):
    text = "m=2\nn=3\nk=2\nlagrangian = u[2,0]^2/(%s)^3\n" % RATIONAL_BUDGET_SUM
    path = _write(tmp_path, "power.prob", text)
    start = time.perf_counter()
    assert main([command, path]) == 3
    assert time.perf_counter() - start < 10.0
    assert "expanded product exceeds the budget of 10000 terms" in capsys.readouterr().err


# a factor to the fourth beside a factor with 84 terms in three variables: the
# header and the analysis need only L's canonical pair, while the partials table
# keeps L over (u[0,0]+1)^4 s^4, which passes the budget
WIDE_FACTOR = "+".join(["x[1]^%d*x[2]^%d*u[1,0]^%d" % (a, b, c) for a in range(7)
                        for b in range(7) for c in range(7) if 0 < a + b + c <= 6] + ["1"])


@pytest.mark.parametrize("command,code", [("analyze", 0), ("el", 3)])
def test_cli_repeated_factor_beside_a_wide_factor(tmp_path, capsys, command, code):
    text = "m=2\nn=1\nk=2\nlagrangian = u[2,0]^2/((u[0,0]+1)^4*(%s))\n" % WIDE_FACTOR
    path = _write(tmp_path, "wide.prob", text)
    start = time.perf_counter()
    assert main([command, path]) == code
    assert time.perf_counter() - start < 10.0
    if code:
        assert "expanded product exceeds the budget of 10000 terms" in capsys.readouterr().err


def test_cli_point_name_parse_error(tmp_path, capsys):
    # a malformed coordinate name is a parse error like any other
    for point in ("x[0]=1", "x[3]=1", "u[3,0]=1", "u=1", "p[0,2;1]=1"):
        path = _write(tmp_path, "point.prob", PLATE_PROBLEM + "point = %s\n" % point)
        assert main(["analyze", path]) == 2, point
        assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("line,code", [("point = x[0]=1", 2),
                                       ("section@1 = u[1,0]", 3),
                                       ("variation@1 = 1 + u[0,0]", 3),
                                       ("section@2 = x[1]", 3)])
def test_cli_every_line_checked_on_parsing(tmp_path, capsys, line, code):
    # a point, section or variation line is checked when the file is read,
    # so each command exits alike, whether or not its stages read the line
    path = _write(tmp_path, "line.prob", "m=2\nn=1\nk=2\nlagrangian = u[2,0]^2\n%s\n" % line)
    for command in ("el", "analyze", "run"):
        assert main([command, path]) == code, command
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("lines,code,err", [
    ("section@1 = x[1]\nsection@2 = x[1]^2\nvariation@1 = 1\n", 3,
     "error: section/variation fiber index 2 out of range for n=1\n"),
    ("section@1 = x[1]\nsection@0 = x[1]^2\nvariation@1 = 1\n", 3,
     "error: section/variation fiber index 0 out of range for n=1\n"),
    ("section@1 = x[1]\nsection@1 = x[1]^2\nvariation@1 = 1\n", 3,
     "error: 2 sections but 1 variations: each section pairs with one variation\n"),
    ("point = u[2,0]=1 u[2,0]=2\n", 2, "parse error: line 5: coordinate u[2,0] given twice\n"),
    ("point = u[2,0]=1.5 u[2,0]@1=0.5\n", 2,
     "parse error: line 5: coordinate u[2,0] given twice\n"),
], ids=["section-index-above-n", "section-index-0", "section-without-variation",
        "point-repeated-name", "point-repeated-coordinate"])
def test_cli_no_section_or_coordinate_is_dropped(tmp_path, capsys, lines, code, err):
    # each of these used to run with the extra section, variation or value dropped
    path = _write(tmp_path, "drop.prob", "m=2\nn=1\nk=2\nlagrangian = u[2,0]^2\n" + lines)
    for command in ("el", "analyze", "run"):
        assert main([command, path]) == code, command
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", err), command


def test_problem_built_in_code_pairs_every_section():
    # a ProblemFile made without parse_problem meets the same count check; the oracle
    # used to run the first pair and drop the second section without a word
    with pytest.raises(errors.UsageError) as exc:
        run_problem(ProblemFile(BundleSpec(1, 1, 1), "u[1]^2",
                                sections=[{1: "x[1]"}, {1: "x[1]^2"}], variations=[{1: "1"}]),
                    0, {"oracle"})
    assert str(exc.value) == "2 sections but 1 variations: each section pairs with one variation"


@pytest.mark.parametrize("line,key,first", [("m = 2", "m", 3), ("n = 1", "n", 4),
                                            ("k = 3", "k", 5), ("field q(x[1]) = 2", "field q", 6),
                                            ("lagrangian = u[0,0]^2", "lagrangian", 7)])
def test_cli_repeated_key_is_a_parse_error(tmp_path, capsys, line, key, first):
    # the last of two values used to win silently; a repeat, even of the same
    # value, leaves the problem ambiguous, so no command runs it
    path = _write(tmp_path, "repeat.prob", PLATE_PROBLEM + line + "\n")
    for command in ("el", "run"):
        assert main([command, path]) == 2, command
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "parse error: line 8: repeated key %s, first given on line %d\n" % (
            key, first)


def test_cli_repeated_points_are_more_points(tmp_path, capsys):
    text = PLATE_PROBLEM + "point = u[2,0]=1.5\npoint = u[2,0]=1.25 u[1,1]=0.5\n"
    path = _write(tmp_path, "points.prob", text)
    assert main(["analyze", path]) == 0
    samples = json.loads(capsys.readouterr().out)["analysis"]["regularity"]["samples"]
    assert [s["point"] for s in samples[-2:]] == [{"u[2,0]": 1.5},
                                                  {"u[1,1]": 0.5, "u[2,0]": 1.25}]


def test_cli_repeated_fiber_index_starts_a_new_pair(tmp_path, capsys):
    text = MECH_PROBLEM + ("section@1 = x[1]^3\nsection@1 = x[1]^2\n"
                           "variation@1 = 1\nvariation@1 = x[1]\n")
    path = _write(tmp_path, "pairs.prob", text)
    assert main(["run", path]) == 0
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert [(e["section"], e["variation"]) for e in oracle[:2]] == [
        (["x[1]^3"], ["1"]), (["x[1]^2"], ["x[1]"])]
    assert all("rel_err" in e for e in oracle)


def test_cli_catalog_budget(tmp_path, capsys):
    # m = n = k = 9 has 2,406,700 coordinates; listing them ran past 30 s
    text = "m=9\nn=9\nk=9\nlagrangian = u[1,0,0,0,0,0,0,0,0]^2\n"
    path = _write(tmp_path, "big.prob", text)
    start = time.perf_counter()
    assert main(["el", path]) == 3
    assert time.perf_counter() - start < 5.0
    assert "(9, 9, 9) has more than the budget of 2000 coordinates" in capsys.readouterr().err


def test_cli_kernel_check_scales_to_three_base_dimensions(tmp_path, capsys):
    # 48 coordinates, 35 tangent directions; one (m+1)-determinant per form
    # term and 4-subset of the tangent basis took about 7 s on a 2-core VM
    path = _write(tmp_path, "m3.prob", "m=3\nn=2\nk=2\nlagrangian = u[1,0,0]^2\n")
    start = time.perf_counter()
    assert main(["run", path]) == 0
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["analysis"]["omega2"]["kernel_dims"] == [12] * 5
    assert elapsed < 4.0, "run took %.2fs" % elapsed


def test_cli_catalog_budget_huge_header(tmp_path, capsys):
    # the count's binomials for m = k = 100000 would run for minutes; the
    # parent ended in a RecursionError (exit 4)
    path = _write(tmp_path, "huge.prob", "m=100000\nn=1\nk=100000\nlagrangian = u[1,0]^2\n")
    start = time.perf_counter()
    assert main(["el", path]) == 3
    assert time.perf_counter() - start < 1.0
    assert "more than the budget of 2000 coordinates" in capsys.readouterr().err


def test_cli_field_without_dependence(tmp_path, capsys):
    text = "m=1\nn=1\nk=1\nfield q() = 2\nlagrangian = q*u[1]^2\n"
    path = _write(tmp_path, "q.prob", text)
    assert main(["el", path]) == 0
    report = json.loads(capsys.readouterr().out)
    # the canonical form lists field atoms after the jets
    assert report["problem"]["lagrangian"] == "u[1]^2*q"
    assert report["problem"]["fields"] == {"q": {"depends": [], "value": "2"}}
    assert report["euler_lagrange"] == ["-2*u[2]*q"]


def test_problem_is_parsed_once(monkeypatch):
    import srfield.problem

    problem = parse_problem(PLATE_PROBLEM)
    parsed = []

    def counted(text, catalog, _real=srfield.problem.parse):
        parsed.append(text)
        return _real(text, catalog)
    monkeypatch.setattr(srfield.problem, "parse", counted)
    catalog = problem.catalog()
    assert problem.lagrangian(catalog) is problem.lagrangian()
    assert problem.field_bindings(catalog) == problem.field_bindings()
    run_problem(problem, 0, {"equations", "el"})
    assert parsed == []
    # a catalog of another signature still parses against that catalog
    fields = {"q": (1, 2)}
    order_3 = problem.lagrangian(build_catalog(BundleSpec(2, 1, 3), fields=fields))
    assert order_3 == problem.lagrangian()
    with pytest.raises(ParseError, match="jet order"):
        problem.lagrangian(build_catalog(BundleSpec(2, 1, 1), fields=fields))
    assert parsed == [problem.lagrangian_text] * 2


def test_cli_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    import srfield.cli

    def broken(problem, seed=0, stages=None):
        raise ZeroDivisionError("boom\nsecond line")

    monkeypatch.setattr(srfield.cli, "run_problem", broken)
    path = _write(tmp_path, "mech.prob", MECH_PROBLEM)
    assert main(["el", path]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: boom second line\n"


ENGINE_ERRORS = {
    errors.ParseError: (2, "parse error: boom"),
    errors.UsageError: (3, "error: boom"),
    errors.PreconditionError: (3, "error: boom"),
    errors.NormalizationError: (3, "error: boom"),
    errors.EvalDomainError: (3, "error: boom"),
    errors.SelectionError: (3, "error: boom"),
    errors.QuadratureError: (3, "error: boom"),
    errors.InternalConsistencyError: (4, "internal consistency error: boom"),
}


def test_cli_exit_table_covers_every_engine_error():
    assert set(ENGINE_ERRORS) == set(errors.EngineError.__subclasses__())


@pytest.mark.parametrize("exc,code,prefix", [
    (cls, code, prefix) for cls, (code, prefix) in ENGINE_ERRORS.items()] + [
    (OSError, 3, "error: boom"),
    (RuntimeError, 4, "internal error: RuntimeError: boom")],
    ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_cli_exit_code_per_exception(tmp_path, capsys, monkeypatch, exc, code, prefix):
    import srfield.cli

    def broken(problem, seed=0, stages=None):
        raise exc("boom")

    monkeypatch.setattr(srfield.cli, "run_problem", broken)
    path = _write(tmp_path, "mech.prob", MECH_PROBLEM)
    assert main(["run", path]) == code
    assert capsys.readouterr().err == prefix + "\n"


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
