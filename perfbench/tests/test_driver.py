"""The stage driver assembles the same reports as the engine's own entry points."""

import pytest

import driver
import workloads
from spans import NullTracer, Tracer
from srfield import corpus
from srfield.problem import parse_problem
from srfield.report import run_problem


@pytest.mark.parametrize("name", ["mechanics", "first-order", "first-as-second"])
def test_traced_corpus_equals_corpus_check(name):
    tr = Tracer()
    assert driver.run_corpus(name, tr) == corpus.corpus_check(name)
    assert {"problem.parse", "report.equations", "corpus.diff"} <= {s.name for s in tr.spans}


def test_traced_full_report_equals_run_problem():
    text = corpus.CORPUS_PROBLEMS["plate"]
    tr = Tracer()
    _, rep = driver.run_stages(text, 3, tr)
    assert rep == run_problem(parse_problem(text), 3)
    assert tr.counts["analysis.kernel_calls"] == 5
    assert tr.counts["eleuler.oracle_calls"] == 3
    assert tr.counts["analysis.kernel_dets"] > 0


def test_traced_assembly_reports_equal_run_problem():
    stages = {"equations", "el"}
    for item in workloads.generate("assembly", 5)[::6]:
        _, rep = driver.run_stages(item.text, 0, Tracer(), stages=stages)
        assert rep == run_problem(parse_problem(item.text), 0, stages), item.pid


def test_kept_samples_match_the_full_report():
    text = corpus.CORPUS_PROBLEMS["camassa-holm"]
    full = run_problem(parse_problem(text), 0)
    _, cut = driver.run_stages(text, 0, NullTracer(), kernel_samples=2, oracle_pairs=(1,))
    assert cut["analysis"]["omega2"]["kernel_dims"] == full["analysis"]["omega2"]["kernel_dims"][:2]
    assert cut["oracle"] == full["oracle"][1:2]


def test_self_times_subtract_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    outer, inner = tr.spans
    self_s = tr.self_times()
    assert self_s["inner"] == pytest.approx(inner.end - inner.start)
    assert self_s["outer"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert inner.parent == 0 and outer.parent == -1
    assert tr.top_level_seconds() == pytest.approx(outer.end - outer.start)
