"""Problem generation: deterministic, parseable, and divergences are null Lagrangians."""

import pytest

import workloads
from srfield.eleuler import euler_lagrange
from srfield.problem import parse_problem
from srfield.symexpr import is_zero


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


def test_seed_changes_random_problems():
    a = workloads.generate("assembly", 1)
    b = workloads.generate("assembly", 2)
    assert [item.pid for item in a] == [item.pid for item in b]
    for kind in ("poly", "rational"):
        assert [it.text for it in a if it.pid.startswith(kind)] != \
            [it.text for it in b if it.pid.startswith(kind)]


@pytest.mark.parametrize("name", ["corpus", "ladder"])
def test_fixed_workloads_only_reorder(name):
    a = workloads.generate(name, 1)
    b = workloads.generate(name, 2)
    assert sorted(a, key=lambda it: it.pid) == sorted(b, key=lambda it: it.pid)


@pytest.mark.parametrize("name", ["ladder", "assembly"])
def test_texts_parse_with_their_signature(name):
    for item in workloads.generate(name, 3):
        spec = parse_problem(item.text).bundle
        assert (spec.m, spec.n, spec.k) == item.signature


def test_assembly_mixes_polynomial_rational_and_divergence_problems():
    items = workloads.generate("assembly", 0)
    for prefix in ("poly-", "rational-"):
        kinds = {item.kind for item in items if item.pid.startswith(prefix)}
        assert {prefix[:-1], "divergence"} <= kinds


@pytest.mark.parametrize("denominator", [False, True])
def test_small_divergences_have_zero_euler_lagrange(denominator):
    import random

    rng = random.Random(11)
    for m, n, k in ((1, 1, 1), (1, 2, 2), (2, 1, 1)):
        d = workloads.Draw(rng, rng, m, n)
        text = workloads.problem_text(
            m, n, k, workloads.random_divergence(d, k, denominator=denominator))
        problem = parse_problem(text)
        el = euler_lagrange(problem.lagrangian(), problem.bundle)
        assert all(is_zero(c) for c in el.components), text


def test_total_derivative_product_rule():
    u = ("u", 1, (0, 0))
    x1 = ("x", 1)
    poly = {(u, u, x1): 3}
    got = workloads.total_derivative(poly, 1)
    u10 = ("u", 1, (1, 0))
    assert got == {(u, u): 3, tuple(sorted((u, u10, x1))): 6}
    assert workloads.poly_text(got, 2, 1) == "3*u[0,0]^2 + 6*u[0,0]*u[1,0]*x[1]"
