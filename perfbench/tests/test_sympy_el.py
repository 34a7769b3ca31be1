"""Euler-Lagrange expressions of generated problems against sympy's euler_equations."""

import re

import pytest

import workloads
from srfield.eleuler import euler_lagrange
from srfield.problem import parse_problem
from srfield.symexpr import render

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

_TOKEN = re.compile(r"u\[([0-9,]+)\](?:@([0-9]+))?|x\[([0-9]+)\]")


def to_sympy(text: str, m: int, n: int):
    """Engine expression text -> sympy, jets as derivatives of u1(x1..xm), ..."""
    xs = sympy.symbols("x1:%d" % (m + 1))
    us = [sympy.Function("u%d" % a)(*xs) for a in range(1, n + 1)]
    names = {}

    def repl(match):
        if match.group(3):
            return "x" + match.group(3)
        index = [int(c) for c in match.group(1).split(",")]
        alpha = int(match.group(2) or 1)
        name = "J_%d_%s" % (alpha, "_".join(map(str, index)))
        args = [arg for x, c in zip(xs, index) if c for arg in (x, c)]
        names[name] = sympy.Derivative(us[alpha - 1], *args) if args else us[alpha - 1]
        return name

    body = _TOKEN.sub(repl, text).replace("^", "**")
    local = dict(names, **{str(x): x for x in xs})
    return sympy.sympify(body, locals=local), us, xs


def _cases():
    items = workloads.generate("assembly", 0)
    poly = [it for it in items if it.pid.startswith("poly-")
            and it.signature[0] <= 2 and it.signature[2] <= 2]
    rational = [it for it in items if it.pid.startswith("rational-") and it.signature[0] == 1]
    return poly[::2] + rational[::2]


@pytest.mark.parametrize("item", _cases(), ids=lambda it: it.pid)
def test_euler_lagrange_matches_sympy(item):
    problem = parse_problem(item.text)
    spec = problem.bundle
    ours = euler_lagrange(problem.lagrangian(), spec)
    L, us, xs = to_sympy(item.text.split("lagrangian = ", 1)[1].strip(), spec.m, spec.n)
    for u, comp in zip(us, ours.components):
        # euler_equations drops an equation whose sides are constant, so add
        # u^2/2, which adds u to the Euler-Lagrange expression of u.
        (eq,) = euler_equations(L + u ** 2 / 2, [u], xs)
        mine, _, _ = to_sympy(render(comp), spec.m, spec.n)
        assert sympy.simplify(eq.lhs - eq.rhs - u - mine) == 0, (item.pid, render(comp))
