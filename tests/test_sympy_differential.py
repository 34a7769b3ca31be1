"""Differentiation against sympy: gradient and partial, total derivatives, Euler-Lagrange."""

import random

import pytest

from srfield import eleuler as el
from srfield import symexpr as sx
from srfield.jetmodel import BundleSpec, SectionFn, build_catalog
from srfield.problem import parse_problem
from srfield.report import _rng, random_section, random_variation

from conftest import CH_L_TEXT, bench_workloads, random_poly, random_rational

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402


def to_sympy(e, atom):
    """Expression tree -> sympy, with atom(sym) giving each symbol's image."""
    if isinstance(e, sx.Const):
        return sympy.Rational(e.q.numerator, e.q.denominator)
    if isinstance(e, sx.Atom):
        return atom(e.sym)
    if isinstance(e, sx.Add):
        return sympy.Add(*[to_sympy(t, atom) for t in e.terms])
    if isinstance(e, sx.Mul):
        return sympy.Mul(*[to_sympy(f, atom) for f in e.factors])
    return sympy.Pow(to_sympy(e.base, atom), e.exp)


def jet_space(m, n):
    """Atom images with jets as derivatives of u1(x1..xm), ...; fields as functions of x."""
    xs = sympy.symbols("x1:%d" % (m + 1))
    us = [sympy.Function("u%d" % a)(*xs) for a in range(1, n + 1)]

    def derive(f, index):
        args = [arg for x, c in zip(xs, index) if c for arg in (x, c)]
        return sympy.Derivative(f, *args) if args else f

    def atom(s):
        if s.kind == sx.BASE:
            return xs[s.i - 1]
        if s.kind == sx.JET:
            return derive(us[s.alpha - 1], s.index)
        if s.kind == sx.FIELD:
            return derive(sympy.Function(s.name)(*[xs[d - 1] for d in s.deps]), s.index)
        raise AssertionError(s)

    return xs, us, atom


def same(a, b):
    return sympy.cancel(sympy.together(a - b)) == 0


def _random_expr(rng, syms):
    kind = rng.randrange(3)
    if kind == 0:
        return random_poly(rng, syms, max_terms=5, max_deg=3)
    if kind == 1:
        return random_rational(rng, syms)
    return sx.eadd(sx.epow(random_poly(rng, syms, max_terms=3), 2), random_rational(rng, syms))


@pytest.mark.parametrize("seed", range(12))
def test_gradient_and_partial_match_sympy_diff(seed):
    rng = random.Random(seed)
    cat = build_catalog(BundleSpec(2, 1, 2), fields={"q": (1,), "r": (1, 2)})
    fields = [cat.field_atom("q").sym, cat.field_atom("r").sym]
    syms = list(cat.base_syms) + list(cat.jet_syms[:4]) + fields
    e = _random_expr(rng, syms)
    # jets are independent symbols here; fields stay functions of the base variables
    _, _, space_atom = jet_space(2, 1)
    names = {s: sympy.Symbol("s%d" % ix) for ix, s in enumerate(cat.coords)}
    names.update({s: space_atom(s) for s in cat.base_syms})

    def atom(s):
        return space_atom(s) if s.kind == sx.FIELD else names[s]

    big = to_sympy(e, atom)
    grad = sx.gradient(e, cat.coords)
    assert list(grad) == [s for s in cat.coords if s in grad]
    for s in cat.coords:
        want = sympy.diff(big, names[s])
        assert same(to_sympy(sx.partial(e, s), atom), want), s
        if s in grad:
            assert not sx.is_syntactic_zero(grad[s])
            assert same(to_sympy(grad[s], atom), want), s
        else:
            assert want == 0, s


@pytest.mark.parametrize("seed", range(12))
def test_total_derivative_matches_sympy_chain_rule(seed):
    rng = random.Random(100 + seed)
    m = 1 + seed % 2
    cat = build_catalog(BundleSpec(m, 2, 2), fields={"q": (1,)})
    lower = [s for s in cat.jet_syms if sum(s.index) <= 1]
    syms = lower + list(cat.base_syms) + [cat.field_atom("q").sym]
    e = _random_expr(rng, syms)
    xs, _, atom = jet_space(m, 2)
    for i in range(1, m + 1):
        got = el.total_derivative(e, i, sx.jet_order(e) + 1)
        assert same(to_sympy(got, atom), sympy.diff(to_sympy(e, atom), xs[i - 1])), i


@pytest.mark.parametrize("m,n,k", [(1, 1, 2), (2, 1, 2), (1, 2, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_euler_lagrange_matches_sympy(m, n, k, seed):
    rng = random.Random(1000 * m + 100 * n + 10 * k + seed)
    spec = BundleSpec(m, n, k)
    cat = build_catalog(spec)
    syms = list(cat.jet_syms) + list(cat.base_syms)
    L = sx.eadd(random_poly(rng, syms, max_terms=4, max_deg=3),
                sx.epow(sx.Atom(cat.jet_syms[-1]), 2))
    if seed == 2:
        L = sx.eadd(L, random_rational(rng, syms))
    xs, us, atom = jet_space(m, n)
    big = to_sympy(L, atom)
    ours = el.euler_lagrange(L, spec)
    for u, comp in zip(us, ours.components):
        # euler_equations drops an equation whose sides are constant, so add
        # u^2/2, which adds u to the Euler-Lagrange expression of u.
        (eq,) = euler_equations(big + u ** 2 / 2, [u], xs)
        assert same(eq.lhs - eq.rhs - u, to_sympy(comp, atom)), (m, n, k, seed)


def exact_first_variation(L, spec, s, psi):
    """d/dt S[s + t bump psi] at t = 0 over [0, 1]^m, with the bump prod (x_i (1 - x_i))^k,
    as the integral of sum_J dL/du_J (s) D^J (bump psi), differentiated and
    integrated exactly by sympy."""
    xs = sympy.symbols("x1:%d" % (spec.m + 1))
    bump = sympy.Mul(*[(x * (1 - x)) ** spec.k for x in xs])
    on_base = lambda sym: xs[sym.i - 1]
    section = [sympy.Poly(to_sympy(c, on_base), *xs) for c in s.components]
    varied = [sympy.Poly(bump * to_sympy(p, on_base), *xs) for p in psi.components]

    def jet(polys, u):
        args = [(x, c) for x, c in zip(xs, u.index) if c]
        return (polys[u.alpha - 1].diff(*args) if args else polys[u.alpha - 1]).as_expr()

    jets = {u: sympy.Symbol(u.render()) for u in sx.free_syms(L) if u.kind == sx.JET}
    big = to_sympy(L, lambda sym: jets[sym] if sym in jets else on_base(sym))
    on_s = {U: jet(section, u) for u, U in jets.items()}
    integrand = sympy.Add(*[sympy.diff(big, U).subs(on_s) * jet(varied, u)
                            for u, U in jets.items()])
    if integrand.is_polynomial(*xs):
        return sum(c / sympy.prod([e + 1 for e in exps])
                   for exps, c in sympy.Poly(integrand, *xs).terms())
    return sympy.integrate(integrand, *[(x, 0, 1) for x in xs])


def _ladder_213_second_pair():
    problem = parse_problem(dict(bench_workloads().LADDER)["ladder-213"])
    rng = _rng(0, "oracle")
    pairs = [(random_section(problem.bundle, rng), random_variation(problem.bundle, rng))
             for _ in range(3)]
    return problem.lagrangian(), problem.bundle, pairs[1]


def _camassa_holm_pair():
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    # u[1,0] = 1 + x[2]/2 stays away from zero on the unit square
    return (sx.parse(CH_L_TEXT, cat), spec,
            (SectionFn([sx.parse("x[1] + x[1]*x[2]/2 + x[2]^2/3", cat)]),
             SectionFn([sx.parse("1 + x[1] - x[2]/2", cat)])))


@pytest.mark.parametrize("case", [_ladder_213_second_pair, _camassa_holm_pair],
                         ids=["ladder-213", "camassa-holm"])
def test_oracle_sides_match_the_exact_first_variation(case):
    """Both oracle sides lie within 5e-13 relative of the exact first variation."""
    L, spec, (s, psi) = case()
    exact = float(exact_first_variation(L, spec, s, psi).evalf(30))
    lhs, rhs = el.gateaux_oracle(L, spec, s, psi, 9, el.COMPLEX_STEP)
    assert abs(lhs - exact) <= 5e-13 * abs(exact), (lhs, exact)
    assert abs(rhs - exact) <= 5e-13 * abs(exact), (rhs, exact)
