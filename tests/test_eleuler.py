"""Total derivatives, the Euler-Lagrange operator, residuals, and the numeric oracle."""

import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from srfield import symexpr as sx
from srfield import eleuler as el
from srfield import jetmodel, oracle, report
from srfield.corpus import CORPUS_NAMES, corpus_problem
from srfield.errors import EvalDomainError, QuadratureError, UsageError
from srfield.jetmodel import BundleSpec, SectionFn, build_catalog, prolong
from srfield.multiindex import MultiIndex
from srfield.problem import parse_problem
from srfield.report import ORACLE_PAIRS, _rng, random_section, random_variation, run_problem

from conftest import bench_workloads, jet, random_poly
from routes_reference import substituted_oracle


def test_total_derivative_basics():
    u = sx.Atom(jet(1, 0, 0))
    d = el.total_derivative(u, 1, 2)
    assert sx.render(sx.normalize(d)) == "u[1,0]"
    e = sx.ediv(sx.epow(sx.Atom(jet(1, 1, 0)), 2), sx.Const(2))
    d2 = el.total_derivative(e, 1, 2)
    assert sx.render(sx.normalize(d2)) == "u[1,0]*u[2,0]"


def test_total_derivative_field_chain():
    cat = build_catalog(BundleSpec(2, 1, 1), fields={"q": (1, 2)})
    q = cat.field_atom("q")
    d = el.total_derivative(q, 2, 1)
    assert sx.render(sx.normalize(d)) == "q[0,1]"


def test_total_derivative_budget():
    u2 = sx.Atom(jet(1, 2, 0))
    with pytest.raises(UsageError):
        el.total_derivative(u2, 1, 2)


def test_total_derivative_commutes():
    rng = random.Random(6)
    syms = [jet(1, 0, 0), jet(1, 1, 0), jet(1, 0, 1), sx.base_sym(1), sx.base_sym(2)]
    for _ in range(15):
        e = random_poly(rng, syms)
        xy = el.total_derivative(el.total_derivative(e, 1, 2), 2, 3)
        yx = el.total_derivative(el.total_derivative(e, 2, 2), 1, 3)
        assert sx.equivalent(xy, yx)


def test_iterated_total_derivative():
    e = sx.Atom(jet(1, 0, 0))
    assert el.iterated_total_derivative(e, MultiIndex((0, 0))) is e
    d = el.iterated_total_derivative(sx.Atom(jet(1, 2, 0)), MultiIndex((2, 0)))
    assert sx.render(sx.normalize(d)) == "u[4,0]"


def test_iterated_total_derivative_order_free():
    rng = random.Random(7)
    syms = [jet(1, 0, 0), jet(1, 1, 0), jet(1, 0, 1), sx.base_sym(1)]
    for _ in range(10):
        e = random_poly(rng, syms)
        viaJ = el.iterated_total_derivative(e, MultiIndex((1, 1)))
        other = el.total_derivative(el.total_derivative(e, 2, 2), 1, 3)
        assert sx.equivalent(viaJ, other)


def test_euler_lagrange_plate(plate_catalog, plate_L):
    out = el.euler_lagrange(plate_L, BundleSpec(2, 1, 2))
    expected = sx.eadd(sx.Atom(jet(1, 4, 0)),
                       sx.emul(sx.Const(2), sx.Atom(jet(1, 2, 2))),
                       sx.Atom(jet(1, 0, 4)),
                       sx.eneg(plate_catalog.field_atom("q")))
    assert len(out) == 1
    assert sx.equivalent(out[0], expected)


def test_euler_lagrange_k1_shape():
    """k=1: dL/du - sum_i D_i dL/du_i."""
    rng = random.Random(8)
    spec = BundleSpec(2, 1, 1)
    cat = build_catalog(spec)
    syms = list(cat.jet_syms) + list(cat.base_syms)
    for _ in range(5):
        L = random_poly(rng, syms)
        got = el.euler_lagrange(L, spec)[0]
        hand = sx.partial(L, jet(1, 0, 0))
        for i in (1, 2):
            hand = sx.esub(hand, el.total_derivative(
                sx.partial(L, sx.jet_sym(1, MultiIndex((0, 0)).bump(i))), i, 2))
        assert sx.equivalent(got, hand)


def test_euler_lagrange_m1_shape():
    """m=1: alternating-sign iterated derivatives up to order k."""
    rng = random.Random(9)
    spec = BundleSpec(1, 1, 2)
    cat = build_catalog(spec)
    syms = list(cat.jet_syms) + list(cat.base_syms)
    for _ in range(5):
        L = random_poly(rng, syms)
        got = el.euler_lagrange(L, spec)[0]
        hand = sx.partial(L, jet(1, 0))
        d1 = el.total_derivative(sx.partial(L, jet(1, 1)), 1, 3)
        d2 = el.iterated_total_derivative(sx.partial(L, jet(1, 2)), MultiIndex((2,)))
        hand = sx.eadd(sx.esub(hand, d1), d2)
        assert sx.equivalent(got, hand)


def test_euler_lagrange_mechanics():
    cat = build_catalog(BundleSpec(1, 1, 1))
    L = sx.parse("u[1]^2/2 - u[0]^2", cat)
    out = el.euler_lagrange(L, BundleSpec(1, 1, 1))
    assert sx.render(out[0]) == "-u[2] - 2*u[0]"


def test_euler_lagrange_rejects_high_order():
    with pytest.raises(UsageError):
        el.euler_lagrange(sx.Atom(jet(1, 2, 0)), BundleSpec(2, 1, 1))


def test_residual_cubic_plate(plate_catalog, plate_L):
    spec = BundleSpec(2, 1, 2)
    els = el.euler_lagrange(plate_L, spec)
    s = SectionFn([sx.parse("x[1]^3", plate_catalog)])
    point = {sx.base_sym(1): 0.4, sx.base_sym(2): 0.9}
    r = el.residual_on_section(els, s, point, fields={"q": sx.Const(0)})
    assert r == [pytest.approx(0.0, abs=1e-12)]


def test_residual_quartic_plate(plate_catalog, plate_L):
    spec = BundleSpec(2, 1, 2)
    els = el.euler_lagrange(plate_L, spec)
    s = SectionFn([sx.parse("x[1]^4", plate_catalog)])
    point = {sx.base_sym(1): 0.4, sx.base_sym(2): 0.9}
    r = el.residual_on_section(els, s, point, fields={"q": sx.Const(24)})
    assert r == [pytest.approx(0.0, abs=1e-12)]


def test_residual_toy_hand_value():
    """L = u_t^2/2 on m=2: residual of s = x t is -D_t(u_t) = 0; of s = t^2 is -2."""
    spec = BundleSpec(2, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("u[0,1]^2/2", cat)
    els = el.euler_lagrange(L, spec)
    point = {sx.base_sym(1): 0.3, sx.base_sym(2): 0.8}
    assert el.residual_on_section(els, SectionFn([sx.parse("x[1]*x[2]", cat)]),
                                  point) == [pytest.approx(0.0)]
    assert el.residual_on_section(els, SectionFn([sx.parse("x[2]^2", cat)]),
                                  point) == [pytest.approx(-2.0)]


def test_gateaux_hand_case():
    """L = u_x^2/2, s = x^2: EL = -2, both sides equal -2 * integral of the bump."""
    spec = BundleSpec(1, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("u[1]^2/2", cat)
    s = SectionFn([sx.parse("x[1]^2", cat)])
    psi = SectionFn([sx.Const(1)])
    action = el.action_value(L, spec, s, 65)
    lhs, rhs = el.gateaux_oracle(L, spec, s, psi, 65, el.default_eps(action))
    assert el.relative_gap(lhs, rhs) < 1e-6
    assert lhs == pytest.approx(-2.0 * (1.0 / 2 - 1.0 / 3), rel=1e-6)  # -2 int x(1-x)


def test_action_value_asymmetric_box():
    """Nine nodes integrate cubics exactly on the unit square, the oracle's only region."""
    spec = BundleSpec(2, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("u[0,0]*x[2] + u[1,0]^3", cat)
    s = SectionFn([sx.parse("x[1]*x[2]", cat)])
    # integral of x1*x2^2 + x2^3 over [0,1]^2: 1/6 + 1/4
    assert el.action_value(L, spec, s, 9) == pytest.approx(5 / 12, abs=1e-12)
    # a constant integrand compiles to a scalar, which broadcasts over the weights
    assert el.action_value(sx.Const(3), spec, s, 9) == pytest.approx(3.0)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 17])
def test_gauss_legendre_degree_on_asymmetric_box(n):
    """n nodes per axis of the unit square integrate degree 2n-1 on each axis exactly
    and miss degree 2n."""
    (x1, x2), weights = oracle._grid(2, n)
    d = 2 * n - 1
    # integral of x1^d * x2^d over [0,1]^2
    assert float(np.sum(weights * x1 ** d * x2 ** d)) == pytest.approx(
        1.0 / (d + 1) ** 2, rel=1e-14, abs=0)

    def legendre_n(t):
        prev, cur = np.ones_like(t), t
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1) * t * cur - k * prev) / (k + 1)
        return cur

    # P_n^2 on each axis has degree 2n and integral 1 / (2n + 1); the nodes
    # are the roots of P_n, so the rule gives zero
    squared = (legendre_n(2 * x1 - 1) * legendre_n(2 * x2 - 1)) ** 2
    assert abs(float(np.sum(weights * squared))) < 1e-12 / (2 * n + 1) ** 2


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _integral_01(coeffs):
    return sum(c / (i + 1) for i, c in enumerate(coeffs))


def test_complex_step_exact_on_cubic_lagrangian():
    """L = u_x^3, s = x^2 + x, psi = x (so the variation is phi = x^2 - x^3).

    S(t) = S[s + t phi] is a cubic in t with third derivative 6 int phi_x^3,
    which is not zero, so a central difference of step h is off by h^2/6 times
    it; the complex step is not.
    """
    spec = BundleSpec(1, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("u[1]^3", cat)
    s = SectionFn([sx.parse("x[1]^2 + x[1]", cat)])
    psi = SectionFn([sx.parse("x[1]", cat)])
    ds = [Fraction(1), Fraction(2)]                  # s_x = 1 + 2x
    dphi = [Fraction(0), Fraction(2), Fraction(-3)]  # phi_x = 2x - 3x^2
    first = 3 * _integral_01(_poly_mul(_poly_mul(ds, ds), dphi))
    third = 6 * _integral_01(_poly_mul(_poly_mul(dphi, dphi), dphi))
    action = el.action_value(L, spec, s, 9)
    assert action == pytest.approx(float(_integral_01(_poly_mul(_poly_mul(ds, ds), ds))),
                                   rel=1e-14)
    lhs, rhs = el.gateaux_oracle(L, spec, s, psi, 9, el.default_eps(action))
    assert lhs == pytest.approx(float(first), rel=1e-13, abs=0)
    assert rhs == pytest.approx(float(first), rel=1e-13, abs=0)
    # a central difference with step 1e-4 * (1 + |S|) would miss by about 1e-8
    central_bias = (Fraction(1e-4) * (1 + Fraction(action))) ** 2 * third / 6
    assert abs(central_bias / first) > 1e-9


def test_non_finite_action_is_a_quadrature_error():
    spec = BundleSpec(1, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("1%s*u[1]^2" % ("0" * 308), cat)
    s = SectionFn([sx.parse("2*x[1]", cat)])
    with pytest.raises(QuadratureError, match="non-finite action on the 9-node grid"):
        el.action_value(L, spec, s, 9)


def test_oracle_on_corpus_and_ladder():
    problems = [corpus_problem(name) for name in CORPUS_NAMES]
    problems += [parse_problem(text) for _, text in bench_workloads().LADDER]
    assert len(problems) == 8
    for problem in problems:
        pairs = run_problem(problem, 0, {"oracle"})["oracle"]
        assert len(pairs) == ORACLE_PAIRS
        for entry in pairs:
            assert entry["rel_err"] <= 1e-11, (problem.lagrangian_text, entry)


def _oracle_pairs(problem, seed):
    """The (section, variation) pairs a report's oracle stage draws at this seed."""
    catalog = problem.catalog()
    pairs = list(zip(problem.section_fns(catalog), problem.variation_fns(catalog)))
    rng = _rng(seed, "oracle")
    while len(pairs) < ORACLE_PAIRS:
        pairs.append((random_section(problem.bundle, rng), random_variation(problem.bundle, rng)))
    return pairs


@pytest.mark.parametrize("seed", [0, 5])
def test_oracle_matches_substituted_reference(seed):
    """Both sides on Taylor jets move only by rounding against the reference's
    symbolic jets and substituted EL integrand."""
    problems = [corpus_problem(name) for name in CORPUS_NAMES]
    problems += [parse_problem(text) for _, text in bench_workloads().LADDER]
    checked = 0
    for problem in problems:
        L, bindings = problem.lagrangian(), problem.field_bindings() or None
        for s, psi in _oracle_pairs(problem, seed):
            lhs, rhs = el.gateaux_oracle(L, problem.bundle, s, psi, 9, el.COMPLEX_STEP,
                                         fields=bindings)
            ref_lhs, ref_rhs = substituted_oracle(L, problem.bundle, s, psi, 9, el.COMPLEX_STEP,
                                                  fields=bindings)
            assert abs(lhs - ref_lhs) <= 1e-12 * abs(ref_lhs), (problem.lagrangian_text, lhs, ref_lhs)
            assert abs(rhs - ref_rhs) <= 1e-12 * abs(ref_rhs), (problem.lagrangian_text, rhs, ref_rhs)
            checked += 1
    assert checked == 3 * len(problems)


@pytest.mark.parametrize("pid", ["ladder-213", "ladder-222"])
def test_oracle_substitutes_nothing_without_fields(pid, monkeypatch):
    """With no field to bind, the oracle reaches the section only through compiled jets."""
    calls = []
    real = sx.substitute

    def counting(e, mapping):
        calls.append(len(mapping))
        return real(e, mapping)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("srfield")
                and getattr(module, "substitute", None) is real):
            monkeypatch.setattr(module, "substitute", counting)
    problem = parse_problem(dict(bench_workloads().LADDER)[pid])
    s, psi = _oracle_pairs(problem, 0)[0]
    el.gateaux_oracle(problem.lagrangian(), problem.bundle, s, psi, 9, el.COMPLEX_STEP)
    assert calls == []


@pytest.mark.parametrize("signature", [(1, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_taylor_jets_match_prolong(signature):
    """Every jet up to order 2k read off one Taylor expansion matches the prolonged
    section evaluated exactly, to 1e-13 relative: random polynomial sections, a
    bumped variation and a rational section."""
    spec = BundleSpec(*signature)
    cat = build_catalog(spec)
    rng = random.Random(4)
    bump = el.bump_polynomial(spec)
    sections = [random_section(spec, rng),
                SectionFn([sx.emul(bump, c) for c in random_variation(spec, rng).components]),
                SectionFn([sx.parse("1/(2 + x[1]*x[%d])" % spec.m, cat)] * spec.n)]
    points = [[Fraction(j, 7) + Fraction(i, 11) for i in range(1, spec.m + 1)] for j in (1, 3, 5)]
    x = [np.array([float(p[i]) for p in points]) for i in range(spec.m)]
    for s in sections:
        prolonged = prolong(s, 2 * spec.k, spec)
        jets = sorted(prolonged)
        at = oracle._taylor_at(s, spec, 2 * spec.k)
        # the points as arrays, as the oracle passes them, and the first one as floats
        on_arrays = oracle._jets(at(x), jets)
        on_floats = oracle._jets(at([float(c) for c in points[0]]), jets)
        for u, values, first in zip(jets, on_arrays, on_floats):
            for p, value in zip(points + points[:1],
                                list(np.broadcast_to(values, (len(points),))) + [first]):
                at_p = {sx.base_sym(i): sx.Const(c) for i, c in enumerate(p, start=1)}
                exact = float(sx.normalize(sx.substitute(prolonged[u], at_p)).q)
                assert abs(value - exact) <= 1e-13 * abs(exact), (u.render(), value, exact)


def test_taylor_zero_base_is_a_domain_error():
    """A Taylor base with a zero constant term under a negative power raises as a
    float zero base does, with the same message."""
    spec = BundleSpec(1, 1, 2)
    cat = build_catalog(spec)
    e = sx.parse("x[1]^2 + 1/(x[1] - 1/2)", cat)
    at = oracle._taylor_at(SectionFn([e]), spec, 4)
    (fine,) = at([np.array([0.25, 0.75])])
    assert fine.rows.shape == (5, 2)
    with pytest.raises(EvalDomainError) as on_floats:
        sx.evaluate(e, {sx.base_sym(1): np.array([0.25, 0.5])})
    with pytest.raises(EvalDomainError) as on_taylor:
        at([np.array([0.25, 0.5])])
    assert str(on_taylor.value) == str(on_floats.value)
    assert str(on_taylor.value).startswith("division by zero in ")


def test_only_moved_names_are_read_from_the_oracle():
    """eleuler's module __getattr__ hands on the names that moved to the oracle module
    (test_reexports_resolve checks each), and no other: a patch of a name the oracle
    only imports, such as compile_expr, fails loudly."""
    assert el.__getattr__("gateaux_oracle") is oracle.gateaux_oracle
    with pytest.raises(AttributeError, match="'srfield.eleuler' has no attribute 'compile_expr'"):
        el.__getattr__("compile_expr")


@pytest.fixture
def compiled(monkeypatch):
    """The expression lists that oracle.compile_expr is called on during the test."""
    calls, real_compile = [], oracle.compile_expr

    def counting_compile(exprs, syms):
        calls.append(list(exprs))
        return real_compile(exprs, syms)

    monkeypatch.setattr(oracle, "compile_expr", counting_compile)
    return calls


@pytest.mark.parametrize("signature", [(1, 1, 3), (2, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_drawn_pairs_enter_by_coefficients(signature, compiled):
    """Drawn sections and variations take the coefficient route, with nothing
    compiled, and give every jet up to order 2k of the exact prolongation to 1e-13
    relative, at x given as arrays and as floats; a problem file's section is compiled."""
    spec = BundleSpec(*signature)
    rng = random.Random(6)
    points = [[Fraction(j, 7) + Fraction(i, 11) for i in range(1, spec.m + 1)] for j in (1, 3, 5)]
    x = [np.array([float(p[i]) for p in points]) for i in range(spec.m)]
    for s in (random_section(spec, rng), random_variation(spec, rng)):
        prolonged = prolong(s, 2 * spec.k, spec)
        jets = sorted(prolonged)
        at = oracle._taylor_at(s, spec, 2 * spec.k)
        on_arrays = oracle._jets(at(x), jets)
        on_floats = oracle._jets(at([float(c) for c in points[0]]), jets)
        for u, values, first in zip(jets, on_arrays, on_floats):
            for p, value in zip(points + points[:1],
                                list(np.broadcast_to(values, (len(points),))) + [first]):
                at_p = {sx.base_sym(i): sx.Const(c) for i, c in enumerate(p, start=1)}
                exact = float(sx.normalize(sx.substitute(prolonged[u], at_p)).q)
                assert abs(value - exact) <= 1e-13 * abs(exact), (u.render(), value, exact)
    assert compiled == []
    lines = ["m=%d" % spec.m, "n=%d" % spec.n, "k=%d" % spec.k, "lagrangian = u[%s]^2"
             % ",".join(["0"] * spec.m)]
    lines += ["section@%d = x[1] + x[%d]^2" % (a, spec.m) for a in range(1, spec.n + 1)]
    lines += ["variation@%d = 1" % a for a in range(1, spec.n + 1)]
    (parsed,) = parse_problem("\n".join(lines) + "\n").section_fns()
    oracle._taylor_at(parsed, spec, 2 * spec.k)
    assert compiled == [list(parsed.components)]


def test_out_of_range_coefficient_is_a_domain_error():
    """A coefficient beyond the float range raises the same EvalDomainError on the
    coefficient route, taken by the parsed tree's canonical pair, as on the compiled
    one, taken by the tree."""
    spec = BundleSpec(1, 1, 1)
    written = sx.parse("1%s*x[1]" % ("0" * 400), build_catalog(spec))
    messages = []
    for e in (written, sx.expand(written)):
        with pytest.raises(EvalDomainError) as exc:
            oracle._taylor_at(SectionFn([e]), spec, 2)
        messages.append(str(exc.value))
    assert messages == ["a constant of 401 digits is too large for floating point"] * 2


def test_run_problem_compiles_once_per_problem(compiled):
    """A full report on ladder-222 compiles L, the EL components and the bump, and
    nothing for its drawn oracle pairs."""
    problem = parse_problem(dict(bench_workloads().LADDER)["ladder-222"])
    rep = run_problem(problem, 0)
    assert len(rep["oracle"]) == ORACLE_PAIRS and all("rel_err" in e for e in rep["oracle"])
    assert len(compiled) == 3
    assert [el.bump_polynomial(problem.bundle)] in compiled


def test_drawn_sections_stay_pairs_through_a_report(monkeypatch):
    """A full report on ladder-222 builds no tree for its drawn sections and
    variations, and its texts for them are those of their pairs' trees, normalized."""
    drawn, trees = [], []
    real_draw, real_tree_of = report._random_polynomial, jetmodel.tree_of

    def drawing(*args):
        drawn.append(real_draw(*args))
        return drawn[-1]

    monkeypatch.setattr(report, "_random_polynomial", drawing)
    monkeypatch.setattr(jetmodel, "tree_of", lambda side: trees.append(side) or real_tree_of(side))
    rep = run_problem(parse_problem(dict(bench_workloads().LADDER)["ladder-222"]), 0)
    assert len(drawn) == 2 * ORACLE_PAIRS and all("rel_err" in e for e in rep["oracle"])
    assert trees == []
    assert [text for e in rep["oracle"] for text in (e["section"], e["variation"])] == [
        [sx.render(sx.normalize(sx.tree_of(c))) for c in s.sides] for s in drawn]


def test_run_problem_derives_and_compiles_once(monkeypatch):
    """One report derives EL once for its el and oracle stages, and compiles L
    and the EL components once for all of its oracle pairs."""
    derived, compiled = [], []
    real_el, real_compile = el.euler_lagrange, oracle.compile_expr

    def counting_el(L, spec, *table):
        derived.append(L)
        return real_el(L, spec, *table)

    def counting_compile(exprs, syms):
        compiled.append(list(exprs))
        return real_compile(exprs, syms)

    monkeypatch.setattr(el, "euler_lagrange", counting_el)
    monkeypatch.setattr(oracle, "compile_expr", counting_compile)
    problem = parse_problem(dict(bench_workloads().LADDER)["ladder-222"])
    rep = run_problem(problem, 0)
    L = problem.lagrangian()
    components = list(real_el(L, problem.bundle).components)
    assert len(derived) == 1 and len(rep["oracle"]) == ORACLE_PAIRS
    assert sum(exprs == [L] for exprs in compiled) == 1
    assert sum(exprs == components for exprs in compiled) == 1


def test_gateaux_plate_random(plate_L):
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec, fields={"q": (1, 2)})
    s = SectionFn([sx.parse("x[1]^3 + x[1]*x[2]^2", cat)])
    psi = SectionFn([sx.parse("1 + x[1]*x[2]", cat)])
    fields = {"q": sx.Const(1)}
    action = el.action_value(plate_L, spec, s, 33, fields=fields)
    lhs, rhs = el.gateaux_oracle(plate_L, spec, s, psi, 33, el.default_eps(action),
                                 fields=fields)
    assert el.relative_gap(lhs, rhs) < 1e-5


def test_gateaux_zero_variation():
    spec = BundleSpec(1, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("u[1]^2/2", cat)
    s = SectionFn([sx.parse("x[1]^2", cat)])
    lhs, rhs = el.gateaux_oracle(L, spec, s, SectionFn([sx.Const(0)]), 33, 1e-4)
    assert lhs == 0.0 and rhs == 0.0


def test_bump_vanishes_to_order_k_minus_1():
    spec = BundleSpec(2, 1, 2)
    bump = el.bump_polynomial(spec)
    # all first derivatives vanish on the boundary for k = 2
    for i in (1, 2):
        d = sx.partial(bump, sx.base_sym(i))
        for edge_val in (0.0, 1.0):
            pt = {sx.base_sym(1): edge_val, sx.base_sym(2): 0.37}
            assert sx.evaluate(d, pt) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("spec,f_order", [(BundleSpec(1, 1, 1), 0),
                                          (BundleSpec(2, 1, 1), 0),
                                          (BundleSpec(2, 1, 2), 1)])
def test_null_lagrangian(spec, f_order):
    """Euler-Lagrange of a total divergence vanishes identically."""
    rng = random.Random(spec.m * 7 + spec.k)
    cat = build_catalog(spec)
    syms = [s for s in cat.jet_syms if sum(s.index) <= f_order]
    syms += list(cat.base_syms)
    for _ in range(8):
        div = sx.eadd(*[
            el.total_derivative(random_poly(rng, syms), i, f_order + 1)
            for i in range(1, spec.m + 1)
        ])
        out = el.euler_lagrange(div, spec)
        assert all(sx.is_zero(c) for c in out.components)


# (q, [p_1, ..., p_m]) per signature: f_i = p_i / q, with p_i of jet order k-1
RATIONAL_DIVERGENCES = {
    (2, 1, 3): ("u[0,0] + 2", ["3/2*u[2,0]*u[0,0] - 2*u[1,1]*x[2]",
                               "1/2*u[0,2]*u[0,0] + 3*u[2,0]*x[1]"]),
    (3, 1, 2): ("u[0,0,0] + 3", ["u[1,0,0]*u[0,0,0] - 1/2*u[0,1,0]*x[3]",
                                 "3*u[0,0,1]*u[0,0,0] + u[1,0,0]*x[1]",
                                 "-2*u[0,1,0]*u[0,0,0] + 1/2*u[0,0,1]*x[2]"]),
}


@pytest.mark.parametrize("signature", sorted(RATIONAL_DIVERGENCES))
def test_null_lagrangian_rational_budget(signature):
    """EL of sum_i D_i(p_i / q), each term over its own q^2, is zero within 1 s.

    normalize brings the terms to a common denominator; multiplying the q^2
    factors together instead of taking their lcm made (2,1,3) take about 5 s
    on a 2-core VM.
    """
    spec = BundleSpec(*signature)
    cat = build_catalog(spec)
    q_text, p_texts = RATIONAL_DIVERGENCES[signature]
    q = sx.parse(q_text, cat)
    terms = []
    for i, p_text in enumerate(p_texts, 1):
        p = sx.parse(p_text, cat)
        dp, dq = el.total_derivative(p, i, spec.k), el.total_derivative(q, i, spec.k)
        terms.append(sx.ediv(sx.esub(sx.emul(q, dp), sx.emul(p, dq)), sx.epow(q, 2)))
    start = time.perf_counter()
    out = el.euler_lagrange(sx.eadd(*terms), spec)
    elapsed = time.perf_counter() - start
    assert [sx.render(c) for c in out.components] == ["0"]
    assert elapsed < 1.0, "rational divergence EL took %.2fs" % elapsed


def test_proof_replay_m1_k2():
    """Momenta solved from the grouped relations chain back to the EL expression.

    Mechanized replay: on an integral section the order-1 momentum is the top
    partial, the order-0 momentum is the middle relation with its B replaced by
    a total derivative, and the trace relation then says dL/du = D(p0), which
    is exactly the vanishing of the Euler-Lagrange expression.
    """
    rng = random.Random(17)
    spec = BundleSpec(1, 1, 2)
    cat = build_catalog(spec)
    syms = list(cat.jet_syms) + list(cat.base_syms)
    from srfield.assembler import dynamical_equations
    from srfield.equations import TAG_B_MIDDLE, TAG_B_TRACE, TAG_W1

    for _ in range(5):
        L = random_poly(rng, syms)
        eqs = dynamical_equations(cat, L)
        w1 = eqs.by_tag(TAG_W1)[0]
        p1_val = w1.rhs  # p[1;1] as a jet expression
        bm = eqs.by_tag(TAG_B_MIDDLE)[0]
        # on an integral section B[1;1;1;1] = D_x(p[1;1])
        b_top = el.total_derivative(p1_val, 1, sx.jet_order(p1_val) + 1)
        p0_val = sx.substitute(bm.rhs, {sx.aux_b(MultiIndex((1,)), 1, 1, 1): b_top})
        # trace relation: dL/du = D_x(p[0;1]); the EL expression is their difference
        chain = sx.esub(eqs.by_tag(TAG_B_TRACE)[0].rhs,
                        el.total_derivative(p0_val, 1, sx.jet_order(p0_val) + 1))
        got = el.euler_lagrange(L, spec)[0]
        assert sx.equivalent(chain, got)
