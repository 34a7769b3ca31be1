"""Expression parsing, printing, differentiation, normalization, evaluation."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfield import symexpr as sx
from srfield.assembler import hamiltonian_h0
from srfield.errors import EngineError, EvalDomainError, NormalizationError, ParseError, UsageError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import MultiIndex, enumerate_up_to
from srfield.report import random_section

from conftest import CH_L_TEXT, PLATE_L_TEXT, PLATE_SPEC, bench_problems, jet, random_poly, random_rational
from routes_reference import eager_substitute_fields
from test_cli_fuzz import FUZZ, expression, leaf


def test_parse_plate(plate_catalog, plate_L):
    # matches the hand-expanded quadratic form with the load coupling
    expanded = sx.eadd(
        sx.emul(sx.Const(Fraction(1, 2)), sx.epow(sx.Atom(jet(1, 2, 0)), 2)),
        sx.epow(sx.Atom(jet(1, 1, 1)), 2),
        sx.emul(sx.Const(Fraction(1, 2)), sx.epow(sx.Atom(jet(1, 0, 2)), 2)),
        sx.eneg(sx.emul(plate_catalog.field_atom("q"), sx.Atom(jet(1, 0, 0)))),
    )
    assert sx.equivalent(plate_L, expanded)


def test_parse_ch(ch_catalog, ch_L):
    ux = sx.Atom(jet(1, 1, 0))
    ut = sx.Atom(jet(1, 0, 1))
    uxt = sx.Atom(jet(1, 1, 1))
    hand = sx.eadd(sx.ediv(sx.emul(ux, ut, ut), sx.Const(2)),
                   sx.ediv(sx.emul(uxt, uxt), sx.emul(sx.Const(2), ux)))
    assert sx.equivalent(ch_L, hand)


def test_parse_single_coordinate():
    cat = build_catalog(BundleSpec(1, 1, 1))
    e = sx.parse("u[0]", cat)
    assert isinstance(e, sx.Atom) and e.sym == jet(1, 0)


def test_parse_errors(plate_catalog):
    with pytest.raises(ParseError):
        sx.parse("u[3,0]", plate_catalog)  # jet order above k
    with pytest.raises(ParseError):
        sx.parse("w*u[0,0]", plate_catalog)  # undeclared identifier
    with pytest.raises(ParseError):
        sx.parse("u[0,0] +", plate_catalog)
    with pytest.raises(ParseError):
        sx.parse("x[3]", plate_catalog)
    with pytest.raises(ParseError):
        sx.parse("u[0]", plate_catalog)  # wrong multi-index arity


def test_parse_coordinate_names():
    cat = build_catalog(BundleSpec(2, 2, 2), fields={"q": (1, 2)})
    for name in ("x[1]", "x[2]", "u[0,0]", "u[2,0]", "u[1,1]@2", "p[1,0;2]", "p[0,0;1]@2",
                 "p", "q"):
        sym = sx.parse_coordinate_name(name, cat)
        assert sym.render() == name
        assert cat.contains(sym) or sym.kind == sx.FIELD
    assert sx.parse_coordinate_name("u[0,1]@1", cat) == jet(1, 0, 1)
    for bad in ("x[0]", "x[3]", "u[3,0]", "u[1,0,0]", "u[0,0]@3", "u", "1", "(x[1])",
                "w", "p[0,2;1]", "p[0;1]", "x[1] x[2]", "u[0,0]^2", "p p"):
        with pytest.raises(ParseError):
            sx.parse_coordinate_name(bad, cat)


def test_parse_nesting_bound(plate_catalog):
    # one level past the bound is a parse error, not a RecursionError
    limit = sx._MAX_NESTING
    inner = "u[2,0]*u[2,0]"
    e = sx.parse("(" * limit + inner + ")" * limit, plate_catalog)
    assert sx.render(e) == "u[2,0]*u[2,0]"
    with pytest.raises(ParseError, match="nested deeper than %d" % limit):
        sx.parse("(" * (limit + 1) + inner + ")" * (limit + 1), plate_catalog)


def test_parse_exponent_bound(plate_catalog):
    limit = sx._MAX_EXPONENT
    assert sx.parse("(u[2,0]+1)^%d" % limit, plate_catalog).exp == limit
    assert sx.parse("((u[2,0]+1)^-2)^%d" % (limit // 2), plate_catalog).exp == -limit
    for text in ("(u[2,0]+1)^%d" % (limit + 1), "((u[2,0]+1)^2)^%d" % (limit // 2 + 1),
                 "3^%d" % (limit + 1)):
        with pytest.raises(UsageError, match="exceeds the budget of %d" % limit):
            sx.parse(text, plate_catalog)


def test_parse_digit_budget(plate_catalog):
    limit = sx._MAX_DIGITS
    assert sx.parse("9" * limit, plate_catalog) == sx.Const(10 ** limit - 1)
    # a sum of fractions folds to the lcm of their denominators: 600 digits, then 601
    assert sx.parse("1/(10^30)^19 + 1/(10^30-1)", plate_catalog).q.denominator == (
        10 ** 570 * (10 ** 30 - 1))
    with pytest.raises(ParseError, match="more than %d digits" % limit):
        sx.parse("9" * (limit + 1), plate_catalog)
    for text in ("(10^30)^20", "(10^30)^19*10^30", "1/(10^30)^19/10^30",
                 "1/(10^30)^19 + 1/(10^31-1)"):
        with pytest.raises(UsageError, match="constant with more than %d digits" % limit):
            sx.parse(text, plate_catalog)


def test_partial_plate(plate_catalog, plate_L):
    d20 = sx.normalize(sx.partial(plate_L, jet(1, 2, 0)))
    assert sx.render(d20) == "u[2,0]"
    d00 = sx.normalize(sx.partial(plate_L, jet(1, 0, 0)))
    assert sx.render(d00) == "-q"


def test_partial_ch(ch_L):
    d11 = sx.normalize(sx.partial(ch_L, jet(1, 1, 1)))
    assert sx.render(d11) == "u[1,1]/u[1,0]"


def test_partial_field_chain(plate_catalog):
    q = plate_catalog.field_atom("q")
    dq = sx.partial(q, sx.base_sym(1))
    assert sx.render(dq) == "q[1,0]"
    assert sx.is_zero(sx.partial(q, jet(1, 0, 0)))


def test_partial_field_respects_dependence():
    cat = build_catalog(BundleSpec(2, 1, 1), fields={"f": (1,)})
    f = cat.field_atom("f")
    assert sx.render(sx.partial(f, sx.base_sym(1))) == "f[1,0]"
    assert sx.is_zero(sx.partial(f, sx.base_sym(2)))


def test_gradient_order_and_syntactic_zeros():
    u0, u1, x1 = jet(1, 0, 0), jet(1, 1, 0), sx.base_sym(1)
    e = sx.eadd(sx.emul(sx.Atom(u1), sx.Atom(u0)), sx.Atom(x1),
                sx.Atom(u1), sx.eneg(sx.Atom(u1)))
    grad = sx.gradient(e, [u1, jet(1, 0, 1), x1, u0])
    assert list(grad) == [u1, x1, u0]
    assert sx.render(grad[u0]) == "u[1,0]"
    # u[1,0] - u[1,0] differentiates to a syntactic zero, which is dropped
    assert list(sx.gradient(sx.esub(sx.Atom(u1), sx.Atom(u1)), [u1])) == []


def test_gradient_reaches_fields_through_base_directions():
    cat = build_catalog(BundleSpec(2, 1, 1), fields={"f": (1,)})
    e = sx.emul(cat.field_atom("f"), sx.Atom(jet(1, 0, 0)))
    grad = sx.gradient(e, cat.coords)
    # x[1] reaches f although e holds no x[1]; f does not depend on x[2]
    assert list(grad) == [sx.base_sym(1), jet(1, 0, 0)]
    assert sx.render(grad[sx.base_sym(1)]) == "f[1,0]*u[0,0]"


def _ref_partial(e, s):
    """The per-symbol chain rule, one walk of e per symbol: the reference for gradient."""
    if isinstance(e, sx.Const):
        return sx.ZERO
    if isinstance(e, sx.Atom):
        a = e.sym
        if a == s:
            return sx.ONE
        if a.kind == sx.FIELD and s.kind == sx.BASE and s.i in a.deps:
            return sx.Atom(sx.field_sym(a.name, a.index.bump(s.i), a.deps))
        return sx.ZERO
    if isinstance(e, sx.Add):
        return sx.eadd(*[_ref_partial(t, s) for t in e.terms])
    if isinstance(e, sx.Mul):
        parts = []
        for idx, f in enumerate(e.factors):
            df = _ref_partial(f, s)
            if not sx.is_syntactic_zero(df):
                parts.append(sx.emul(*(list(e.factors[:idx]) + [df] + list(e.factors[idx + 1:]))))
        return sx.eadd(*parts)
    if isinstance(e, sx.Pow):
        db = _ref_partial(e.base, s)
        if sx.is_syntactic_zero(db):
            return sx.ZERO
        return sx.emul(sx.Const(e.exp), sx.epow(e.base, e.exp - 1), db)
    raise TypeError(e)


def _ref_gradient(e, syms):
    out = {}
    for s in syms:
        d = _ref_partial(e, s)
        if not sx.is_syntactic_zero(d):
            out[s] = d
    return out


def _gradient_cases():
    """(id, expression, directions): every benchmark Lagrangian and its H0, plate
    with its field bound, and a negative power over a field."""
    cases = []
    for pid, cat, L in bench_problems():
        fields = sorted(s for s in sx.free_syms(L) if s.kind == sx.FIELD)
        cases.append((pid, L, list(cat.coords) + fields))
        cases.append((pid + ":H0", hamiltonian_h0(cat, L), list(cat.coords)))
    cat = build_catalog(PLATE_SPEC, fields={"q": (1, 2)})
    bound = sx.substitute_fields(sx.parse(PLATE_L_TEXT, cat), {"q": sx.parse("x[1]*x[2] + 1", cat)})
    cases.append(("plate-bound-q", bound, list(cat.coords)))
    q = cat.field_atom("q")
    neg = sx.parse("u[1,1]*(u[2,0] + x[1]*q)^-3 - q/u[0,2] + (u[2,0]^2 + q)^-2", cat)
    cases.append(("negative-pow", neg, list(cat.coords) + [q.sym]))
    return cases


def test_gradient_and_partial_match_the_per_symbol_reference():
    cases = _gradient_cases()
    assert len(cases) == 2 * 82 + 2
    for cid, e, syms in cases:
        grad = sx.gradient(e, syms)
        ref = _ref_gradient(e, syms)
        # structurally equal, in the same order, not merely equivalent
        assert list(grad) == list(ref), cid
        assert all(grad[s] == ref[s] for s in ref), cid
        for s in syms:
            assert sx.partial(e, s) == _ref_partial(e, s), (cid, s)


def _builder_calls(monkeypatch, n):
    """eadd and emul calls made by the gradient of a pairing of n products along
    all 2n of its symbols."""
    ps = [sx.Atom(sx.mom_sym(1, MultiIndex((0, 0)), i)) for i in range(1, n + 1)]
    us = [sx.Atom(jet(1, i, 0)) for i in range(1, n + 1)]
    pairing = sx.eadd(*[sx.emul(p, u) for p, u in zip(ps, us)])
    syms = [a.sym for a in ps + us]
    calls = [0]

    def counted(f):
        def wrapper(*xs):
            calls[0] += 1
            return f(*xs)
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(sx, "eadd", counted(sx.eadd))
        mp.setattr(sx, "emul", counted(sx.emul))
        grad = sx.gradient(pairing, syms)
    assert len(grad) == 2 * n
    return calls[0]


def test_gradient_is_linear_in_the_pairing_size(monkeypatch):
    # a walk per symbol would make the tree-building calls grow 4x per doubling
    small, large = _builder_calls(monkeypatch, 40), _builder_calls(monkeypatch, 80)
    assert large <= 2.1 * small


def test_normalize_cancellation():
    ux = sx.Atom(jet(1, 1, 0))
    assert sx.is_zero(sx.esub(sx.emul(ux, ux), sx.epow(ux, 2)))


def test_normalize_gcd_reduction():
    ux = sx.Atom(jet(1, 1, 0))
    e = sx.ediv(sx.esub(sx.epow(ux, 2), sx.Const(1)), sx.esub(ux, sx.Const(1)))
    assert sx.render(sx.normalize(e)) == "u[1,0] + 1"


def test_normalize_idempotent(plate_L):
    n1 = sx.normalize(plate_L)
    n2 = sx.normalize(n1)
    assert n1 is n2 or n1 == n2


@pytest.mark.parametrize("x", [sx.Atom(jet(1, 1, 0)), sx.Atom(sx.aux_b(MultiIndex((0, 1)), 2, 1, 2)),
                               sx.Const(0), sx.Const(-3), sx.Const(Fraction(-7, 4))],
                         ids=["jet", "B", "zero", "int", "fraction"])
def test_normalize_returns_atoms_and_constants_unchanged(x):
    # already canonical: the object itself comes back, and it renders as
    # the quotient round trip does
    assert sx.normalize(x) is x
    assert sx.render(x) == sx.render(sx.canonical_quotient(*sx._rat_reduce(*sx._to_rat(x))))


def test_normalize_multivariate_gcd():
    x, y = sx.Atom(sx.base_sym(1)), sx.Atom(sx.base_sym(2))
    common = sx.eadd(x, y)
    num = sx.emul(common, sx.eadd(x, sx.Const(1)))
    den = sx.emul(common, sx.eadd(x, sx.Const(-1)))
    nf = sx.normalize(sx.ediv(num, den))
    assert sx.render(nf) == "(x[1] + 1)/(x[1] - 1)"


def test_normalization_error_on_zero_denominator():
    ux = sx.Atom(jet(1, 1, 0))
    zero = sx.esub(ux, ux)
    with pytest.raises(sx.NormalizationError):
        sx.normalize(sx.ediv(sx.Const(1), zero))


def test_evaluate_plate(plate_catalog, plate_L):
    point = {s: 0.0 for s in plate_catalog.coords}
    point[jet(1, 2, 0)] = 1.0
    point[sx.field_sym("q", MultiIndex((0, 0)), (1, 2))] = 0.0
    assert sx.evaluate(plate_L, point) == pytest.approx(0.5)


def test_evaluate_ch_domain_error(ch_L, ch_catalog):
    point = {s: 0.0 for s in ch_catalog.coords}
    with pytest.raises(EvalDomainError):
        sx.evaluate(ch_L, point)


def test_evaluate_constant():
    assert sx.evaluate(sx.Const(Fraction(3, 4)), {}) == 0.75


def test_evaluate_missing_assignment():
    with pytest.raises(EvalDomainError):
        sx.evaluate(sx.Atom(jet(1, 1, 0)), {})


def test_evaluate_with_field_binding(plate_catalog, plate_L):
    point = {s: 0.0 for s in plate_catalog.coords}
    point[jet(1, 0, 0)] = 2.0
    point[sx.base_sym(1)] = 0.5
    point[sx.base_sym(2)] = 0.5
    cat = plate_catalog
    val = sx.evaluate(plate_L, point, fields={"q": sx.parse("x[1] + x[2]", cat)})
    assert val == pytest.approx(-2.0)  # -q*u = -(1.0)*2.0


@pytest.mark.parametrize("signature", [(1, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_substitute_fields_matches_eager_reference(signature):
    """Bound field derivatives up to order 2k are the trees of the private recursion."""
    spec = BundleSpec(*signature)
    deps = tuple(range(1, spec.m + 1))
    value = random_section(spec, random.Random(4))[0]
    e = sx.eadd(*[sx.emul(sx.Atom(sx.field_sym("q", J, deps)), sx.Atom(sx.jet_sym(1, J)))
                  for J in enumerate_up_to(spec.m, 2 * spec.k)])
    assert sx.substitute_fields(e, {"q": value}) == eager_substitute_fields(e, {"q": value})


def test_base_derivatives_memoize_one_path():
    cat = build_catalog(BundleSpec(2, 1, 2))
    at = sx.base_derivatives(sx.parse("x[1]^3*x[2]^2", cat), 2)
    J = MultiIndex((2, 1))
    assert at(J) is at(J)
    assert at(J) == sx.partial(at(MultiIndex((1, 1))), sx.base_sym(1))
    assert sx.render(sx.normalize(at(J))) == "12*x[1]*x[2]"


def test_equivalent_basics():
    ux, uy = sx.Atom(jet(1, 1, 0)), sx.Atom(jet(1, 0, 1))
    assert sx.equivalent(sx.eadd(ux, uy), sx.eadd(uy, ux))
    assert not sx.equivalent(ux, uy)


def test_equivalent_plate_el_text(plate_catalog):
    engine = sx.parse("u[2,0]", plate_catalog)
    assert sx.equivalent(engine, sx.parse("u[2,0]", plate_catalog))


def test_equivalence_fallback_on_normalization_failure():
    # an identically zero denominator has no canonical form; there is no
    # numeric fallback, so the symbolic route reports it
    x = sx.Atom(sx.base_sym(1))
    broken = sx.Pow(sx.esub(x, x), -1)
    with pytest.raises(NormalizationError):
        sx.equivalent(broken, broken)


def test_render_parse_roundtrip(plate_catalog, plate_L, ch_catalog, ch_L):
    for cat, e in [(plate_catalog, plate_L), (ch_catalog, ch_L)]:
        text = sx.render(sx.normalize(e))
        assert sx.equivalent(sx.parse(text, cat), e)


def test_render_parse_roundtrip_el_outputs():
    """Derived equations re-parse under the catalog of order 2k."""
    from srfield.eleuler import euler_lagrange

    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec, fields={"q": (1, 2)})
    L = sx.parse(PLATE_L_TEXT, cat)
    el = euler_lagrange(L, spec)[0]
    extended = build_catalog(BundleSpec(spec.m, spec.n, 2 * spec.k), fields={"q": (1, 2)})
    assert sx.equivalent(sx.parse(sx.render(el), extended), el)

    ch_cat = build_catalog(spec)
    ch = sx.parse(CH_L_TEXT, ch_cat)
    el_ch = euler_lagrange(ch, spec)[0]
    extended2 = build_catalog(BundleSpec(spec.m, spec.n, 2 * spec.k))
    assert sx.equivalent(sx.parse(sx.render(el_ch), extended2), el_ch)


def test_compile_matches_evaluate(ch_L, ch_catalog):
    # exact reference: substitute rational constants and normalize to a Fraction
    rng = random.Random(4)
    syms = sorted(sx.free_syms(ch_L))
    fn = sx.compile_expr([sx.normalize(ch_L)], syms)
    for _ in range(25):
        vals = [Fraction(rng.randint(100, 200), 100) for _ in syms]
        exact = sx.normalize(sx.substitute(ch_L, {s: sx.Const(q) for s, q in zip(syms, vals)}))
        assert isinstance(exact, sx.Const)
        assert fn([float(q) for q in vals])[0] == pytest.approx(float(exact.q), rel=1e-12)
        assert sx.evaluate(ch_L, dict(zip(syms, vals))) == pytest.approx(float(exact.q), rel=1e-12)


def test_compile_deep_tree():
    # 250 alternating Add/Mul levels: nested text alone would exceed the
    # parser's parenthesis limit, so deep subtrees become local statements
    x = sx.Atom(sx.base_sym(1))
    e = sx.Atom(jet(1, 1))
    for level in range(250):
        e = sx.emul(sx.Const(2), e) if level % 2 else sx.eadd(e, x)
    # each Add/Mul pair maps a to 2(a + 1), so 125 pairs from a = 0 give 2^126 - 2
    assert sx.compile_expr([e], [sx.base_sym(1), jet(1, 1)])([1.0, 0.0]) == (
        pytest.approx(2 ** 126 - 2),)
    depth, node = 0, e
    while isinstance(node, (sx.Add, sx.Mul)):
        depth += 1
        node = node.terms[0] if isinstance(node, sx.Add) else node.factors[1]
    assert depth == 250


def test_compile_constants_at_the_float_range():
    u = sx.Atom(jet(1, 1))
    big = 2 ** 1024 - 2 ** 971  # the largest finite double
    for q in (big, -big, Fraction(3 * 10 ** 300, 7), 2 ** 80 + 1):
        assert sx.compile_expr([sx.emul(sx.Const(q), u)], [jet(1, 1)])([1.0]) == (float(q),)
    for q in (2 ** 1024, -10 ** 400, Fraction(10 ** 500, 7)):
        with pytest.raises(EvalDomainError, match="too large for floating point"):
            sx.compile_expr([sx.emul(sx.Const(q), u)], [jet(1, 1)])


def test_evaluate_arrays_and_pole(ch_L):
    ux = jet(1, 1, 0)
    others = {s: 1.5 for s in sx.free_syms(ch_L) if s != ux}
    grid = np.array([[1.0, 2.0], [1.25, 1.75]])
    vals = sx.evaluate(ch_L, {**others, ux: grid})
    assert vals.shape == grid.shape
    assert vals[0, 1] == sx.evaluate(ch_L, {**others, ux: 2.0})
    with pytest.raises(EvalDomainError):
        sx.evaluate(ch_L, {**others, ux: np.array([1.0, 0.0, 2.0])})


# --- invariants -----------------------------------------------------------

_SYMS = [jet(1, 0, 0), jet(1, 1, 0), jet(1, 0, 1), sx.base_sym(1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(_SYMS), st.sampled_from(_SYMS))
def test_partial_commutes(seed, s1, s2):
    rng = random.Random(seed)
    e = random_poly(rng, _SYMS)
    ab = sx.partial(sx.partial(e, s1), s2)
    ba = sx.partial(sx.partial(e, s2), s1)
    assert sx.equivalent(ab, ba)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(_SYMS))
def test_leibniz(seed, s):
    rng = random.Random(seed)
    a = random_poly(rng, _SYMS)
    b = random_poly(rng, _SYMS)
    lhs = sx.partial(sx.emul(a, b), s)
    rhs = sx.eadd(sx.emul(sx.partial(a, s), b), sx.emul(a, sx.partial(b, s)))
    assert sx.equivalent(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_evaluate_commutes_with_normalize(seed):
    rng = random.Random(seed)
    e = random_rational(rng, _SYMS)
    nf = sx.normalize(e)
    point = {s: rng.uniform(1.0, 2.0) for s in _SYMS}
    v1 = sx.evaluate(e, point)
    v2 = sx.evaluate(nf, point)
    assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_render_roundtrip_random(seed):
    rng = random.Random(seed)
    cat = build_catalog(BundleSpec(2, 1, 1))
    e = random_rational(rng, _SYMS)
    text = sx.render(sx.normalize(e))
    assert sx.equivalent(sx.parse(text, cat), e)


# --- rendering a canonical pair without its tree ---------------------------

_PAIR_CATALOG = build_catalog(BundleSpec(2, 1, 2), fields={"q": (1,)})


def _pair_text(num, den):
    """The pair's text from render_side and from the tree, or the error each raises."""
    out = []
    for route in (lambda: sx.render_side((num, den)),
                  lambda: sx.render(sx.canonical_quotient(num, den))):
        try:
            out.append(route())
        except UsageError as exc:
            out.append("UsageError: %s" % exc)
    return out


@pytest.mark.parametrize("text,want", [
    ("0", "0"),
    ("1/(x[1] + 1)", "1/(x[1] + 1)"),
    ("-1/(x[1] + 1)", "-1/(x[1] + 1)"),
    ("3/4/(x[1] + 1)", "3/4/(x[1] + 1)"),
    ("-3/4/(x[1] + 1)", "-3/4/(x[1] + 1)"),
    ("1/(x[1]*x[2])", "1/(x[1]*x[2])"),
    ("-1/x[1]", "-1/x[1]"),
    ("3/4/(x[1]*x[2])", "3/4/(x[1]*x[2])"),
    ("-3/4/x[2]", "-3/4/x[2]"),
    ("x[2]/u[1,0]^2", "x[2]/u[1,0]^2"),
    ("(x[2] + 1)/(u[1,0]^3*x[1])", "(x[2] + 1)/(x[1]*u[1,0]^3)"),
    ("x[1]^2/(x[2] + 1)", "x[1]^2/(x[2] + 1)"),
    ("q/(x[2] + 1)", "q/(x[2] + 1)"),
    ("x[1]*q/(x[2] + 1)", "(x[1]*q)/(x[2] + 1)"),
    ("-x[1]/(x[2] + 1)", "(-x[1])/(x[2] + 1)"),
    ("-2*x[1]^2/(x[2] + 1)", "(-2*x[1]^2)/(x[2] + 1)"),
    ("3*x[1]*u[1,0]", "3*x[1]*u[1,0]"),
    ("-u[2,0]", "-u[2,0]"),
    ("(3/4*x[1] - 1/2)/(x[2] + 1/3)", "(3/4*x[1] - 1/2)/(x[2] + 1/3)"),
    ("-5/3", "-5/3"),
    ("-x[1]^2 + x[1] - 1", "-x[1]^2 + x[1] - 1"),
    ("(-x[1]^2 + 1)/x[2]", "(-x[1]^2 + 1)/x[2]"),
])
def test_render_side_edge_cases(text, want):
    num, den = sx.expand(sx.parse(text, _PAIR_CATALOG))
    assert _pair_text(num, den) == [want, want]
    assert sx.render_side(sx.canonical_quotient(num, den)) == want


def test_render_side_checks_every_coefficient():
    # only the middle coefficient passes the digit budget
    x = sx.base_sym(1)
    big = 10 ** sx._MAX_DIGITS
    for num, den in [({((x, 2),): 1, ((x, 1),): big, (): 1}, sx._p_one()),
                     ({(): Fraction(1, big)}, {((x, 1),): 1, (): 1}),
                     ({((x, 1),): 1}, {((x, 1),): 1, (): -big})]:
        want = "UsageError: constant with more than 600 digits in a result"
        assert _pair_text(num, den) == [want, want]


@settings(FUZZ, max_examples=300)
@given(st.randoms(use_true_random=True))
def test_render_side_matches_the_tree(rng):
    """The fuzz grammar's expressions, expanded to canonical pairs, render as
    their trees do."""
    text = expression(rng, lambda: leaf(rng, 2, 1, 2, ["q"]), 3)
    try:
        num, den = sx.expand(sx.parse(text, _PAIR_CATALOG))
    except EngineError:
        return
    got, want = _pair_text(num, den)
    assert got == want, text


# --- gcd and exact division on monomial dicts ------------------------------


def _poly(e):
    num, den = sx._to_rat(e)
    assert sx._p_is_one(den)
    return num


def test_gcd_constant_operand():
    x = sx.Atom(sx.base_sym(1))
    a = _poly(sx.eadd(sx.emul(3, x, x), 1))
    assert sx._p_gcd(a, _poly(sx.Const(5))) == sx._p_one()
    assert sx._p_gcd(_poly(sx.Const(5)), a) == sx._p_one()
    assert sx._p_gcd({}, a) == sx._p_monic(a)
    assert sx._p_gcd(a, {}) == sx._p_monic(a)


def test_gcd_operand_free_of_main_symbol():
    # main symbol x[2] is absent from b; the gcd comes from the content of a
    x, y = sx.Atom(sx.base_sym(1)), sx.Atom(sx.base_sym(2))
    a = _poly(sx.emul(sx.eadd(x, 1), sx.eadd(y, 2)))
    b = _poly(sx.esub(sx.emul(x, x), 1))
    g = sx._p_gcd(a, b)
    assert sx.render(sx._poly_to_expr(g)) == "x[1] + 1"
    assert sx._p_gcd(b, a) == g


def test_divexact_inexact_raises():
    x, y = sx.Atom(sx.base_sym(1)), sx.Atom(sx.base_sym(2))
    with pytest.raises(NormalizationError):
        sx._p_divexact(_poly(sx.eadd(sx.emul(x, x), 1)), _poly(sx.eadd(x, 1)))
    with pytest.raises(NormalizationError):
        sx._p_divexact(_poly(sx.emul(x, y)), _poly(sx.emul(y, y)))


def test_divexact_needs_a_term_order():
    # under the rendering order x1*x3 < x2^2 but x1*x1*x3 > x1*x2^2, so the
    # division has to lead with another key to stay exact
    x1, x2, x3 = (sx.Atom(sx.base_sym(i)) for i in (1, 2, 3))
    b = _poly(sx.eadd(sx.emul(x1, x3), sx.emul(x2, x2)))
    q = _poly(sx.eadd(x1, sx.emul(2, x2), 3))
    assert sx._p_divexact(sx._p_mul(q, b), b) == q


_GCD_SYMS = [sx.base_sym(1), sx.base_sym(2), jet(1, 0, 0), jet(1, 1, 0)]


def _nonzero_poly(rng, syms, **kw):
    while True:
        p = random_poly(rng, syms, **kw)
        if not sx.is_zero(p):
            return p


def _assert_coefficient_types(p):
    # integral coefficients are ints, the others non-integral Fractions
    for c in p.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def _assert_fraction_consts(e):
    if isinstance(e, sx.Const):
        assert type(e.q) is Fraction
    for child in getattr(e, "terms", ()) + getattr(e, "factors", ()):
        _assert_fraction_consts(child)
    if isinstance(e, sx.Pow):
        _assert_fraction_consts(e.base)


@pytest.mark.parametrize("seed", range(40))
def test_normalize_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    syms = rng.sample(_GCD_SYMS, rng.randint(2, 4))
    common = _nonzero_poly(rng, syms, max_terms=3, max_deg=2)
    num = sx.normalize(sx.emul(_nonzero_poly(rng, syms, max_terms=4, max_deg=3), common))
    den = sx.normalize(sx.emul(_nonzero_poly(rng, syms, max_terms=4, max_deg=3), common))
    e = sx.ediv(num, den)
    nf = sx.normalize(e)

    names = {s: sympy.Symbol("s%d" % ix) for ix, s in enumerate(_GCD_SYMS)}

    def to_sympy(x):
        if isinstance(x, sx.Const):
            return sympy.Rational(x.q.numerator, x.q.denominator)
        if isinstance(x, sx.Atom):
            return names[x.sym]
        if isinstance(x, sx.Add):
            return sympy.Add(*map(to_sympy, x.terms))
        if isinstance(x, sx.Mul):
            return sympy.Mul(*map(to_sympy, x.factors))
        return sympy.Pow(to_sympy(x.base), x.exp)

    if isinstance(nf, sx.Mul) and isinstance(nf.factors[-1], sx.Pow) and nf.factors[-1].exp == -1:
        n_part, d_part = nf.factors[0], nf.factors[-1].base
    else:
        n_part, d_part = nf, sx.ONE
    g = sympy.gcd(to_sympy(n_part), to_sympy(d_part))
    assert not g.free_symbols
    assert sympy.cancel(to_sympy(e) - to_sympy(nf)) == 0

    a, b = _poly(num), _poly(den)
    ours = sx._poly_to_expr(sx._p_gcd(a, b))
    theirs = sympy.gcd(to_sympy(num), to_sympy(den))
    assert not sympy.cancel(to_sympy(ours) / theirs).free_symbols
    assert sx._p_divexact(sx._p_mul(a, b), b) == a

    # halving puts Fractions into the products, some of them integral
    for x in (e, sx.ediv(e, 2), sx.ediv(num, 2)):
        rat = sx._to_rat(x)
        for p in rat + sx._rat_reduce(*rat):
            _assert_coefficient_types(p)
        _assert_fraction_consts(sx.normalize(x))
    for p in (sx._p_gcd(a, b), sx._p_divexact(sx._p_mul(a, b), b),
              sx._p_divexact(_poly(sx.emul(num, Fraction(1, 2))), sx._p_gcd(a, b))):
        _assert_coefficient_types(p)
