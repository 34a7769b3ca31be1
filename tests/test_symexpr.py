"""Expression parsing, printing, differentiation, normalization, evaluation."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfield import symexpr as sx
from srfield.errors import EvalDomainError, NormalizationError, ParseError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import MultiIndex

from conftest import CH_L_TEXT, PLATE_L_TEXT, jet, random_poly, random_rational


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
    """Derived equations re-parse under a catalog extended to order 2k."""
    from srfield.eleuler import euler_lagrange
    from srfield.jetmodel import CoordCatalog

    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec, fields={"q": (1, 2)})
    L = sx.parse(PLATE_L_TEXT, cat)
    el = euler_lagrange(L, spec)[0]
    extended = CoordCatalog(spec, fields={"q": (1, 2)}, jet_order=2 * spec.k)
    assert sx.equivalent(sx.parse(sx.render(el), extended), el)

    ch_cat = build_catalog(spec)
    ch = sx.parse(CH_L_TEXT, ch_cat)
    el_ch = euler_lagrange(ch, spec)[0]
    extended2 = CoordCatalog(spec, jet_order=2 * spec.k)
    assert sx.equivalent(sx.parse(sx.render(el_ch), extended2), el_ch)


def test_compile_matches_evaluate(ch_L, ch_catalog):
    # exact reference: substitute rational constants and normalize to a Fraction
    rng = random.Random(4)
    syms = sorted(sx.free_syms(ch_L))
    fn = sx.compile_expr(sx.normalize(ch_L), syms)
    for _ in range(25):
        vals = [Fraction(rng.randint(100, 200), 100) for _ in syms]
        exact = sx.normalize(sx.substitute(ch_L, {s: sx.Const(q) for s, q in zip(syms, vals)}))
        assert isinstance(exact, sx.Const)
        assert fn([float(q) for q in vals]) == pytest.approx(float(exact.q), rel=1e-12)
        assert sx.evaluate(ch_L, dict(zip(syms, vals))) == pytest.approx(float(exact.q), rel=1e-12)


def test_compile_deep_tree():
    # 250 alternating Add/Mul levels: nested text alone would exceed the
    # parser's parenthesis limit, so deep subtrees become local statements
    x = sx.Atom(sx.base_sym(1))
    e = sx.Atom(jet(1, 1))
    for level in range(250):
        e = sx.emul(sx.Const(2), e) if level % 2 else sx.eadd(e, x)
    # each Add/Mul pair maps a to 2(a + 1), so 125 pairs from a = 0 give 2^126 - 2
    assert sx.compile_expr(e, [sx.base_sym(1), jet(1, 1)])([1.0, 0.0]) == pytest.approx(2 ** 126 - 2)
    depth, node = 0, e
    while isinstance(node, (sx.Add, sx.Mul)):
        depth += 1
        node = node.terms[0] if isinstance(node, sx.Add) else node.factors[1]
    assert depth == 250


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
