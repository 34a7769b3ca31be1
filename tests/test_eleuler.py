"""Total derivatives, the Euler-Lagrange operator, residuals, and the numeric oracle."""

import random

import pytest

from srfield import symexpr as sx
from srfield import eleuler as el
from srfield.errors import UsageError
from srfield.jetmodel import BundleSpec, SectionFn, build_catalog
from srfield.multiindex import MultiIndex

from conftest import jet, random_poly


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


def test_simpson_rejects_even_grid():
    with pytest.raises(UsageError):
        el.simpson_points_weights(4, 0.0, 1.0)


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
    """Simpson is exact for cubics; the box [0,1] x [0,2] pins each grid axis to its interval."""
    spec = BundleSpec(2, 1, 1)
    cat = build_catalog(spec)
    L = sx.parse("u[0,0]*x[2] + u[1,0]^3", cat)
    s = SectionFn([sx.parse("x[1]*x[2]", cat)])
    # integral of x1*x2^2 + x2^3 over the box: 4/3 + 4 (swapped axes give 2/3 + 1/4)
    assert el.action_value(L, spec, s, 9, box=((0, 1), (0, 2))) == pytest.approx(16 / 3, abs=1e-12)
    # a constant integrand compiles to a scalar, which broadcasts over the weights
    assert el.action_value(sx.Const(3), spec, s, 9, box=((0, 1), (0, 2))) == pytest.approx(6.0)


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
    bump = el.bump_polynomial(spec, el.default_box(spec))
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
