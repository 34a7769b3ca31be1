"""Wedge products, exterior derivative, contractions, and the collapse invariant."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfield import symexpr as sx
from srfield import extalg as xa
from srfield.assembler import omega_h0, projector_template
from srfield.errors import UsageError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import MultiIndex

import forms_reference as fr
from conftest import jet, random_poly


@pytest.fixture
def cat2():
    return build_catalog(BundleSpec(2, 1, 1))


def dx(cat, i):
    return fr.one_form(cat, cat.base_syms[i - 1])


def test_wedge_antisymmetry(cat2):
    a = fr.wedge(dx(cat2, 1), dx(cat2, 2))
    b = fr.wedge(dx(cat2, 2), dx(cat2, 1)).scale(sx.Const(-1))
    assert xa.collect(a - b) == {}
    assert xa.collect(a) != {}


def test_wedge_repeated_is_zero(cat2):
    assert xa.collect(fr.wedge(dx(cat2, 1), dx(cat2, 1))) == {}


def test_wedge_scalar_carry(cat2):
    p = sx.Atom(cat2.p)
    pdx = fr.one_form(cat2, cat2.base_syms[0]).scale(p)
    out = xa.collect(fr.wedge(pdx, dx(cat2, 2)))
    mono = (cat2.base_syms[0], cat2.base_syms[1])
    assert list(out) == [mono]
    assert sx.equivalent(out[mono], p)


def test_exterior_d_of_p_volume(cat2):
    form = xa.volume_form(cat2).scale(sx.Atom(cat2.p))
    d = xa.collect(fr.exterior_d(form))
    mono = tuple(sorted(cat2.base_syms + (cat2.p,)))
    assert list(d) == [mono]


def test_exterior_d_squared_zero(cat2):
    rng = random.Random(8)
    syms = [cat2.base_syms[0], cat2.base_syms[1], jet(1, 0, 0), jet(1, 1, 0), cat2.p]
    for _ in range(10):
        f = random_poly(rng, syms)
        dd = fr.exterior_d(fr.exterior_d(fr.scalar_form(cat2, f)))
        assert xa.collect(dd) == {}


def test_exterior_d_momentum_density(cat2):
    # d(p^{I,i} du^a_I wedge d^{m-1}x_i) = dp^{I,i} wedge du^a_I wedge d^{m-1}x_i
    s = cat2.mom_syms[0]
    u = jet(1, 0, 0)
    base = fr.wedge(fr.one_form(cat2, u).scale(sx.Atom(s)), xa.dm1x(cat2, s.i))
    lhs = xa.collect(fr.exterior_d(base))
    rhs = xa.collect(fr.wedge(fr.wedge(fr.one_form(cat2, s), fr.one_form(cat2, u)),
                              xa.dm1x(cat2, s.i)))
    assert set(lhs) == set(rhs)
    for mono in lhs:
        assert sx.equivalent(lhs[mono], rhs[mono])


def test_contract_vector_slots(cat2):
    dxdy = fr.wedge(dx(cat2, 1), dx(cat2, 2))
    vx = xa.VecField(cat2, {cat2.base_syms[0]: sx.Const(1)})
    vy = xa.VecField(cat2, {cat2.base_syms[1]: sx.Const(1)})
    out_x = xa.collect(xa.contract_vector(dxdy, vx))
    assert list(out_x) == [(cat2.base_syms[1],)]
    assert sx.render(out_x[(cat2.base_syms[1],)]) == "1"
    out_y = xa.collect(xa.contract_vector(dxdy, vy))
    assert sx.render(out_y[(cat2.base_syms[0],)]) == "-1"


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dm1x_is_volume_contraction(m):
    cat = build_catalog(BundleSpec(m, 1, 1))
    for j in range(1, m + 1):
        got = xa.collect(xa.dm1x(cat, j))
        direct = xa.collect(xa.contract_vector(
            xa.volume_form(cat), xa.VecField(cat, {cat.base_syms[j - 1]: sx.Const(1)})))
        assert got == {k: v for k, v in direct.items()} or all(
            sx.equivalent(got[k], direct[k]) for k in got)


def test_contract_zero_form_rejected(cat2):
    with pytest.raises(UsageError):
        xa.contract_vector(fr.scalar_form(cat2, sx.Const(1)),
                           xa.VecField(cat2, {cat2.base_syms[0]: sx.Const(1)}))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_contract_vector_antiderivation(seed):
    rng = random.Random(seed)
    cat = build_catalog(BundleSpec(2, 1, 1))
    syms = list(cat.coords[:6])
    coeff_syms = [jet(1, 0, 0), cat.base_syms[0]]

    def rand_one_form():
        out = fr.zero_form(cat, 1)
        for s in rng.sample(syms, 3):
            out = out + fr.one_form(cat, s).scale(random_poly(rng, coeff_syms, max_terms=2))
        return out

    alpha = rand_one_form()
    beta = fr.wedge(rand_one_form(), rand_one_form())
    v = xa.VecField(cat, {s: random_poly(rng, coeff_syms, max_terms=2)
                          for s in rng.sample(syms, 3)})
    lhs = xa.contract_vector(fr.wedge(alpha, beta), v)
    rhs = fr.wedge(xa.contract_vector(alpha, v), beta) + \
        fr.wedge(alpha, xa.contract_vector(beta, v)).scale(sx.Const(-1))
    diff = xa.collect(lhs - rhs)
    assert diff == {}


def test_wedge_associativity(cat2):
    rng = random.Random(9)
    coeff_syms = [jet(1, 0, 0), cat2.base_syms[0]]
    forms = []
    for s in (cat2.coords[2], cat2.coords[3], cat2.coords[4]):
        forms.append(fr.one_form(cat2, s).scale(random_poly(rng, coeff_syms, max_terms=2)))
    a, b, c = forms
    left = fr.wedge(fr.wedge(a, b), c)
    right = fr.wedge(a, fr.wedge(b, c))
    assert xa.collect(left - right) == {}


def test_projector_contraction_of_volume():
    for m in (1, 2, 3):
        cat = build_catalog(BundleSpec(m, 1, 1))
        h = projector_template(cat)
        got = xa.collect(xa.contract_projector(xa.volume_form(cat), h))
        mono = tuple(cat.base_syms)
        assert list(got) == [mono]
        assert sx.render(got[mono]) == str(m)


def test_projector_contraction_slot_expansion():
    # i_h(du^a_I wedge d^{m-1}x_i) = A dx^j wedge d^{m-1}x_i + (m-1) du^a_I wedge d^{m-1}x_i
    cat = build_catalog(BundleSpec(2, 1, 1))
    h = projector_template(cat)
    u = jet(1, 0, 0)
    form = fr.wedge(fr.one_form(cat, u), xa.dm1x(cat, 1))
    got = xa.contract_projector(form, h)
    expected = fr.zero_form(cat, 2)
    for j in range(1, 3):
        expected = expected + fr.wedge(dxf(cat, j), xa.dm1x(cat, 1)).scale(
            sx.Atom(sx.aux_a(1, MultiIndex((0, 0)), j)))
    expected = expected + form.scale(sx.Const(2 - 1))
    diff = xa.collect(got - expected)
    assert diff == {}


def dxf(cat, j):
    return fr.one_form(cat, cat.base_syms[j - 1])


@pytest.mark.parametrize("spec", [BundleSpec(1, 1, 1), BundleSpec(2, 1, 1),
                                  BundleSpec(2, 1, 2), BundleSpec(3, 1, 1),
                                  BundleSpec(2, 2, 2)])
def test_dynamical_form_support(spec):
    """Only single-non-base-differential wedge volume monomials survive the collapse."""
    rng = random.Random(spec.m * 10 + spec.k)
    cat = build_catalog(spec)
    jets = list(cat.jet_syms)
    L = random_poly(rng, jets + list(cat.base_syms), max_terms=6, max_deg=2)
    om = omega_h0(cat, L)
    h = projector_template(cat)
    diff = xa.contract_projector(om, h) - om.scale(sx.Const(spec.m - 1))
    base = set(cat.base_syms)
    for mono, coef in xa.collect(diff).items():
        non_base = [s for s in mono if s not in base]
        assert len(non_base) == 1
        assert set(mono) - set(non_base) == base


def test_collect_empty_cases(cat2):
    assert xa.collect(fr.zero_form(cat2, 0)) == {}
    both = fr.wedge(dx(cat2, 1), dx(cat2, 2)) + fr.wedge(dx(cat2, 2), dx(cat2, 1))
    assert xa.collect(both) == {}


def test_render_form_deterministic(cat2):
    f = fr.wedge(dx(cat2, 1), dx(cat2, 2)).scale(sx.Atom(cat2.p))
    assert fr.render_form(f) == "(p) d(x[1])^d(x[2])"
