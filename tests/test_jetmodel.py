"""Catalogs, dimension formulas, the pairing, prolongation."""

import itertools
import random
import re

import pytest

from srfield import symexpr as sx
from srfield.eleuler import bump_polynomial
from srfield.errors import UsageError
from srfield.jetmodel import (
    BundleSpec,
    SectionFn,
    build_catalog,
    coordinate_count,
    dim_jet,
    pairing_phi,
    prolong,
)
from srfield.multiindex import MultiIndex, enumerate_up_to
from srfield.report import random_section, random_variation

from conftest import jet, mom
from routes_reference import eager_prolong


def test_dim_jet_examples():
    assert dim_jet(BundleSpec(2, 1, 2), 2) == 8
    for k in range(1, 5):
        assert dim_jet(BundleSpec(1, 1, k), k) == 2 + k
    assert dim_jet(BundleSpec(3, 2, 1), 0) == 5


def brute_dim(m, n, order):
    jets = {(alpha, t)
            for alpha in range(1, n + 1)
            for t in itertools.product(range(order + 1), repeat=m)
            if sum(t) <= order}
    return m + len(jets)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_dim_jet_brute_force(m, n, order):
    k = max(order, 1)
    assert dim_jet(BundleSpec(m, n, k), order) == brute_dim(m, n, order)


def test_dim_jet_order_above_k():
    with pytest.raises(UsageError):
        dim_jet(BundleSpec(2, 1, 1), 2)


def test_plate_catalog():
    cat = build_catalog(BundleSpec(2, 1, 2))
    assert len(cat.coords) == 15
    names = cat.names()
    assert names[:2] == ["x[1]", "x[2]"]
    assert "u[0,0]" in names  # present despite its omission in hand listings
    assert names.count("p[1,0;1]") == 1 and names.count("p[0,1;1]") == 1
    assert names[-1] == "p"
    # six distinct momenta
    assert sum(1 for s in names if s.startswith("p[")) == 6


def test_mechanics_catalog_count():
    for n in (1, 2):
        for k in (1, 2, 3):
            cat = build_catalog(BundleSpec(1, n, k))
            assert len(cat.coords) == 1 + n * (k + 1) + n * k + 1


def test_small_catalog_count():
    assert len(build_catalog(BundleSpec(2, 1, 1)).coords) == 8


def test_catalog_budget():
    # the largest catalogs in use: the fuzz test's (3, 3, 3) and a one-term (4, 2, 4) run
    assert len(build_catalog(BundleSpec(4, 2, 4)).coords) == 425
    assert coordinate_count(BundleSpec(5, 2, 5)) == 1770
    build_catalog(BundleSpec(5, 2, 5))
    assert coordinate_count(BundleSpec(4, 3, 6)) == 2147
    with pytest.raises(UsageError, match=r"\(4, 3, 6\) has more than the budget of 2000"):
        build_catalog(BundleSpec(4, 3, 6))
    # m + n(k + 1) alone exceeds the budget: rejected without the binomial sum
    with pytest.raises(UsageError, match="budget"):
        build_catalog(BundleSpec(10 ** 9, 1, 10 ** 9))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_catalog_count_formula(m, n, k):
    spec = BundleSpec(m, n, k)
    assert len(build_catalog(spec).coords) == coordinate_count(spec)


def test_catalog_order_is_deterministic():
    cat = build_catalog(BundleSpec(2, 1, 2))
    assert list(cat.coords) == sorted(cat.coords)


def test_pairing_simple():
    cat = build_catalog(BundleSpec(1, 1, 1))
    assert sx.render(sx.normalize(pairing_phi(cat))) == "u[1]*p[0;1] + p"


def test_pairing_plate():
    cat = build_catalog(BundleSpec(2, 1, 2))
    phi = pairing_phi(cat)
    hand = sx.eadd(
        sx.emul(sx.Atom(mom(1, (0, 0), 1)), sx.Atom(jet(1, 1, 0))),
        sx.emul(sx.Atom(mom(1, (0, 0), 2)), sx.Atom(jet(1, 0, 1))),
        sx.emul(sx.Atom(mom(1, (1, 0), 1)), sx.Atom(jet(1, 2, 0))),
        sx.emul(sx.Atom(mom(1, (1, 0), 2)), sx.Atom(jet(1, 1, 1))),
        sx.emul(sx.Atom(mom(1, (0, 1), 1)), sx.Atom(jet(1, 1, 1))),
        sx.emul(sx.Atom(mom(1, (0, 1), 2)), sx.Atom(jet(1, 0, 2))),
        sx.Atom(cat.p),
    )
    assert sx.equivalent(phi, hand)


def test_pairing_k1_structure():
    cat = build_catalog(BundleSpec(3, 2, 1))
    phi = pairing_phi(cat)
    hand = sx.eadd(*[
        sx.emul(sx.Atom(mom(alpha, (0, 0, 0), i)),
                sx.Atom(sx.jet_sym(alpha, MultiIndex((0, 0, 0)).bump(i))))
        for alpha in (1, 2) for i in (1, 2, 3)
    ], sx.Atom(cat.p))
    assert sx.equivalent(phi, hand)


def test_prolong_example():
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    s = SectionFn([sx.parse("x[1]^2*x[2]", cat)])
    pr = prolong(s, 2, spec)
    expected = {
        "u[1,0]": "2*x[1]*x[2]",
        "u[0,1]": "x[1]^2",
        "u[2,0]": "2*x[2]",
        "u[1,1]": "2*x[1]",
        "u[0,2]": "0",
    }
    for name, text in expected.items():
        sym = next(s2 for s2 in pr if s2.render() == name)
        assert sx.render(sx.normalize(pr[sym])) == text


def test_prolong_constant_and_linear():
    spec = BundleSpec(2, 1, 1)
    s = SectionFn([sx.Const(3)])
    pr = prolong(s, 1, spec)
    assert all(sx.is_zero(pr[sym]) for sym in pr if sum(sym.index) >= 1)

    spec1 = BundleSpec(1, 1, 1)
    pr1 = prolong(SectionFn([sx.Atom(sx.base_sym(1))]), 1, spec1)
    assert sx.render(sx.normalize(pr1[jet(1, 1)])) == "1"


def test_prolong_commutes_with_differentiation():
    rng = random.Random(12)
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    s = SectionFn([sx.parse("x[1]^3 + 2*x[1]*x[2]^2 - x[2]", cat)])
    pr = prolong(s, 3, spec)
    for J in enumerate_up_to(2, 2):
        for i in (1, 2):
            lhs = pr[sx.jet_sym(1, J.bump(i))]
            rhs = sx.partial(pr[sx.jet_sym(1, J)], sx.base_sym(i))
            assert sx.equivalent(lhs, rhs)


@pytest.mark.parametrize("signature", [(1, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_prolong_matches_eager_reference(signature):
    """The same trees as the eager level-by-level loop, for sections and bumped variations."""
    spec = BundleSpec(*signature)
    rng = random.Random(3)
    bump = bump_polynomial(spec)
    for _ in range(2):
        s = random_section(spec, rng)
        psi = SectionFn([sx.emul(bump, c) for c in random_variation(spec, rng).components])
        for section in (s, psi):
            assert prolong(section, 2 * spec.k, spec) == eager_prolong(section, 2 * spec.k, spec)


def test_prolong_per_component():
    spec = BundleSpec(2, 2, 2)
    cat = build_catalog(spec)
    s = SectionFn([sx.parse("x[1]^2*x[2]", cat), sx.parse("x[2]^3", cat)])
    pr = prolong(s, 3, spec)
    assert len(pr) == 2 * 10
    asked = [sx.jet_sym(2, MultiIndex((0, 3))), sx.jet_sym(1, MultiIndex((1, 0)))]
    assert [sx.render(sx.normalize(pr[u])) for u in asked] == ["6", "2*x[1]*x[2]"]
    with pytest.raises(UsageError, match="section has 1 components, fiber dimension is 2"):
        prolong(SectionFn([sx.parse("x[2]^3", cat)]), 1, spec)


def test_prolong_rejects_momenta():
    with pytest.raises(UsageError):
        SectionFn([sx.Atom(mom(1, (0, 0), 1))])


def test_section_accepts_base_variables_only():
    # a component is a tree or a canonical pair, the symbol in its numerator or denominator
    cat = build_catalog(BundleSpec(2, 1, 2), fields={"q": (1, 2)})
    x1 = sx.Atom(sx.base_sym(1))
    for other in (cat.field_atom("q"), sx.Atom(cat.p), sx.Atom(jet(1, 0, 0))):
        tree = sx.emul(other, x1)
        for component in (tree, sx.expand(tree), (sx.expand(x1)[0], sx.expand(other)[0])):
            with pytest.raises(UsageError, match="references %s, which is not a base variable"
                               % re.escape(other.sym.render())):
                SectionFn([component])


def test_pairing_matches_pullback_numerically():
    """The coordinate pairing equals the volume factor of the pulled-back density.

    Independent route: pull p d^m x + p^{I,i} du_I wedge d^{m-1}x_i back along
    the prolonged section by substituting du_I -> sum_l (d_l s_I) dx^l and
    extracting the d^m x coefficient.
    """
    rng = random.Random(21)
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    s = SectionFn([sx.parse("x[1]^2*x[2] + x[2]^2", cat)])
    pr = prolong(s, 2, spec)
    phi = pairing_phi(cat)
    for _ in range(10):
        point = {sx.base_sym(1): rng.uniform(1, 2), sx.base_sym(2): rng.uniform(1, 2)}
        momenta = {sym: rng.uniform(-1, 1) for sym in cat.mom_syms}
        momenta[cat.p] = rng.uniform(-1, 1)
        # direct pairing: substitute jets of the section, evaluate
        full = dict(momenta)
        full.update(point)
        for sym, expr in pr.items():
            full[sym] = sx.evaluate(expr, point)
        lhs = sx.evaluate(phi, full)
        # independent pullback: top coefficient of the pulled-back m-form
        rhs = momenta[cat.p]
        for sym in cat.mom_syms:
            d_i = sx.partial(pr[sx.jet_sym(sym.alpha, sym.index)], sx.base_sym(sym.i))
            rhs += momenta[sym] * sx.evaluate(d_i, point)
        assert lhs == pytest.approx(rhs, rel=1e-12)
