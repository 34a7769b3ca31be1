"""Dynamical-form assembly and the grouped equation families, against hand results."""

import random

import pytest

from srfield import symexpr as sx
from srfield import extalg as xa
from srfield.assembler import (
    c_coefficients,
    default_projector_assignments,
    dynamical_equations,
    hamiltonian_h0,
    omega_h0,
    projector_template,
    tangency_equations,
    w2_constraint,
)
from srfield.equations import TAG_A, TAG_B_MIDDLE, TAG_B_TRACE, TAG_TANGENCY, TAG_W1, TAG_W2
from srfield.errors import InternalConsistencyError, UsageError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import (
    MultiIndex,
    count_indices,
    decompositions,
    enumerate_indices,
    enumerate_up_to,
)

import forms_reference as fr
from conftest import bench_problems, jet, mom, random_poly


def eqmap(eqs, tag):
    return [(sx.render(sx.normalize(e.lhs)), sx.render(sx.normalize(e.rhs)))
            for e in eqs.by_tag(tag)]


def test_h0_mechanics():
    cat = build_catalog(BundleSpec(1, 1, 1))
    L = sx.parse("u[1]^2/2", cat)
    h0 = sx.normalize(hamiltonian_h0(cat, L))
    hand = sx.eadd(sx.emul(sx.Atom(mom(1, (0,), 1)), sx.Atom(jet(1, 1))),
                   sx.Atom(cat.p),
                   sx.eneg(sx.ediv(sx.epow(sx.Atom(jet(1, 1)), 2), sx.Const(2))))
    assert sx.equivalent(h0, hand)


def test_h0_plate(plate_catalog, plate_L):
    from srfield.jetmodel import pairing_phi
    h0 = hamiltonian_h0(plate_catalog, plate_L)
    assert sx.equivalent(h0, sx.esub(pairing_phi(plate_catalog), plate_L))


def test_h0_zero_lagrangian():
    from srfield.jetmodel import pairing_phi
    cat = build_catalog(BundleSpec(2, 1, 1))
    assert sx.equivalent(hamiltonian_h0(cat, sx.Const(0)), pairing_phi(cat))


def test_h0_rejects_momenta():
    cat = build_catalog(BundleSpec(1, 1, 1))
    with pytest.raises(UsageError):
        hamiltonian_h0(cat, sx.Atom(mom(1, (0,), 1)))


def test_omega_h0_mechanics_display():
    """m=1, k=1: -dp1^du + (p1 du1 + u1 dp1 - dL/du du - dL/du1 du1)^dx."""
    cat = build_catalog(BundleSpec(1, 1, 1))
    L = sx.parse("u[1]^2/2 - u[0]^2", cat)
    got = xa.collect(omega_h0(cat, L))

    x = cat.base_syms[0]
    u, u1 = jet(1, 0), jet(1, 1)
    p1 = mom(1, (0,), 1)
    hand = fr.zero_form(cat, 2)
    hand = hand + fr.wedge(fr.one_form(cat, p1), fr.one_form(cat, u)).scale(sx.Const(-1))
    bracket = [
        (u1, sx.Atom(p1)),
        (p1, sx.Atom(u1)),
        (u, sx.eneg(sx.partial(L, u))),
        (u1, sx.eneg(sx.partial(L, u1))),
    ]
    for sym, coef in bracket:
        hand = hand + fr.wedge(fr.one_form(cat, sym), fr.one_form(cat, x)).scale(coef)
    expected = xa.collect(hand)
    assert set(got) == set(expected)
    for mono in got:
        assert sx.equivalent(got[mono], expected[mono])


def test_omega_h0_plate_shape(plate_catalog, plate_L):
    got = xa.collect(omega_h0(plate_catalog, plate_L))
    base = set(plate_catalog.base_syms)
    three_diff = [mono for mono in got if sum(1 for s in mono if s not in base) == 2]
    # six dp^du^dx monomials from the canonical form
    assert len(three_diff) == 6
    single = [mono for mono in got if sum(1 for s in mono if s not in base) == 1]
    assert all(len(mono) == 3 for mono in got)
    assert len(single) + len(three_diff) == len(got)


def _textbook_omega_h0(cat, L):
    """Omega_H0 from its definition: -dp ^ vol - sum dp^{I,i} ^ du_I ^ d^{m-1}x_i + dH0 ^ vol."""
    vol = fr.volume_form(cat)
    omega = fr.wedge(fr.one_form(cat, cat.p), vol).scale(sx.Const(-1))
    for s in cat.mom_syms:
        omega = omega + fr.wedge(
            fr.wedge(fr.one_form(cat, s), fr.one_form(cat, sx.jet_sym(s.alpha, s.index))),
            xa.dm1x(cat, s.i)).scale(sx.Const(-1))
    return omega + fr.wedge(fr.exterior_d(fr.scalar_form(cat, hamiltonian_h0(cat, L))), vol)


def test_omega_h0_zero_lagrangian_is_omega_plus_dphi():
    cat = build_catalog(BundleSpec(2, 1, 1))
    got = omega_h0(cat, sx.Const(0)).terms
    # with L = 0, dH0 is d of the pairing
    assert list(got.items()) == list(_textbook_omega_h0(cat, sx.Const(0)).terms.items())


def test_omega_h0_matches_the_textbook_construction():
    problems = bench_problems()
    assert len(problems) == 82
    for pid, cat, L in problems:
        got = omega_h0(cat, L).terms
        # the same coefficient trees, in the same order
        assert list(got.items()) == list(_textbook_omega_h0(cat, L).terms.items()), pid


def _template_unknowns(t):
    return {s for h in t.values() for c in h.values() for s in sx.free_syms(c)}


def test_projector_template_unknowns():
    cat = build_catalog(BundleSpec(1, 1, 1))
    t = projector_template(cat)
    assert len(_template_unknowns(t)) == 4  # A0, A1, B, C
    cat2 = build_catalog(BundleSpec(2, 1, 2))
    t2 = projector_template(cat2)
    assert len(_template_unknowns(t2)) == 26
    # disjoint from catalog coordinates
    assert not _template_unknowns(t2) & set(cat2.coords)


def test_dynamical_plate(plate_catalog, plate_L):
    eqs = dynamical_equations(plate_catalog, plate_L)
    assert eqmap(eqs, TAG_W1) == [
        ("p[1,0;1]", "u[2,0]"),
        ("p[0,1;1] + p[1,0;2]", "2*u[1,1]"),
        ("p[0,1;2]", "u[0,2]"),
    ]
    assert eqmap(eqs, TAG_B_TRACE) == [("B[0,0;2;1;2] + B[0,0;1;1;1]", "-q")]
    assert eqmap(eqs, TAG_B_MIDDLE) == [
        ("p[0,0;1]", "-B[1,0;2;1;2] - B[1,0;1;1;1]"),
        ("p[0,0;2]", "-B[0,1;2;1;2] - B[0,1;1;1;1]"),
    ]


def test_dynamical_ch(ch_catalog, ch_L):
    eqs = dynamical_equations(ch_catalog, ch_L)
    assert eqmap(eqs, TAG_W1) == [
        ("p[1,0;1]", "0"),
        ("p[0,1;1] + p[1,0;2]", "u[1,1]/u[1,0]"),
        ("p[0,1;2]", "0"),
    ]
    # middle relations: p^x and p^t against the B traces
    bm = dict(eqmap(eqs, TAG_B_MIDDLE))
    ux, ut, uxt = jet(1, 1, 0), jet(1, 0, 1), jet(1, 1, 1)
    px_expect = sx.esub(
        sx.esub(sx.ediv(sx.epow(sx.Atom(ut), 2), sx.Const(2)),
                sx.ediv(sx.epow(sx.Atom(uxt), 2), sx.emul(sx.Const(2), sx.epow(sx.Atom(ux), 2)))),
        sx.eadd(sx.Atom(sx.aux_b(MultiIndex((1, 0)), 1, 1, 1)),
                sx.Atom(sx.aux_b(MultiIndex((1, 0)), 2, 1, 2))))
    assert sx.equivalent(_reparse(bm["p[0,0;1]"], ch_catalog), px_expect)
    pt_expect = sx.esub(
        sx.emul(sx.Atom(ux), sx.Atom(ut)),
        sx.eadd(sx.Atom(sx.aux_b(MultiIndex((0, 1)), 1, 1, 1)),
                sx.Atom(sx.aux_b(MultiIndex((0, 1)), 2, 1, 2))))
    assert sx.equivalent(_reparse(bm["p[0,0;2]"], ch_catalog), pt_expect)


def _reparse(text, catalog):
    """Re-parse an equation side containing projector unknowns."""
    # unknown names are bracketed; lift them to atoms via a tiny substitution scan
    from srfield.symexpr import aux_a, aux_b, aux_c
    import re as _re

    out = text
    mapping = {}
    for match in _re.finditer(r"[ABC]\[[^\]]*\]", text):
        token = match.group(0)
        name = token[0]
        body = token[2:-1]
        if name == "A":
            alpha, idx, j = body.split(";")
            sym = aux_a(int(alpha), MultiIndex(map(int, idx.split(","))), int(j))
        elif name == "B":
            idx, i, alpha, j = body.split(";")
            sym = aux_b(MultiIndex(map(int, idx.split(","))), int(i), int(alpha), int(j))
        else:
            sym = aux_c(int(body))
        mapping[token] = sym
    # parse with placeholders: swap each unknown for a fresh field name
    cat = build_catalog(catalog.spec,
                        fields={"aux%d" % ix: () for ix in range(len(mapping))})
    repl = {}
    for ix, (token, sym) in enumerate(sorted(mapping.items())):
        out = out.replace(token, "aux%d" % ix)
        repl["aux%d" % ix] = sym
    expr = sx.parse(out, cat)
    subs = {sx.field_sym(nm, MultiIndex((0,) * catalog.m), ()): sx.Atom(sym)
            for nm, sym in repl.items()}
    return sx.substitute(expr, subs)


def test_dynamical_k1_shapes():
    """k=1: top constraints are p^i = dL/du_i and there are no middle relations."""
    cat = build_catalog(BundleSpec(2, 1, 1))
    L = sx.parse("1/2*(u[1,0]^2 + u[0,1]^2) - u[0,0]^2", cat)
    eqs = dynamical_equations(cat, L)
    assert eqs.by_tag(TAG_B_MIDDLE) == []
    assert eqmap(eqs, TAG_W1) == [("p[0,0;1]", "u[1,0]"), ("p[0,0;2]", "u[0,1]")]
    assert eqmap(eqs, TAG_B_TRACE) == [("B[0,0;2;1;2] + B[0,0;1;1;1]", "-2*u[0,0]")]


def test_dynamical_mechanics_k2():
    """m=1 higher order: B^1 = dL/du, p^l = dL/du_l - B^{l+1}, p^k = dL/du_k, A_l = u_{l+1}."""
    cat = build_catalog(BundleSpec(1, 1, 2))
    L = sx.parse("u[2]^2/2 + u[1]^2", cat)
    eqs = dynamical_equations(cat, L)
    assert eqmap(eqs, TAG_B_TRACE) == [("B[0;1;1;1]", "0")]
    assert eqmap(eqs, TAG_B_MIDDLE) == [("p[0;1]", "-B[1;1;1;1] + 2*u[1]")]
    assert eqmap(eqs, TAG_W1) == [("p[1;1]", "u[2]")]
    assert eqmap(eqs, TAG_A) == [
        ("A[1;0;1]", "u[1]"),
        ("A[1;1;1]", "u[2]"),
    ]


def test_a_equations_independent_of_lagrangian():
    rng = random.Random(31)
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    jets = list(cat.jet_syms)
    reference = None
    for _ in range(3):
        L = random_poly(rng, jets, max_terms=4)
        rows = eqmap(dynamical_equations(cat, L), TAG_A)
        if reference is None:
            reference = rows
        assert rows == reference
    for lhs, rhs in reference:
        assert lhs.startswith("A[") and rhs.startswith("u[")


def test_w1_has_no_projector_unknowns(plate_catalog, plate_L):
    from srfield.symexpr import AUX, free_syms
    eqs = dynamical_equations(plate_catalog, plate_L)
    for e in eqs.by_tag(TAG_W1):
        syms = free_syms(e.lhs) | free_syms(e.rhs)
        assert not any(s.kind == AUX for s in syms)


@pytest.mark.parametrize("m,n,k", [(1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2)])
def test_equation_family_counts(m, n, k):
    rng = random.Random(m * 100 + n * 10 + k)
    spec = BundleSpec(m, n, k)
    cat = build_catalog(spec)
    L = random_poly(rng, list(cat.jet_syms) + list(cat.base_syms), max_terms=5)
    eqs = dynamical_equations(cat, L)
    lower = sum(count_indices(m, l) for l in range(k))
    middle = sum(count_indices(m, l) for l in range(1, k))
    assert len(eqs.by_tag(TAG_A)) == n * m * lower
    assert len(eqs.by_tag(TAG_B_TRACE)) == n
    assert len(eqs.by_tag(TAG_B_MIDDLE)) == n * middle
    assert len(eqs.by_tag(TAG_W1)) == n * count_indices(m, k)
    assert len(eqs) == len(eqs.by_tag(TAG_A)) + n + n * middle + n * count_indices(m, k)


def test_momentum_sum_reindexing_consistency(plate_catalog, plate_L):
    """Both groupings of the momentum sums agree, re-indexed through decompositions."""
    eqs = dynamical_equations(plate_catalog, plate_L)
    k = plate_catalog.k
    for l in range(1, k + 1):
        tag = TAG_W1 if l == k else TAG_B_MIDDLE
        rows = [e for e in eqs.by_tag(tag)
                if sum(jet_index_of(e.provenance)) == l]
        grouped = sx.eadd(*[e.lhs for e in rows])
        direct = sx.eadd(*[
            sx.Atom(mom(1, tuple(I), i))
            for I in enumerate_indices(2, l - 1)
            for i in (1, 2)
        ])
        assert sx.equivalent(grouped, direct)


def jet_index_of(provenance):
    # provenance is "d(u[a,b])"
    inner = provenance[len("d(u["):-len("])")]
    return tuple(int(c) for c in inner.split(","))


def _corrupt_collect(monkeypatch, edit):
    import srfield.assembler as asm
    real = asm.collect

    def collect(form):
        coll = dict(real(form))
        edit(coll)
        return coll
    monkeypatch.setattr(asm, "collect", collect)


def _d_mono(cat, sym):
    return tuple(sorted((sym,) + tuple(cat.base_syms)))


def test_dynamical_rejects_unexpected_monomial(monkeypatch, ch_catalog, ch_L):
    cat = ch_catalog
    extra = tuple(sorted((cat.p, jet(1, 0, 0), cat.base_syms[0])))
    _corrupt_collect(monkeypatch, lambda coll: coll.__setitem__(extra, sx.Const(1)))
    with pytest.raises(InternalConsistencyError, match="unexpected monomial"):
        dynamical_equations(cat, ch_L)


def test_dynamical_rejects_scalar_momentum_coefficient(monkeypatch, ch_catalog, ch_L):
    mono = _d_mono(ch_catalog, ch_catalog.p)
    _corrupt_collect(monkeypatch, lambda coll: coll.__setitem__(mono, sx.Const(1)))
    with pytest.raises(InternalConsistencyError, match="unexpected monomial"):
        dynamical_equations(ch_catalog, ch_L)


def test_dynamical_rejects_mismatched_coefficient(monkeypatch, ch_catalog, ch_L):
    mono = _d_mono(ch_catalog, jet(1, 1, 1))

    def edit(coll):
        coll[mono] = sx.eadd(coll[mono], sx.Const(1))
    _corrupt_collect(monkeypatch, edit)
    with pytest.raises(InternalConsistencyError, match=r"coefficient mismatch on d\(u\[1,1\]\)"):
        dynamical_equations(ch_catalog, ch_L)


def test_dynamical_rejects_missing_coefficient(monkeypatch, ch_catalog, ch_L):
    mono = _d_mono(ch_catalog, mom(1, (0, 0), 1))
    _corrupt_collect(monkeypatch, lambda coll: coll.pop(mono))
    with pytest.raises(InternalConsistencyError, match=r"missing dynamical coefficient on d\(p"):
        dynamical_equations(ch_catalog, ch_L)


def test_w2_plate(plate_catalog, plate_L):
    eqs = w2_constraint(plate_catalog, plate_L)
    assert len(eqs) == 1
    eq = eqs[0]
    assert sx.render(eq.lhs) == "p"
    phi_part = sx.eadd(*[
        sx.emul(sx.Atom(s), sx.Atom(jet(1, *s.index.bump(s.i))))
        for s in plate_catalog.mom_syms
    ])
    assert sx.equivalent(eq.rhs, sx.esub(plate_L, phi_part))


def test_w2_zero_lagrangian():
    cat = build_catalog(BundleSpec(1, 1, 1))
    eqs = w2_constraint(cat, sx.Const(0))
    assert eqmap(eqs, TAG_W2) == [("p", "-u[1]*p[0;1]")]


def test_tangency_plate(plate_catalog, plate_L):
    eqs = tangency_equations(plate_catalog, plate_L)
    got = eqmap(eqs, TAG_TANGENCY)
    assert ("B[1,0;1;1;1]", "A[1;2,0;1]") in got
    assert ("B[0,1;1;1;1] + B[1,0;2;1;1]", "2*A[1;1,1;1]") in got
    assert ("B[0,1;2;1;1]", "A[1;0,2;1]") in got
    assert ("B[1,0;1;1;2]", "A[1;2,0;2]") in got
    assert ("B[0,1;1;1;2] + B[1,0;2;1;2]", "2*A[1;1,1;2]") in got
    assert ("B[0,1;2;1;2]", "A[1;0,2;2]") in got
    assert len(got) == 6


def test_tangency_ch(ch_catalog, ch_L):
    """General-formula result; the x-row quadratic denominator is u_x^2."""
    eqs = tangency_equations(ch_catalog, ch_L)
    got = dict(eqmap(eqs, TAG_TANGENCY))
    assert got["B[1,0;1;1;1]"] == "0"
    assert got["B[0,1;2;1;1]"] == "0"
    assert got["B[1,0;1;1;2]"] == "0"
    assert got["B[0,1;2;1;2]"] == "0"
    mixed_x = _reparse(got["B[0,1;1;1;1] + B[1,0;2;1;1]"], ch_catalog)
    ux, uxx, uxt = sx.Atom(jet(1, 1, 0)), sx.Atom(jet(1, 2, 0)), sx.Atom(jet(1, 1, 1))
    a_x = sx.Atom(sx.aux_a(1, MultiIndex((1, 1)), 1))
    expect_x = sx.eadd(sx.eneg(sx.ediv(sx.emul(uxx, uxt), sx.epow(ux, 2))),
                       sx.ediv(a_x, ux))
    assert sx.equivalent(mixed_x, expect_x)
    mixed_t = _reparse(got["B[0,1;1;1;2] + B[1,0;2;1;2]"], ch_catalog)
    a_t = sx.Atom(sx.aux_a(1, MultiIndex((1, 1)), 2))
    expect_t = sx.eadd(sx.eneg(sx.epow(sx.ediv(uxt, ux), 2)), sx.ediv(a_t, ux))
    assert sx.equivalent(mixed_t, expect_t)


def test_tangency_mechanics_identity_hessian():
    """m=1, quadratic top jet: B^k = d2L/dxdu_k + sum u_{l+1} d2L/du_l du_k + A_k."""
    cat = build_catalog(BundleSpec(1, 1, 2))
    L = sx.parse("u[2]^2/2 + x[1]*u[2] + u[1]*u[2] + u[0]^2", cat)
    eqs = tangency_equations(cat, L)
    got = eqmap(eqs, TAG_TANGENCY)
    assert len(got) == 1
    lhs, rhs = got[0]
    assert lhs == "B[1;1;1;1]"
    expect = sx.eadd(sx.Const(1), sx.Atom(jet(1, 2)),
                     sx.Atom(sx.aux_a(1, MultiIndex((2,)), 1)))
    assert sx.equivalent(_reparse(rhs, cat), expect)


def test_c_coefficients_k1_display():
    """k=1: C_j = dL/dx^j + u_j dL/du - B^i_j u_i."""
    cat = build_catalog(BundleSpec(2, 1, 1))
    L = sx.parse("1/2*(u[1,0]^2 + u[0,1]^2) - u[0,0]^2 + x[1]*u[0,0]", cat)
    a_map, b_map = default_projector_assignments(cat)
    cs = c_coefficients(cat, L, a_map, b_map)
    for j, cexpr in enumerate(cs, start=1):
        hand = sx.partial(L, sx.base_sym(j))
        du = sx.partial(L, jet(1, 0, 0))
        hand = sx.eadd(hand, sx.emul(sx.Atom(jet(1, *MultiIndex((0, 0)).bump(j))), du))
        for i in (1, 2):
            hand = sx.esub(hand, sx.emul(
                sx.Atom(sx.aux_b(MultiIndex((0, 0)), i, 1, j)),
                sx.Atom(jet(1, *MultiIndex((0, 0)).bump(i)))))
        assert sx.equivalent(cexpr, hand)


def test_c_coefficients_mechanics_cancellation():
    """m=1: the top-order A terms cancel, leaving the lower-order structure."""
    cat = build_catalog(BundleSpec(1, 1, 2))
    L = sx.parse("u[2]^2/2 - u[0]^2", cat)
    a_map, b_map = default_projector_assignments(cat)
    cs = c_coefficients(cat, L, a_map, b_map)
    assert len(cs) == 1
    c = cs[0]
    from srfield.symexpr import AUX, free_syms
    assert not any(s.kind == AUX and s.name == "A" for s in free_syms(c))
    hand = sx.eadd(
        sx.emul(sx.Atom(jet(1, 1)), sx.partial(L, jet(1, 0))),
        sx.emul(sx.Atom(jet(1, 2)), sx.partial(L, jet(1, 1))),
        sx.eneg(sx.emul(sx.Atom(jet(1, 2)), sx.Atom(mom(1, (0,), 1)))),
        sx.eneg(sx.emul(sx.Atom(sx.aux_b(MultiIndex((0,)), 1, 1, 1)), sx.Atom(jet(1, 1)))),
        sx.eneg(sx.emul(sx.Atom(sx.aux_b(MultiIndex((1,)), 1, 1, 1)), sx.Atom(jet(1, 2)))),
    )
    assert sx.equivalent(c, hand)


def test_c_coefficients_zero_lagrangian():
    # raw formula is -A_{I+1_i,j} p^{I,i} - B^{I,i}_j u_{I+1_i}; for k=1 every A
    # there is top-order and cancels against the (zero right side) top constraint
    cat = build_catalog(BundleSpec(1, 1, 1))
    a_map, b_map = default_projector_assignments(cat)
    cs = c_coefficients(cat, sx.Const(0), a_map, b_map)
    hand = sx.eneg(sx.emul(sx.Atom(sx.aux_b(MultiIndex((0,)), 1, 1, 1)), sx.Atom(jet(1, 1))))
    assert sx.equivalent(cs[0], hand)


def test_c_coefficients_rejects_broken_w1_identity(plate_catalog, plate_L):
    a_map, b_map = default_projector_assignments(plate_catalog)
    top = sx.aux_a(1, MultiIndex((1, 1)), 2)
    a_map[top] = sx.emul(sx.Const(2), sx.Atom(top))
    with pytest.raises(InternalConsistencyError, match="W1 residual"):
        c_coefficients(plate_catalog, plate_L, a_map, b_map)


@pytest.mark.parametrize("missing", [("plate", sx.aux_a(1, MultiIndex((1, 0)), 1)),
                                     ("plate", sx.aux_b(MultiIndex((0, 1)), 2, 1, 2)),
                                     # Camassa-Holm has no u[0,0]; its lift still needs the A
                                     ("ch", sx.aux_a(1, MultiIndex((0, 0)), 1))])
def test_c_coefficients_missing_assignment(request, missing):
    problem, sym = missing
    cat = request.getfixturevalue(problem + "_catalog")
    L = request.getfixturevalue(problem + "_L")
    a_map, b_map = default_projector_assignments(cat)
    del (a_map if sym.name == "A" else b_map)[sym]
    with pytest.raises(UsageError, match="%s assignment missing" % sym.name):
        c_coefficients(cat, L, a_map, b_map)


def _sequential_c_coefficients(cat, L, a_map, b_map):
    """Reference: normalize each C_j, then per top-order A normalize its
    coefficient, check it against W1 and renormalize with the A set to 0."""
    m, n, k = cat.m, cat.n, cat.k
    out = []
    for j in range(1, m + 1):
        parts = [sx.partial(L, cat.base_syms[j - 1])]
        for alpha in range(1, n + 1):
            for J in enumerate_up_to(m, k):
                dl = sx.partial(L, sx.jet_sym(alpha, J))
                if not sx.is_syntactic_zero(dl):
                    parts.append(sx.emul(a_map[sx.aux_a(alpha, J, j)], dl))
        for s in cat.mom_syms:
            top = s.index.bump(s.i)
            parts.append(sx.eneg(sx.emul(a_map[sx.aux_a(s.alpha, top, j)], sx.Atom(s))))
            parts.append(sx.eneg(sx.emul(b_map[sx.aux_b(s.index, s.i, s.alpha, j)],
                                         sx.Atom(sx.jet_sym(s.alpha, top)))))
        cj = sx.normalize(sx.eadd(*parts))
        for alpha in range(1, n + 1):
            for K in enumerate_indices(m, k):
                sym = sx.aux_a(alpha, K, j)
                if sym not in sx.free_syms(cj):
                    continue
                coeff = sx.normalize(sx.partial(cj, sym))
                gap = sx.esub(sx.partial(L, sx.jet_sym(alpha, K)),
                              sx.eadd(*[sx.Atom(sx.mom_sym(alpha, I, i))
                                        for I, i in decompositions(K)]))
                assert sx.is_zero(sx.esub(coeff, gap))
                cj = sx.normalize(sx.substitute(cj, {sym: sx.Const(0)}))
        out.append(cj)
    return out


@pytest.mark.parametrize("m,n,k", [(1, 1, 3), (2, 1, 2), (2, 2, 1), (2, 1, 3), (3, 1, 2)])
def test_c_coefficients_match_sequential_reduction(m, n, k):
    """One normalize per C_j renders exactly as the normalize-per-A reduction."""
    rng = random.Random(1000 * m + 100 * n + k)
    cat = build_catalog(BundleSpec(m, n, k))
    syms = list(cat.jet_syms) + list(cat.base_syms)
    tops = [s for s in cat.jet_syms if sum(s.index) == k]
    # a top-order square keeps every L at full order
    square = sx.epow(sx.Atom(rng.choice(tops)), 2)
    poly = sx.eadd(random_poly(rng, syms, max_terms=5, max_deg=3), square)
    rational = sx.eadd(square, sx.ediv(
        sx.eadd(random_poly(rng, syms, max_terms=4), sx.Const(1)),
        sx.eadd(sx.Atom(rng.choice(tops)), sx.Const(rng.randint(1, 3)))))
    a_map, b_map = default_projector_assignments(cat)
    # a top-order A whose value cancels drops out of C_j without a W1 check
    cancelled = dict(a_map)
    for j in range(1, m + 1):
        sym = sx.aux_a(1, tops[0].index, j)
        cancelled[sym] = sx.esub(sx.Atom(sym), sx.Atom(sym))
    for L, amap in ((poly, a_map), (rational, a_map), (poly, cancelled)):
        got = [sx.render(c) for c in c_coefficients(cat, L, amap, b_map)]
        want = [sx.render(c) for c in _sequential_c_coefficients(cat, L, amap, b_map)]
        assert got == want
