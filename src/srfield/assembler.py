"""Assembly of the dynamical form and mechanical extraction of its equation families.

The collapse check contracts a fully generic projector template into the
premultisymplectic form and collects coefficients monomial by monomial.  Each
equation family (holonomy conditions on the A's, the trace and middle
momentum relations, the top-order constraint W1) is defined once, in closed
form, and checked against the collected coefficients; any mismatch or
unexpected monomial is an internal consistency error, never a silent
fallback.  The gauge freedom in splitting individual momenta never enters:
grouping by monomial yields the gauge-free equations directly.  The dynamical
form is written term by term into one form, its dH0 part from the gradient of
the dynamical function H0.  Both sides of the check are linear in the
partials dL/du_J, and dL/dx^i drops out, so it runs once per signature on
sum_J g_J u_J with opaque constants g_J, and the signature's record also
holds pairing - p and P_j = h_j^0(pairing - p), the Lagrangian-free halves
of W2, p = L - (pairing - p), and of C_j = h_j^0(L) - P_j.  The lifts reach
L through its partials along x and u alone (symexpr.gradient), for C_j and
for the tangency conditions, which apply them to both sides of W1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from . import multiindex as mi
from .equations import (
    Equation,
    EquationSet,
    TAG_A,
    TAG_B_MIDDLE,
    TAG_B_TRACE,
    TAG_TANGENCY,
    TAG_W1,
    TAG_W2,
)
from .errors import InternalConsistencyError, UsageError
from .extalg import Form, collect, contract_projector, dm1x
from .jetmodel import BundleSpec, CoordCatalog, build_catalog, pairing_phi
from .symexpr import (
    AUX,
    Atom,
    BASE,
    Const,
    Expr,
    JET,
    MOMENTUM,
    PSCALAR,
    Sym,
    aux_a,
    aux_b,
    aux_c,
    directional,
    eadd,
    emul,
    eneg,
    esub,
    field_sym,
    free_syms,
    gradient,
    is_zero,
    jet_sym,
    mom_sym,
    normalize,
    render,
)


def _check_l_on_jets(catalog: CoordCatalog, L: Expr) -> None:
    for s in free_syms(L):
        if s.kind in (MOMENTUM, PSCALAR, AUX):
            raise UsageError("Lagrangian must not reference momenta or projector unknowns (%s)"
                             % s.render())
        if s.kind == JET and sum(s.index) > catalog.k:
            raise UsageError("Lagrangian references jet order above k: %s" % s.render())


def hamiltonian_h0(catalog: CoordCatalog, L: Expr) -> Expr:
    """The dynamical function: pairing minus Lagrangian, in coordinates."""
    _check_l_on_jets(catalog, L)
    return esub(pairing_phi(catalog), L)


def canonical_form(catalog: CoordCatalog) -> Form:
    """Canonical multisymplectic (m+1)-form, every coefficient -1 or 1.

    -dp ^ d^m x, then -dp^{I,i} ^ du_I ^ d^{m-1}x_i for each momentum.
    """
    omega = Form(catalog, catalog.m + 1)
    omega.add_word((catalog.p,) + tuple(catalog.base_syms), Const(-1))
    faces = {i: dm1x(catalog, i).terms for i in range(1, catalog.m + 1)}
    for s in catalog.mom_syms:
        for face, coef in faces[s.i].items():
            omega.add_word((s, jet_sym(s.alpha, s.index)) + face, eneg(coef))
    return omega


def omega_h0(catalog: CoordCatalog, L: Expr) -> Form:
    """Premultisymplectic (m+1)-form: the canonical form plus dH0 ^ d^m x, the
    latter term by term from the gradient of H0."""
    _check_l_on_jets(catalog, L)
    base = tuple(catalog.base_syms)
    omega = canonical_form(catalog)
    for c, dh in gradient(hamiltonian_h0(catalog, L), catalog.coords).items():
        omega.add_word((c,) + base, dh)
    return omega


def projector_template(catalog: CoordCatalog) -> dict[int, dict[Sym, Expr]]:
    """Generic horizontal projector with fresh unknowns A, B, C, disjoint from the catalog.

    The projector acts as sum_j h_j (x) dx^j.  It is given by the components
    of its horizontal lifts h_j = d/dx^j + sum of unknown-coefficient fiber
    directions, keyed by j; the vertical kernel condition holds by construction.
    """
    lifts = {}
    for j in range(1, catalog.m + 1):
        comps: dict[Sym, Expr] = {catalog.base_syms[j - 1]: Const(1)}
        for s in catalog.jet_syms:
            comps[s] = Atom(aux_a(s.alpha, s.index, j))
        for s in catalog.mom_syms:
            comps[s] = Atom(aux_b(s.index, s.i, s.alpha, j))
        comps[catalog.p] = Atom(aux_c(j))
        lifts[j] = comps
    return lifts


def equation_families(catalog: CoordCatalog, L: Expr) -> dict[Sym, Equation]:
    """The closed-form equation on each d(c) of the collapsed dynamical form.

    Its residual is the coefficient of d(c) wedge d^m x, negated on momenta.
    Momenta carry the holonomy conditions on the A's; a jet of order 0 the
    trace relation, of order 1..k-1 the middle momentum relation and of
    order k the top-order constraint W1.  Grouped by family in that order.
    """
    _check_l_on_jets(catalog, L)
    dl = gradient(L, catalog.jet_syms)
    m, k = catalog.m, catalog.k
    out: dict[Sym, Equation] = {}
    for s in catalog.mom_syms:
        out[s] = Equation(Atom(aux_a(s.alpha, s.index, s.i)),
                          Atom(jet_sym(s.alpha, s.index.bump(s.i))), TAG_A, "d(%s)" % s.render())
    for orders in ((0,), range(1, k), (k,)):
        for alpha in range(1, catalog.n + 1):
            for J in (J for l in orders for J in mi.enumerate_indices(m, l)):
                u = jet_sym(alpha, J)
                d = dl.get(u, Const(0))
                moms = momentum_sum(u)
                bs = eadd(*[Atom(aux_b(J, i, alpha, i)) for i in range(1, m + 1)])
                lhs, rhs, tag = ((bs, d, TAG_B_TRACE) if sum(J) == 0 else
                                 (moms, esub(d, bs), TAG_B_MIDDLE) if sum(J) < k else
                                 (moms, d, TAG_W1))
                out[u] = Equation(lhs, rhs, tag, "d(%s)" % u.render())
    return out


def check_collapse(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """The families of L, each residual checked against i_h Omega_H0 - (m-1) Omega_H0 of L."""
    families = equation_families(catalog, L)
    m = catalog.m
    om = omega_h0(catalog, L)
    diff = contract_projector(om, projector_template(catalog)) - om.scale(Const(m - 1))

    def expected(c: Sym) -> Expr:
        residual = families[c].residual()
        return eneg(residual) if c.kind == MOMENTUM else residual

    base = tuple(catalog.base_syms)
    sign = Const(1 if m % 2 == 0 else -1)
    seen: set[Sym] = set()
    for mono, coef in collect(diff).items():
        extras = [s for s in mono if s.kind != BASE]
        if (len(extras) != 1 or extras[0] not in families
                or tuple(s for s in mono if s.kind == BASE) != base):
            raise InternalConsistencyError(
                "unexpected monomial in dynamical form: %s" % "^".join(s.render() for s in mono))
        c = extras[0]
        displayed = emul(sign, coef)
        if not is_zero(esub(displayed, expected(c))):
            raise InternalConsistencyError(
                "coefficient mismatch on d(%s): got %s, expected %s"
                % (c.render(), render(normalize(displayed)), render(normalize(expected(c)))))
        seen.add(c)
    for c in families:
        if c not in seen and not is_zero(expected(c)):
            raise InternalConsistencyError("missing dynamical coefficient on d(%s)" % c.render())
    return EquationSet(families.values())


@lru_cache(maxsize=None)
def _signature(spec: BundleSpec) -> tuple[Expr, tuple[Expr, ...], tuple[dict, dict]]:
    """The signature's record, built once: the collapse check on sum_J g_J u_J with opaque
    constants g_J, then pairing - p and P_j = h_j^0(pairing - p), normalized, for the
    default assignment, and that assignment, which stays inside this module.  W2 and
    C_j are both X(L) - X(pairing - p), X the identity for W2 and h_j^0 for C_j."""
    catalog = build_catalog(spec)
    check_collapse(catalog, eadd(*[emul(Atom(field_sym("dL/d" + u.render(), mi.zero(spec.m), ())),
                                        Atom(u)) for u in catalog.jet_syms]))
    pairing = normalize(esub(pairing_phi(catalog), Atom(catalog.p)))
    defaults = default_projector_assignments(catalog)
    lifts = _reduced_lifts(catalog, *defaults)
    return pairing, tuple(_pairing_images(catalog, lifts, pairing)), defaults


def dynamical_equations(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """The four equation families of L, into which i_h Omega_H0 = (m-1) Omega_H0 collapses."""
    _signature(catalog.spec)
    return EquationSet(equation_families(catalog, L).values())


def w2_constraint(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """H0 = 0, fixing the scalar momentum: p = L - (pairing - p), from the signature's record."""
    _check_l_on_jets(catalog, L)
    pairing = _signature(catalog.spec)[0]
    return EquationSet([Equation(Atom(catalog.p), normalize(esub(L, pairing)), TAG_W2, "H0=0")])


def momentum_sum(u: Sym) -> Expr:
    """The momenta p^{I,i}_a with I + 1_i = J, summed, for the jet u = u^a_J."""
    return eadd(*[Atom(mom_sym(u.alpha, I, i)) for I, i in mi.decompositions(u.index)])


def top_partials(catalog: CoordCatalog, L: Expr) -> dict[Sym, Expr]:
    """dL/du_K for each top-order jet u_K in catalog order, zero ones included: W1's right sides.

    A partial from gradient does not depend on the other symbols requested, so
    each equals the W1 right side of equation_families."""
    _check_l_on_jets(catalog, L)
    tops = [u for u in catalog.jet_syms if sum(u.index) == catalog.k]
    dl = gradient(L, tops)
    return {u: dl.get(u, Const(0)) for u in tops}


def tangency_equations(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """Conditions keeping the projector tangent to the top-order constraint set.

    Each lift h_j, with the default assignment, is applied to both sides of
    every W1 equation: the momentum sum goes to sum B^{I,i}_{a,j}, and
    dL/du_K to the lift of its partials along x and u.
    """
    syms = catalog.base_syms + catalog.jet_syms
    out = EquationSet()
    for u, d in top_partials(catalog, L).items():
        grad = gradient(d, syms)
        for j in range(1, catalog.m + 1):
            lhs = eadd(*[Atom(aux_b(I, i, u.alpha, j)) for I, i in mi.decompositions(u.index)])
            out.add(Equation(lhs, normalize(_default_lift(catalog, j, grad)), TAG_TANGENCY,
                             "d/dx[%d] of W1(%s)" % (j, u.render())))
    return out


def _default_a(catalog: CoordCatalog, u: Sym, j: int) -> Expr:
    """Default value of A^a_{J,j}, the u = u^a_J component of h_j: u^a_{J+1_j} below top order."""
    if sum(u.index) < catalog.k:
        return Atom(jet_sym(u.alpha, u.index.bump(j)))
    return Atom(aux_a(u.alpha, u.index, j))


def _default_lift(catalog: CoordCatalog, j: int, grad: Mapping[Sym, Expr]) -> Expr:
    """h_j with the default assignment applied to a function of x and u, given its partials."""
    return eadd(*[d if s.kind == BASE else emul(_default_a(catalog, s, j), d)
                  for s, d in grad.items() if s.kind != BASE or s.i == j])


def default_projector_assignments(catalog: CoordCatalog) -> tuple[dict[Sym, Expr], dict[Sym, Expr]]:
    """Assignments (A, B): holonomy values for the determined A's, symbols elsewhere."""
    js = range(1, catalog.m + 1)
    a_map = {aux_a(u.alpha, u.index, j): _default_a(catalog, u, j)
             for u in catalog.jet_syms for j in js}
    b_map = {b: Atom(b) for s in catalog.mom_syms
             for b in (aux_b(s.index, s.i, s.alpha, j) for j in js)}
    return a_map, b_map


def _reduced_lifts(catalog: CoordCatalog, a_assign: Mapping[Sym, Expr],
                   b_assign: Mapping[Sym, Expr]) -> dict[int, dict[Sym, Expr]]:
    """h_j^0: the template's h_j, its A and B unknowns given values, A_{K,j} on u_K set to 0.

    A_{K,j} multiplies dH0/du_K there, the W1 residual by the signature's
    collapse proof; a top-order A anywhere else in h_j must cancel.
    """
    assign = {"A": a_assign, "B": b_assign}
    tops = {aux_a(u.alpha, u.index, j): (u, j) for u in catalog.jet_syms
            if sum(u.index) == catalog.k for j in range(1, catalog.m + 1)}
    lifts = projector_template(catalog)
    for j, h in lifts.items():
        for s, comp in h.items():
            if isinstance(comp, Atom) and comp.sym.name in assign:
                if comp.sym not in assign[comp.sym.name]:
                    raise UsageError("%s assignment missing %s" % (comp.sym.name, comp.sym.render()))
                comp = h[s] = assign[comp.sym.name][comp.sym]
            if tops.keys() & free_syms(comp):
                comp = normalize(comp)
                if isinstance(comp, Atom) and tops.get(comp.sym) == (s, j):
                    h[s] = Const(0)
                elif tops.keys() & free_syms(comp):
                    raise InternalConsistencyError(
                        "top-order A in h_%d does not multiply a W1 residual in C_%d" % (j, j))
    return lifts


def _pairing_images(catalog: CoordCatalog, lifts: Mapping[int, Mapping[Sym, Expr]],
                    pairing: Expr) -> list[Expr]:
    """P_j: each lift applied to the pairing without p, normalized."""
    grad = gradient(pairing, catalog.coords)
    return [normalize(directional(h, grad)) for h in lifts.values()]


def c_coefficients(catalog: CoordCatalog, L: Expr,
                   a_assign: Mapping[Sym, Expr], b_assign: Mapping[Sym, Expr]) -> list[Expr]:
    """Scalar-momentum coefficients C_j, free of top-order A symbols.

    C_j is minus h_j applied to the dynamical function H0 without its scalar
    momentum p (h_j[p] is the unknown C_j itself), with the given values for
    every A and B unknown of h_j and each top-order A_{K,j} on u_K set to 0
    (_reduced_lifts): C_j = h_j^0(L) - P_j with P_j = h_j^0(pairing - p).
    h_j^0 acts on L through its partials along x and u alone, and under the
    default assignment, which is 0 on the top-order jets, through those below
    top order; P_j then comes from the signature's record.
    """
    _check_l_on_jets(catalog, L)
    pairing, images, defaults = _signature(catalog.spec)
    if (dict(a_assign), dict(b_assign)) == defaults:
        grad = gradient(L, catalog.base_syms + tuple(u for u in catalog.jet_syms
                                                     if sum(u.index) < catalog.k))
        parts = [_default_lift(catalog, j, grad) for j in range(1, catalog.m + 1)]
    else:
        lifts = _reduced_lifts(catalog, a_assign, b_assign)
        images = _pairing_images(catalog, lifts, pairing)
        grad = gradient(L, catalog.base_syms + catalog.jet_syms)
        parts = [directional(h, grad) for h in lifts.values()]
    return [normalize(esub(part, image)) for part, image in zip(parts, images)]
