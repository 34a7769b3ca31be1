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
holds the default assignment's maps and, as polynomials, pairing - p and
P_j = h_j^0(pairing - p), the Lagrangian-free halves of W2,
p = L - (pairing - p), and of C_j = h_j^0(L) - P_j.

Every side is built from L's partials table (symexpr.Partials), which one
report shares, as a canonical pair that Equation keeps: the trace, middle and
W1 sides are partials reduced once, the tangency sides are the default lift h_j, with
the top-order A's, applied to the top-order partials and reduced once, and
h_j^0(L) is reduced once to n'/d'.  W2 = (n - pairing d)/d and
C_j = (n' - P_j d')/d' then take no gcd, since gcd(n - P d, d) = gcd(n, d) = 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional

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
    Derivation,
    Expr,
    JET,
    MOMENTUM,
    PSCALAR,
    Partials,
    Sym,
    aux_a,
    aux_b,
    aux_c,
    directional,
    eadd,
    emul,
    eneg,
    esub,
    expand,
    field_sym,
    free_syms,
    gradient,
    horizontal,
    is_zero,
    jet_sym,
    minus_polynomial,
    mom_sym,
    normalize,
    render,
    tree_of,
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


def equation_families(catalog: CoordCatalog, L: Expr,
                      table: Optional[Partials] = None) -> dict[Sym, Equation]:
    """The closed-form equation on each d(c) of the collapsed dynamical form.

    Its residual is the coefficient of d(c) wedge d^m x, negated on momenta.
    Momenta carry the holonomy conditions on the A's; a jet of order 0 the
    trace relation, of order 1..k-1 the middle momentum relation and of
    order k the top-order constraint W1.  Grouped by family in that order.
    Every side is built in canonical form, the partials from L's table.
    """
    _check_l_on_jets(catalog, L)
    table = Partials(L) if table is None else table
    m, k = catalog.m, catalog.k
    out: dict[Sym, Equation] = {}
    for s in catalog.mom_syms:
        out[s] = Equation(Atom(aux_a(s.alpha, s.index, s.i)),
                          Atom(jet_sym(s.alpha, s.index.bump(s.i))), TAG_A, "d(%s)" % s.render())
    for orders in ((0,), range(1, k), (k,)):
        for alpha in range(1, catalog.n + 1):
            for J in (J for l in orders for J in mi.enumerate_indices(m, l)):
                u = jet_sym(alpha, J)
                d = table.reduce(table.of(u))
                bs = _linear(aux_b(J, i, alpha, i) for i in range(1, m + 1))
                lhs, rhs, tag = ((_over_one(bs), d, TAG_B_TRACE) if sum(J) == 0 else
                                 (_over_one(_momenta(u)), minus_polynomial(*d, bs), TAG_B_MIDDLE)
                                 if sum(J) < k else
                                 (_over_one(_momenta(u)), d, TAG_W1))
                out[u] = Equation(lhs, rhs, tag, "d(%s)" % u.render())
    return out


def _linear(syms) -> dict:
    """The sum of syms as a polynomial."""
    return {((s, 1),): 1 for s in syms}


def _over_one(poly: dict) -> tuple[dict, dict]:
    """A polynomial as a canonical pair."""
    return poly, {(): 1}


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
def _signature(spec: BundleSpec) -> tuple[dict, tuple[dict, ...], tuple[dict, dict]]:
    """The signature's record, built once: the collapse check on sum_J g_J u_J with opaque
    constants g_J, then pairing - p and P_j = h_j^0(pairing - p) as polynomials, for the
    default assignment, and that assignment's maps.  W2 and C_j are both
    X(L) - X(pairing - p), X the identity for W2 and h_j^0 for C_j."""
    catalog = build_catalog(spec)
    check_collapse(catalog, eadd(*[emul(Atom(field_sym("dL/d" + u.render(), mi.zero(spec.m), ())),
                                        Atom(u)) for u in catalog.jet_syms]))
    pairing = esub(pairing_phi(catalog), Atom(catalog.p))
    defaults = _default_maps(catalog)
    lifts = _reduced_lifts(catalog, *defaults)
    return (_polynomial(pairing), tuple(_polynomial(image) for image in
                                        _pairing_images(catalog, lifts, pairing)), defaults)


def _polynomial(e: Expr) -> dict:
    """e as a polynomial dict; minus_polynomial takes pairing - p and each P_j as one."""
    num, den = expand(e)
    if den != {(): 1}:
        raise InternalConsistencyError("%s is not a polynomial" % render(e))
    return num


def dynamical_equations(catalog: CoordCatalog, L: Expr,
                        table: Optional[Partials] = None) -> EquationSet:
    """The four equation families of L, into which i_h Omega_H0 = (m-1) Omega_H0 collapses."""
    _signature(catalog.spec)
    return EquationSet(equation_families(catalog, L, table).values())


def w2_constraint(catalog: CoordCatalog, L: Expr,
                  table: Optional[Partials] = None) -> EquationSet:
    """H0 = 0, fixing the scalar momentum: p = L - (pairing - p), from the signature's record."""
    _check_l_on_jets(catalog, L)
    pairing = _signature(catalog.spec)[0]
    table = Partials(L) if table is None else table
    return EquationSet([Equation(Atom(catalog.p), minus_polynomial(table.num, table.den, pairing),
                                 TAG_W2, "H0=0")])


def momentum_sum(u: Sym) -> Expr:
    """The momenta p^{I,i}_a with I + 1_i = J, summed in canonical form, for the jet u = u^a_J."""
    return tree_of(_over_one(_momenta(u)))


def _momenta(u: Sym) -> dict:
    """momentum_sum(u) as a polynomial."""
    return _linear(mom_sym(u.alpha, I, i) for I, i in mi.decompositions(u.index))


def top_partials(catalog: CoordCatalog, L: Expr) -> dict[Sym, Expr]:
    """dL/du_K for each top-order jet u_K in catalog order, zero ones included: W1's right sides.

    A partial from gradient does not depend on the other symbols requested, so
    each equals the W1 right side of equation_families."""
    _check_l_on_jets(catalog, L)
    tops = [u for u in catalog.jet_syms if sum(u.index) == catalog.k]
    dl = gradient(L, tops)
    return {u: dl.get(u, Const(0)) for u in tops}


def tangency_equations(catalog: CoordCatalog, L: Expr,
                       table: Optional[Partials] = None) -> EquationSet:
    """Conditions keeping the projector tangent to the top-order constraint set.

    Each lift h_j, with the default assignment, is applied to both sides of
    every W1 equation: the momentum sum goes to sum B^{I,i}_{a,j}, and
    dL/du_K, from L's table, to its image under h_j.
    """
    _check_l_on_jets(catalog, L)
    table = Partials(L) if table is None else table
    lifts = [_lift(catalog, j, True) for j in range(1, catalog.m + 1)]
    out = EquationSet()
    for u in catalog.jet_syms:
        if sum(u.index) == catalog.k:
            d = table.of(u)
            for j, h in enumerate(lifts, start=1):
                lhs = _linear(aux_b(I, i, u.alpha, j) for I, i in mi.decompositions(u.index))
                out.add(Equation(_over_one(lhs), table.reduce(table.derive(d, h)),
                                 TAG_TANGENCY, "d/dx[%d] of W1(%s)" % (j, u.render())))
    return out


def _default_a(catalog: CoordCatalog, u: Sym, j: int) -> Expr:
    """Default value of A^a_{J,j}, the u = u^a_J component of h_j: u^a_{J+1_j} below top order."""
    if sum(u.index) < catalog.k:
        return Atom(jet_sym(u.alpha, u.index.bump(j)))
    return Atom(aux_a(u.alpha, u.index, j))


def _lift(catalog: CoordCatalog, j: int, top: bool) -> Derivation:
    """h_j with the default assignment, as a derivation on functions of x and u;
    h_j^0, 0 on the top-order jets, when top is False."""
    return horizontal(j, lambda u: ((_default_a(catalog, u, j).sym, 1),)
                      if top or sum(u.index) < catalog.k else None)


def _default_maps(catalog: CoordCatalog) -> tuple[dict[Sym, Expr], dict[Sym, Expr]]:
    js = range(1, catalog.m + 1)
    a_map = {aux_a(u.alpha, u.index, j): _default_a(catalog, u, j)
             for u in catalog.jet_syms for j in js}
    b_map = {b: Atom(b) for s in catalog.mom_syms
             for b in (aux_b(s.index, s.i, s.alpha, j) for j in js)}
    return a_map, b_map


def default_projector_assignments(catalog: CoordCatalog) -> tuple[dict[Sym, Expr], dict[Sym, Expr]]:
    """Assignments (A, B): holonomy values for the determined A's, symbols elsewhere;
    fresh copies of the maps in the signature's record."""
    a_map, b_map = _signature(catalog.spec)[2]
    return dict(a_map), dict(b_map)


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
    """P_j: each lift applied to the pairing without p."""
    grad = gradient(pairing, catalog.coords)
    return [directional(h, grad) for h in lifts.values()]


def c_coefficients(catalog: CoordCatalog, L: Expr, a_assign: Mapping[Sym, Expr],
                   b_assign: Mapping[Sym, Expr], table: Optional[Partials] = None) -> list[Expr]:
    """Scalar-momentum coefficients C_j, free of top-order A symbols.

    C_j is minus h_j applied to the dynamical function H0 without its scalar
    momentum p (h_j[p] is the unknown C_j itself), with the given values for
    every A and B unknown of h_j and each top-order A_{K,j} on u_K set to 0
    (_reduced_lifts): C_j = h_j^0(L) - P_j with P_j = h_j^0(pairing - p).
    Under the default assignment these are default_c_sides as trees; other
    assignments take the lifts through the gradient of L along x and u.
    """
    pairing, _, defaults = _signature(catalog.spec)
    if (dict(a_assign), dict(b_assign)) == defaults:
        return [tree_of(c) for c in default_c_sides(catalog, L, table)]
    _check_l_on_jets(catalog, L)
    lifts = _reduced_lifts(catalog, a_assign, b_assign)
    grad = gradient(L, catalog.base_syms + catalog.jet_syms)
    return [normalize(esub(directional(h, grad), image))
            for h, image in zip(lifts.values(),
                                _pairing_images(catalog, lifts, tree_of(_over_one(pairing))))]


def default_c_sides(catalog: CoordCatalog, L: Expr,
                    table: Optional[Partials] = None) -> list[tuple[dict, dict]]:
    """C_j under the default assignment, as canonical pairs.  That assignment is
    0 on the top-order jets, so h_j^0 acts on L's table, and with n'/d' = h_j^0(L)
    reduced once, C_j = (n' - P_j d')/d' with P_j from the signature's record."""
    _check_l_on_jets(catalog, L)
    table = Partials(L) if table is None else table
    return [minus_polynomial(*table.reduce(table.derive(table.lagrangian(),
                                                        _lift(catalog, j, False))), image)
            for j, image in enumerate(_signature(catalog.spec)[1], start=1)]
