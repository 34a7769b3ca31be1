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
W1 sides are partials reduced once, the tangency sides are the default lift h_j,
with the top-order A's, applied to the top-order partials and reduced once, and
h_j^0(L) is reduced once to n'/d'.  The same derivation h_j^0 gives P_j from
pairing - p.  W2 = (n - pairing d)/d and C_j = (n' - P_j d')/d' then take no
gcd, since gcd(n - P d, d) = gcd(n, d) = 1.
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
    constants g_J, then pairing - p and P_j = h_j^0(pairing - p) as polynomials, h_j^0
    C_j's derivation (_lift), and the default assignment's maps.  W2 and C_j are both
    X(L) - X(pairing - p), X the identity for W2 and h_j^0 for C_j."""
    catalog = build_catalog(spec)
    check_collapse(catalog, eadd(*[emul(Atom(field_sym("dL/d" + u.render(), mi.zero(spec.m), ())),
                                        Atom(u)) for u in catalog.jet_syms]))
    pairing = expand(esub(pairing_phi(catalog), Atom(catalog.p)))[0]
    return (pairing, tuple(_lift(catalog, j, False).apply(pairing)
                           for j in range(1, spec.m + 1)), _default_maps(catalog))


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
                out.add(Equation(_over_one(h.apply(_momenta(u))), table.reduce(table.derive(d, h)),
                                 TAG_TANGENCY, "d/dx[%d] of W1(%s)" % (j, u.render())))
    return out


def _default_a(catalog: CoordCatalog, u: Sym, j: int) -> Expr:
    """Default value of A^a_{J,j}, the u = u^a_J component of h_j: u^a_{J+1_j} below top order."""
    if sum(u.index) < catalog.k:
        return Atom(jet_sym(u.alpha, u.index.bump(j)))
    return Atom(aux_a(u.alpha, u.index, j))


def _lift(catalog: CoordCatalog, j: int, top: bool) -> Derivation:
    """h_j with the default assignment, as a derivation on functions of x, u and the
    momenta, each p^{I,i}_a to B^{I,i}_{a,j}; h_j^0, 0 on the top-order jets, when top
    is False.  h_j^0 is the general holonomic lift: the family A = u_{I+1_i} fixes every
    lower-order A, and each top-order A_{K,j} multiplies the W1 residual of u_K, so C_j
    for other B values is the default C_j with those values substituted."""
    rule = horizontal(j, lambda u: ((_default_a(catalog, u, j).sym, 1),)
                      if top or sum(u.index) < catalog.k else None).rule
    return Derivation(lambda s: ((aux_b(s.index, s.i, s.alpha, j), 1),)
                      if s.kind == MOMENTUM else rule(s))


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


def c_coefficients(catalog: CoordCatalog, L: Expr, a_assign: Mapping[Sym, Expr],
                   b_assign: Mapping[Sym, Expr], table: Optional[Partials] = None) -> list[Expr]:
    """Scalar-momentum coefficients C_j, free of top-order A symbols: default_c_sides
    as trees.  C_j is minus h_j applied to the dynamical function H0 without its
    scalar momentum p (h_j[p] is the unknown C_j itself), each top-order A_{K,j} on
    u_K set to 0: C_j = h_j^0(L) - P_j.  The maps must be the default assignment's;
    C_j for other B values is the default C_j with those values substituted (_lift).
    """
    if (dict(a_assign), dict(b_assign)) != _signature(catalog.spec)[2]:
        raise UsageError("c_coefficients takes the default assignment's maps; substitute "
                         "other B values into the default C_j")
    return [tree_of(c) for c in default_c_sides(catalog, L, table)]


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
