"""Assembly of the dynamical form and mechanical extraction of its equation families.

The central routine contracts a fully generic projector template into the
premultisymplectic form and collects coefficients monomial by monomial.  The
grouped families (holonomy conditions on the A's, the trace and middle
momentum relations, the top-order constraint) are then pattern-matched against
the collected coefficients; any mismatch or unexpected monomial is an internal
consistency error, never a silent fallback.  The gauge freedom in splitting
individual momenta never enters: grouping by monomial yields the gauge-free
equations directly.
"""

from __future__ import annotations

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
from .extalg import (
    Form,
    ProjectorTemplate,
    VecField,
    collect,
    contract_projector,
    dm1x,
    exterior_d,
    one_form,
    scalar_form,
    volume_form,
    wedge,
)
from .jetmodel import CoordCatalog, pairing_phi
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
    eadd,
    emul,
    eneg,
    esub,
    free_syms,
    is_syntactic_zero,
    is_zero,
    jet_sym,
    mom_sym,
    normalize,
    partial,
    render,
    substitute,
)


def _check_l_on_jets(catalog: CoordCatalog, L: Expr) -> None:
    for s in free_syms(L):
        if s.kind in (MOMENTUM, PSCALAR):
            raise UsageError("Lagrangian must not reference momentum coordinates (%s)"
                             % s.render())
        if s.kind == JET and sum(s.index) > catalog.k:
            raise UsageError("Lagrangian references jet order above k: %s" % s.render())


def hamiltonian_h0(catalog: CoordCatalog, L: Expr) -> Expr:
    """The dynamical function: pairing minus Lagrangian, in coordinates."""
    _check_l_on_jets(catalog, L)
    return esub(pairing_phi(catalog), L)


def omega_h0(catalog: CoordCatalog, L: Expr) -> Form:
    """Premultisymplectic (m+1)-form: canonical form plus dH0 wedge volume."""
    _check_l_on_jets(catalog, L)
    vol = volume_form(catalog)
    omega = wedge(one_form(catalog, catalog.p), vol).scale(Const(-1))
    for s in catalog.mom_syms:
        term = wedge(
            wedge(one_form(catalog, s), one_form(catalog, jet_sym(s.alpha, s.index))),
            dm1x(catalog, s.i),
        )
        omega = omega + term.scale(Const(-1))
    h0 = hamiltonian_h0(catalog, L)
    return omega + wedge(exterior_d(scalar_form(catalog, h0)), vol)


def projector_template(catalog: CoordCatalog) -> ProjectorTemplate:
    """Generic horizontal projector with fresh unknowns A, B, C, disjoint from the catalog."""
    lifts = {}
    unknowns: list[Sym] = []
    for j in range(1, catalog.m + 1):
        comps: dict[Sym, Expr] = {catalog.base_syms[j - 1]: Const(1)}
        for s in catalog.jet_syms:
            a = aux_a(s.alpha, s.index, j)
            comps[s] = Atom(a)
            unknowns.append(a)
        for s in catalog.mom_syms:
            b = aux_b(s.index, s.i, s.alpha, j)
            comps[s] = Atom(b)
            unknowns.append(b)
        c = aux_c(j)
        comps[catalog.p] = Atom(c)
        unknowns.append(c)
        lifts[j] = VecField(catalog, comps)
    return ProjectorTemplate(catalog, lifts, unknowns)


def _expected_coefficient(catalog: CoordCatalog, L: Expr, sym: Sym) -> Expr:
    """Displayed coefficient of d(sym) wedge d^m x in the collapsed dynamical form."""
    k = catalog.k
    if sym.kind == MOMENTUM:
        return esub(Atom(jet_sym(sym.alpha, sym.index.bump(sym.i))),
                    Atom(aux_a(sym.alpha, sym.index, sym.i)))
    if sym.kind == JET:
        parts = []
        order = sum(sym.index)
        if order <= k - 1:
            for i in range(1, catalog.m + 1):
                parts.append(Atom(aux_b(sym.index, i, sym.alpha, i)))
        if order >= 1:
            for I, i in mi.decompositions(sym.index):
                parts.append(Atom(mom_sym(sym.alpha, I, i)))
        parts.append(eneg(partial(L, sym)))
        return eadd(*parts)
    if sym.kind == PSCALAR:
        return Const(0)
    raise InternalConsistencyError("unexpected coordinate kind in dynamical form: %s"
                                   % sym.render())


def dynamical_equations(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """Collect i_h Omega_H0 - (m-1) Omega_H0 and group it into the four equation families.

    The coefficient extraction is mechanical; the grouped result is verified
    coefficient-by-coefficient against the collapsed display before the tagged
    equations are emitted.
    """
    _check_l_on_jets(catalog, L)
    m = catalog.m
    om = omega_h0(catalog, L)
    h = projector_template(catalog)
    diff = contract_projector(om, h) - om.scale(Const(m - 1))
    coll = collect(diff)

    base = tuple(catalog.base_syms)
    sign = Const(1 if m % 2 == 0 else -1)
    seen: set[Sym] = set()
    for mono, coef in coll.items():
        extras = [s for s in mono if s.kind != BASE]
        if len(extras) != 1 or tuple(s for s in mono if s.kind == BASE) != base:
            raise InternalConsistencyError(
                "unexpected monomial in dynamical form: %s" % "^".join(s.render() for s in mono))
        c = extras[0]
        displayed = emul(sign, coef)
        expected = _expected_coefficient(catalog, L, c)
        if not is_zero(esub(displayed, expected)):
            raise InternalConsistencyError(
                "coefficient mismatch on d(%s): got %s, expected %s"
                % (c.render(), render(normalize(displayed)), render(normalize(expected))))
        seen.add(c)
    for c in catalog.jet_syms + catalog.mom_syms:
        if c not in seen and not is_zero(_expected_coefficient(catalog, L, c)):
            raise InternalConsistencyError("missing dynamical coefficient on d(%s)" % c.render())

    out = EquationSet()
    for s in catalog.mom_syms:
        out.add(Equation(
            Atom(aux_a(s.alpha, s.index, s.i)),
            Atom(jet_sym(s.alpha, s.index.bump(s.i))),
            TAG_A,
            "d(%s)" % s.render(),
        ))
    for alpha in range(1, catalog.n + 1):
        u0 = jet_sym(alpha, mi.zero(m))
        lhs = eadd(*[Atom(aux_b(mi.zero(m), i, alpha, i)) for i in range(1, m + 1)])
        out.add(Equation(lhs, normalize(partial(L, u0)), TAG_B_TRACE, "d(%s)" % u0.render()))
    for alpha in range(1, catalog.n + 1):
        for l in range(1, catalog.k):
            for J in mi.enumerate_indices(m, l):
                uj = jet_sym(alpha, J)
                lhs = eadd(*[Atom(mom_sym(alpha, I, i)) for I, i in mi.decompositions(J)])
                rhs = esub(partial(L, uj),
                           eadd(*[Atom(aux_b(J, j, alpha, j)) for j in range(1, m + 1)]))
                out.add(Equation(lhs, normalize(rhs), TAG_B_MIDDLE, "d(%s)" % uj.render()))
    for alpha in range(1, catalog.n + 1):
        for K in mi.enumerate_indices(m, catalog.k):
            uk = jet_sym(alpha, K)
            lhs = eadd(*[Atom(mom_sym(alpha, I, i)) for I, i in mi.decompositions(K)])
            out.add(Equation(lhs, normalize(partial(L, uk)), TAG_W1, "d(%s)" % uk.render()))
    return out


def w2_constraint(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """The single equation fixing the scalar momentum: dynamical function equal to zero."""
    _check_l_on_jets(catalog, L)
    rhs = esub(L, eadd(*[
        emul(Atom(s), Atom(jet_sym(s.alpha, s.index.bump(s.i))))
        for s in catalog.mom_syms
    ]))
    out = EquationSet()
    out.add(Equation(Atom(catalog.p), normalize(rhs), TAG_W2, "H0=0"))
    return out


def tangency_equations(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """Conditions keeping the projector tangent to the top-order constraint set."""
    _check_l_on_jets(catalog, L)
    m, n, k = catalog.m, catalog.n, catalog.k
    out = EquationSet()
    for alpha in range(1, n + 1):
        for K in mi.enumerate_indices(m, k):
            uk = jet_sym(alpha, K)
            dk = partial(L, uk)
            for j in range(1, m + 1):
                lhs = eadd(*[Atom(aux_b(I, i, alpha, j)) for I, i in mi.decompositions(K)])
                parts = [partial(dk, catalog.base_syms[j - 1])]
                for beta in range(1, n + 1):
                    for I in mi.enumerate_up_to(m, k - 1):
                        second = partial(dk, jet_sym(beta, I))
                        if not is_syntactic_zero(second):
                            parts.append(emul(Atom(jet_sym(beta, I.bump(j))), second))
                    for J in mi.enumerate_indices(m, k):
                        second = partial(dk, jet_sym(beta, J))
                        if not is_syntactic_zero(second):
                            parts.append(emul(Atom(aux_a(beta, J, j)), second))
                out.add(Equation(lhs, normalize(eadd(*parts)), TAG_TANGENCY,
                                 "d/dx[%d] of W1(%s)" % (j, uk.render())))
    return out


def default_projector_assignments(catalog: CoordCatalog) -> tuple[dict[Sym, Expr], dict[Sym, Expr]]:
    """Assignments (A, B): holonomy values for the determined A's, symbols elsewhere."""
    a_map: dict[Sym, Expr] = {}
    for alpha in range(1, catalog.n + 1):
        for J in mi.enumerate_up_to(catalog.m, catalog.k):
            for j in range(1, catalog.m + 1):
                sym = aux_a(alpha, J, j)
                if sum(J) <= catalog.k - 1:
                    a_map[sym] = Atom(jet_sym(alpha, J.bump(j)))
                else:
                    a_map[sym] = Atom(sym)
    b_map: dict[Sym, Expr] = {}
    for s in catalog.mom_syms:
        for j in range(1, catalog.m + 1):
            sym = aux_b(s.index, s.i, s.alpha, j)
            b_map[sym] = Atom(sym)
    return a_map, b_map


def c_coefficients(catalog: CoordCatalog, L: Expr,
                   a_assign: Mapping[Sym, Expr], b_assign: Mapping[Sym, Expr]) -> list[Expr]:
    """Scalar-momentum coefficients C_j, reduced so no top-order A symbol survives.

    Requires a value for every A and B unknown (top-order A's may map to
    themselves).  The top-order A terms must cancel against the top-order
    constraint: in the unnormalized sum for C_j, each one's coefficient (with
    the A's checked before it set to 0) is verified to equal that constraint's
    residual, anything else is an internal error.  The sum with those A's set
    to 0 is then normalized once; the canonical form is unique, so this is the
    same as normalizing first and dropping the A's one at a time.
    """
    _check_l_on_jets(catalog, L)
    m, n, k = catalog.m, catalog.n, catalog.k

    def value(assign: Mapping[Sym, Expr], sym: Sym) -> Expr:
        if sym not in assign:
            raise UsageError("%s assignment missing %s" % (sym.name, sym.render()))
        return assign[sym]

    dl = {(alpha, J): partial(L, jet_sym(alpha, J))
          for alpha in range(1, n + 1) for J in mi.enumerate_up_to(m, k)}
    out: list[Expr] = []
    for j in range(1, m + 1):
        parts = [partial(L, catalog.base_syms[j - 1])]
        for (alpha, J), d in dl.items():
            if not is_syntactic_zero(d):
                parts.append(emul(value(a_assign, aux_a(alpha, J, j)), d))
        for s in catalog.mom_syms:
            top = jet_sym(s.alpha, s.index.bump(s.i))
            parts.append(eneg(emul(value(a_assign, aux_a(s.alpha, top.index, j)), Atom(s))))
            parts.append(eneg(emul(value(b_assign, aux_b(s.index, s.i, s.alpha, j)), Atom(top))))
        part_syms = [free_syms(t) for t in parts]
        checked: dict[Sym, Expr] = {}
        for alpha in range(1, n + 1):
            for K in mi.enumerate_indices(m, k):
                sym = aux_a(alpha, K, j)
                terms = [t for t, fs in zip(parts, part_syms) if sym in fs]
                if not terms:
                    continue
                coeff = substitute(partial(eadd(*terms), sym), checked)
                w1_gap = esub(dl[alpha, K], eadd(*[Atom(mom_sym(alpha, I, i))
                                                   for I, i in mi.decompositions(K)]))
                # an A that cancels within the sum itself is absent from C_j
                if not is_zero(esub(coeff, w1_gap)) and not is_zero(coeff):
                    raise InternalConsistencyError(
                        "top-order A coefficient in C_%d does not match the W1 residual" % j)
                checked[sym] = Const(0)
        cj = normalize(substitute(eadd(*parts), checked))
        leftover = [s for s in free_syms(cj)
                    if s.kind == AUX and s.name == "A" and sum(s.index) == k]
        if leftover:
            raise InternalConsistencyError(
                "residual top-order A symbol %s in C_%d" % (leftover[0].render(), j))
        out.append(cj)
    return out
