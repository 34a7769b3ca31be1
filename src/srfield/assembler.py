"""Assembly of the dynamical form and mechanical extraction of its equation families.

The central routine contracts a fully generic projector template into the
premultisymplectic form and collects coefficients monomial by monomial.  Each
equation family (holonomy conditions on the A's, the trace and middle
momentum relations, the top-order constraint W1) is defined once, in closed
form, and checked against the collected coefficients; any mismatch or
unexpected monomial is an internal consistency error, never a silent
fallback.  The gauge freedom in splitting individual momenta never enters:
grouping by monomial yields the gauge-free equations directly.  The dynamical
form is written term by term into one form, its dH0 part from the gradient of
the dynamical function H0.  The tangency conditions and the scalar-momentum
coefficients C_j are the template's lifts h_j applied, through that same chain
rule (symexpr.gradient, one sweep for all directions), to W1 and to H0.
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
from .extalg import Form, collect, contract_projector, dm1x
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
    directional,
    eadd,
    emul,
    eneg,
    esub,
    free_syms,
    gradient,
    is_zero,
    jet_sym,
    mom_sym,
    normalize,
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
    """Premultisymplectic (m+1)-form: canonical form plus dH0 wedge volume.

    Built in one form: -dp ^ d^m x, then -dp^{I,i} ^ du_I ^ d^{m-1}x_i for
    each momentum, then dH0 ^ d^m x term by term from the gradient of H0.
    """
    _check_l_on_jets(catalog, L)
    base = tuple(catalog.base_syms)
    omega = Form(catalog, catalog.m + 1)
    omega.add_word((catalog.p,) + base, Const(-1))
    faces = {i: dm1x(catalog, i).terms for i in range(1, catalog.m + 1)}
    for s in catalog.mom_syms:
        for face, coef in faces[s.i].items():
            omega.add_word((s, jet_sym(s.alpha, s.index)) + face, eneg(coef))
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


def _assigned_lifts(catalog: CoordCatalog, a_assign: Mapping[Sym, Expr],
                    b_assign: Mapping[Sym, Expr]) -> dict[int, dict[Sym, Expr]]:
    """Components of the template's lifts h_j with its A and B unknowns given values."""
    assign = {"A": a_assign, "B": b_assign}

    def value(comp: Expr) -> Expr:
        unknown = comp.sym if isinstance(comp, Atom) else None
        if unknown is None or unknown.name not in assign:
            return comp
        if unknown not in assign[unknown.name]:
            raise UsageError("%s assignment missing %s" % (unknown.name, unknown.render()))
        return assign[unknown.name][unknown]

    return {j: {s: value(comp) for s, comp in h.items()}
            for j, h in projector_template(catalog).items()}


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
                moms = eadd(*[Atom(mom_sym(alpha, I, i)) for I, i in mi.decompositions(J)])
                bs = eadd(*[Atom(aux_b(J, i, alpha, i)) for i in range(1, m + 1)])
                lhs, rhs, tag = ((bs, d, TAG_B_TRACE) if sum(J) == 0 else
                                 (moms, esub(d, bs), TAG_B_MIDDLE) if sum(J) < k else
                                 (moms, d, TAG_W1))
                out[u] = Equation(lhs, rhs, tag, "d(%s)" % u.render())
    return out


def dynamical_equations(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """Collect i_h Omega_H0 - (m-1) Omega_H0 and group it into the four equation families.

    The coefficient extraction is mechanical; each collected coefficient is
    verified against the residual of its family's equation, and those same
    equations are emitted.
    """
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


def w2_constraint(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """The single equation fixing the scalar momentum: dynamical function equal to zero."""
    rhs = esub(Atom(catalog.p), hamiltonian_h0(catalog, L))
    return EquationSet([Equation(Atom(catalog.p), normalize(rhs), TAG_W2, "H0=0")])


def tangency_equations(catalog: CoordCatalog, L: Expr) -> EquationSet:
    """Conditions keeping the projector tangent to the top-order constraint set.

    Each lift h_j, with the holonomy values for the lower-order A's, is applied
    to both sides of every W1 equation.
    """
    lifts = _assigned_lifts(catalog, *default_projector_assignments(catalog))
    out = EquationSet()
    for u, eq in equation_families(catalog, L).items():
        if eq.tag != TAG_W1:
            continue
        lhs, rhs = gradient(eq.lhs, catalog.coords), gradient(eq.rhs, catalog.coords)
        for j, h in lifts.items():
            out.add(Equation(directional(h, lhs), normalize(directional(h, rhs)), TAG_TANGENCY,
                             "d/dx[%d] of W1(%s)" % (j, u.render())))
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

    C_j is minus h_j applied to the dynamical function H0 without its
    scalar momentum p (h_j[p] is the unknown C_j itself), with the given
    values for every A and B unknown of h_j (top-order A's may map to
    themselves).  The top-order A terms must cancel against the top-order
    constraint: in the unnormalized sum h_j H0, each one's coefficient (with
    the A's checked before it set to 0) is verified to equal that
    constraint's W1 residual, anything else is an internal error.  The sum
    with those A's set to 0 is then normalized once; the canonical form is
    unique, so this is the same as normalizing first and dropping the A's
    one at a time.
    """
    grad = gradient(hamiltonian_h0(catalog, L), catalog.coords)
    del grad[catalog.p]
    lifts = _assigned_lifts(catalog, a_assign, b_assign)
    w1 = [(u, eq) for u, eq in equation_families(catalog, L).items() if eq.tag == TAG_W1]
    out: list[Expr] = []
    for j, h in lifts.items():
        raw = directional(h, grad)
        tops = [aux_a(u.alpha, u.index, j) for u, _ in w1]
        coeffs = gradient(raw, tops)
        checked: dict[Sym, Expr] = {}
        for sym, (_, eq) in zip(tops, w1):
            if sym not in coeffs:
                continue
            coeff = substitute(coeffs[sym], checked)
            # an A that cancels within the sum itself is absent from C_j
            if not is_zero(esub(coeff, eq.residual())) and not is_zero(coeff):
                raise InternalConsistencyError(
                    "top-order A coefficient in C_%d does not match the W1 residual" % j)
            checked[sym] = Const(0)
        cj = normalize(eneg(substitute(raw, checked)))
        leftover = [s for s in free_syms(cj)
                    if s.kind == AUX and s.name == "A" and sum(s.index) == catalog.k]
        if leftover:
            raise InternalConsistencyError(
                "residual top-order A symbol %s in C_%d" % (leftover[0].render(), j))
        out.append(cj)
    return out
