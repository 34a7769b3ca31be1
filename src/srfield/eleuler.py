"""Formal total derivatives, the higher-order Euler-Lagrange operator, and the
independent first-variation (Gateaux) numeric oracle.

The oracle compares a central-difference derivative of the action under a
compactly supported variation against the quadrature of the Euler-Lagrange
expression times the variation, both on the same tensor-product composite
Simpson grid with a x2 refinement check.  Each grid is evaluated as numpy
arrays by compiled expressions and summed with numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional, Sequence

import numpy as np

from . import multiindex as mi
from .errors import QuadratureError, UsageError
from .jetmodel import BundleSpec, SectionFn, prolong
from .symexpr import (
    Atom,
    Const,
    Expr,
    JET,
    ONE,
    Sym,
    base_sym,
    compile_expr,
    directional,
    eadd,
    emul,
    eneg,
    epow,
    esub,
    evaluate,
    free_syms,
    gradient,
    jet_order,
    jet_sym,
    normalize,
    substitute,
    substitute_fields,
)

# largest move of either oracle side under the x2 grid refinement, relative to 1 + |refined|
RICHARDSON_TOL = 1e-4


def total_derivative(e: Expr, i: int, max_order: int) -> Expr:
    """Formal total derivative D_i, with the chain rule on external fields.

    D_i is the holonomic lift d/dx^i + sum of u^a_{J+1_i} d/du^a_J applied to
    e, base term first and the jets of e in sorted order.  The jet order of e
    must stay below max_order.
    """
    order = jet_order(e)
    if order >= max_order:
        raise UsageError("total derivative would exceed the order budget %d" % max_order)
    lift: dict[Sym, Expr] = {base_sym(i): ONE}
    for s in sorted(free_syms(e)):
        if s.kind == JET:
            lift[s] = Atom(jet_sym(s.alpha, s.index.bump(i)))
    return directional(lift, gradient(e, list(lift)))


def iterated_total_derivative(e: Expr, J: mi.MultiIndex) -> Expr:
    """D^J e, applying D_i in ascending direction order; order-independent up to equivalence."""
    out = e
    for i in range(1, len(J) + 1):
        for _ in range(J[i - 1]):
            out = total_derivative(out, i, jet_order(out) + 1)
    return out


class ELSystem:
    """Euler-Lagrange expressions per fiber index, over jets of order at most 2k."""

    def __init__(self, spec: BundleSpec, components: Sequence[Expr]):
        self.spec = spec
        self.components = tuple(components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, ix):
        return self.components[ix]

    def records(self) -> list[str]:
        from .symexpr import render
        return [render(c) for c in self.components]


def euler_lagrange(L: Expr, spec: BundleSpec) -> ELSystem:
    """Per fiber index: sum over |J| <= k of (-1)^|J| D^J (dL/du^a_J), normalized."""
    if jet_order(L) > spec.k:
        raise UsageError("Lagrangian order exceeds the signature's jet order")
    comps = []
    for alpha in range(1, spec.n + 1):
        jets = [jet_sym(alpha, J) for J in mi.enumerate_up_to(spec.m, spec.k)]
        parts = []
        for u, dl in gradient(L, jets).items():
            term = iterated_total_derivative(dl, u.index)
            parts.append(term if u.index.order % 2 == 0 else eneg(term))
        comps.append(normalize(eadd(*parts)))
    return ELSystem(spec, comps)


def residual_on_section(el: ELSystem, s: SectionFn, point: Mapping,
                        fields: Optional[Mapping[str, Expr]] = None) -> list[float]:
    """Numeric Euler-Lagrange residuals of a section at a base point."""
    subs = prolong(s, 2 * el.spec.k, el.spec)
    return evaluate([substitute(comp, subs) for comp in el.components], point, fields)


# ---------------------------------------------------------------------------
# Quadrature


def simpson_points_weights(n_points: int, a: float, b: float):
    """Composite Simpson nodes and weights on [a, b] with an odd point count."""
    if n_points < 3 or n_points % 2 == 0:
        raise UsageError("composite Simpson needs an odd number of points >= 3")
    h = (b - a) / (n_points - 1)
    pts = [a + h * ix for ix in range(n_points)]
    w = [1.0] * n_points
    for ix in range(1, n_points - 1):
        w[ix] = 4.0 if ix % 2 == 1 else 2.0
    return pts, [wi * h / 3.0 for wi in w]


def _grid(box, n_points: int):
    """Per-axis meshgrid of the Simpson nodes and the outer product of the weights."""
    axes = [simpson_points_weights(n_points, a, b) for a, b in box]
    points = list(np.meshgrid(*[np.array(pts) for pts, _ in axes], indexing="ij"))
    weights = reduce(np.multiply.outer, [np.array(ws) for _, ws in axes])
    return points, weights


def bump_polynomial(spec: BundleSpec, box) -> Expr:
    """Product over axes of ((x_i - a_i)(b_i - x_i))^k; flattens to order k-1 at the boundary."""
    factors = []
    for i, (a, b) in enumerate(box, start=1):
        x = Atom(base_sym(i))
        factors.append(epow(emul(esub(x, _as_const(a)), esub(_as_const(b), x)), spec.k))
    return emul(*factors)


def _as_const(x) -> Expr:
    return Const(Fraction(x).limit_denominator(10 ** 9))


def default_box(spec: BundleSpec):
    return tuple((0, 1) for _ in range(spec.m))


def default_eps(action: float) -> float:
    return 1e-4 * (1.0 + abs(action))


def action_value(L: Expr, spec: BundleSpec, s: SectionFn, grid: int,
                 box=None, fields: Optional[Mapping[str, Expr]] = None) -> float:
    box = default_box(spec) if box is None else box
    L_eff = substitute_fields(L, fields) if fields else L
    lfn, jets = _compiled_lagrangian(L_eff, spec)
    sprol = prolong(s, spec.k, spec)
    points, weights = _grid(box, grid)
    svals = compile_expr([sprol[u] for u in jets], _base(spec))(points)
    return float(np.sum(weights * lfn(points + list(svals))))


def _base(spec: BundleSpec) -> list[Sym]:
    return [base_sym(i) for i in range(1, spec.m + 1)]


def _compiled_lagrangian(L_eff: Expr, spec: BundleSpec):
    """L compiled over the base variables and its jets, and those jets in order."""
    jets = sorted(s for s in free_syms(L_eff) if s.kind == JET)
    return compile_expr(L_eff, _base(spec) + jets), jets


def gateaux_oracle(L: Expr, spec: BundleSpec, s: SectionFn, psi: SectionFn,
                   grid: int, eps: float, box=None,
                   fields: Optional[Mapping[str, Expr]] = None) -> tuple[float, float]:
    """Numeric (action derivative, integrated EL pairing) for a compact variation.

    psi supplies the free polynomial part of the variation; the boundary bump
    is multiplied in here, so the vanishing conditions hold by construction.
    Both sides use composite Simpson on `grid` points per axis and must agree
    with their x2-refined counterparts (QuadratureError otherwise); the
    refined values are returned.  L, the prolongations and the EL integrand
    are compiled once and evaluated on both grids.
    """
    box = default_box(spec) if box is None else box
    L_eff = substitute_fields(L, fields) if fields else L
    bump = bump_polynomial(spec, box)
    psi_eff = SectionFn([emul(bump, c) for c in psi.components])

    sprol = prolong(s, 2 * spec.k, spec)
    pprol = prolong(psi_eff, spec.k, spec)

    el = euler_lagrange(L, spec)
    integrand_parts = []
    for alpha in range(1, spec.n + 1):
        comp = substitute_fields(el[alpha - 1], fields) if fields else el[alpha - 1]
        comp_on_s = substitute(comp, sprol)
        integrand_parts.append(emul(comp_on_s, psi_eff[alpha - 1]))
    el_integrand = eadd(*integrand_parts)

    lfn, jets = _compiled_lagrangian(L_eff, spec)
    jets_at = compile_expr([sprol[u] for u in jets] + [pprol[u] for u in jets], _base(spec))
    pairing_at = compile_expr(el_integrand, _base(spec))

    def sides(n_points: int) -> tuple[float, float]:
        points, weights = _grid(box, n_points)
        # the pairing first, so that its grid is freed before the jets are made
        rhs = float(np.sum(weights * pairing_at(points)))
        jet_values = jets_at(points)
        svals, pvals = jet_values[:len(jets)], jet_values[len(jets):]
        plus, minus = (float(np.sum(weights * lfn(points + [sv + e * pv
                                                            for sv, pv in zip(svals, pvals)])))
                       for e in (eps, -eps))
        return (plus - minus) / (2.0 * eps), rhs

    (lhs_c, rhs_c), (lhs_f, rhs_f) = sides(grid), sides(2 * grid - 1)
    for coarse, refined, side in ((lhs_c, lhs_f, "action derivative"),
                                  (rhs_c, rhs_f, "EL pairing")):
        if abs(refined - coarse) > RICHARDSON_TOL * (1.0 + abs(refined)):
            raise QuadratureError(
                "grid too coarse for the %s: refinement moved %.3e" % (side, abs(refined - coarse)))
    # Simpson converges at h^4: the x2 refinement supports one Richardson step.
    lhs = lhs_f + (lhs_f - lhs_c) / 15.0
    rhs = rhs_f + (rhs_f - rhs_c) / 15.0
    return lhs, rhs


def relative_gap(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-12:
        return 0.0
    return abs(lhs - rhs) / scale
