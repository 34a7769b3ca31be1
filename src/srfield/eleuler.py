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
    base_sym,
    compile_expr,
    eadd,
    emul,
    eneg,
    epow,
    esub,
    evaluate,
    free_syms,
    is_syntactic_zero,
    jet_order,
    jet_sym,
    normalize,
    partial,
    substitute,
    substitute_fields,
)


def total_derivative(e: Expr, i: int, max_order: int) -> Expr:
    """Formal total derivative D_i, with the chain rule on external fields.

    D_i e = d e/d x^i + sum over jets u^a_J with |J| < max_order of
    u^a_{J+1_i} * d e/d u^a_J.  The jet order of e must stay below max_order.
    """
    order = jet_order(e)
    if order >= max_order:
        raise UsageError("total derivative would exceed the order budget %d" % max_order)
    parts = [partial(e, base_sym(i))]
    for s in sorted(free_syms(e)):
        if s.kind != JET:
            continue
        de = partial(e, s)
        if is_syntactic_zero(de):
            continue
        parts.append(emul(Atom(jet_sym(s.alpha, s.index.bump(i))), de))
    return eadd(*parts)


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
        parts = []
        for J in mi.enumerate_up_to(spec.m, spec.k):
            dl = partial(L, jet_sym(alpha, J))
            if is_syntactic_zero(dl):
                continue
            term = iterated_total_derivative(dl, J)
            parts.append(term if J.order % 2 == 0 else eneg(term))
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
    sprol = prolong(s, spec.k, spec)
    return _action_on_grid(L_eff, spec, sprol, None, (0.0,), grid, box)[0]


def _compiled_grid_values(exprs: Sequence[Expr], spec: BundleSpec, points) -> tuple:
    """Values of expressions in the base variables on a whole grid, from one call."""
    return compile_expr(exprs, [base_sym(i) for i in range(1, spec.m + 1)])(points)


def _action_on_grid(L_eff: Expr, spec: BundleSpec, sprol, pprol, epsilons: Sequence[float],
                    n_points: int, box) -> list[float]:
    """Simpson actions of the section shifted by eps times the variation, one per eps."""
    points, weights = _grid(box, n_points)
    jets = sorted(s for s in free_syms(L_eff) if s.kind == JET)
    base = [base_sym(i) for i in range(1, spec.m + 1)]
    lfn = compile_expr(L_eff, base + jets)
    svals = _compiled_grid_values([sprol[s] for s in jets], spec, points)
    if pprol is None:
        return [float(np.sum(weights * lfn(points + list(svals))))]
    pvals = _compiled_grid_values([pprol[s] for s in jets], spec, points)
    return [float(np.sum(weights * lfn(points + [sv + eps * pv for sv, pv in zip(svals, pvals)])))
            for eps in epsilons]


def gateaux_oracle(L: Expr, spec: BundleSpec, s: SectionFn, psi: SectionFn,
                   grid: int, eps: float, box=None,
                   fields: Optional[Mapping[str, Expr]] = None,
                   richardson_tol: float = 1e-4) -> tuple[float, float]:
    """Numeric (action derivative, integrated EL pairing) for a compact variation.

    psi supplies the free polynomial part of the variation; the boundary bump
    is multiplied in here, so the vanishing conditions hold by construction.
    Both sides use composite Simpson on `grid` points per axis and must agree
    with their x2-refined counterparts (QuadratureError otherwise); the
    refined values are returned.
    """
    box = default_box(spec) if box is None else box
    L_eff = substitute_fields(L, fields) if fields else L
    bump = bump_polynomial(spec, box)
    psi_eff = SectionFn([emul(bump, c) for c in psi.components])

    sprol_k = prolong(s, spec.k, spec)
    pprol_k = prolong(psi_eff, spec.k, spec)

    el = euler_lagrange(L, spec)
    sprol_2k = prolong(s, 2 * spec.k, spec)
    integrand_parts = []
    for alpha in range(1, spec.n + 1):
        comp = substitute_fields(el[alpha - 1], fields) if fields else el[alpha - 1]
        comp_on_s = substitute(comp, sprol_2k)
        integrand_parts.append(emul(comp_on_s, psi_eff[alpha - 1]))
    el_integrand = eadd(*integrand_parts)

    def lhs_at(n_points: int) -> float:
        plus, minus = _action_on_grid(L_eff, spec, sprol_k, pprol_k, (eps, -eps), n_points, box)
        return (plus - minus) / (2.0 * eps)

    def rhs_at(n_points: int) -> float:
        points, weights = _grid(box, n_points)
        return float(np.sum(weights * _compiled_grid_values([el_integrand], spec, points)[0]))

    fine = 2 * grid - 1
    lhs_c, lhs_f = lhs_at(grid), lhs_at(fine)
    rhs_c, rhs_f = rhs_at(grid), rhs_at(fine)
    for coarse, refined, side in ((lhs_c, lhs_f, "action derivative"),
                                  (rhs_c, rhs_f, "EL pairing")):
        if abs(refined - coarse) > richardson_tol * (1.0 + abs(refined)):
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
