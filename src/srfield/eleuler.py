"""Formal total derivatives, the higher-order Euler-Lagrange operator, and the
independent first-variation (Gateaux) numeric oracle.

The oracle compares a complex-step derivative of the action under a
compactly supported variation against the quadrature of the Euler-Lagrange
expression times the variation, both on the same tensor-product
Gauss-Legendre grid, checked against a grid of 2n-1 nodes per axis.  Each
grid is evaluated as numpy arrays by compiled expressions and summed with
numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
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

# largest move of either oracle side from n to 2n-1 nodes per axis, relative to 1 + |refined|
RICHARDSON_TOL = 1e-4
# step of the complex-step action derivative, which has no cancellation to scale it against
COMPLEX_STEP = 1e-20


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


@lru_cache(maxsize=None)
def _gauss_legendre(n_points: int):
    """Gauss-Legendre nodes and weights on [-1, 1] (Golub-Welsch), read-only.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence and the weights 2 v_0^2 from its unit eigenvectors; n nodes
    integrate polynomials up to degree 2n-1 exactly.
    """
    k = np.arange(1, n_points)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _grid(box, n_points: int):
    """Per-axis meshgrid of n Gauss-Legendre nodes in the box and the outer product of the weights."""
    nodes, weights = _gauss_legendre(n_points)
    centers = [(float(a) + float(b)) / 2.0 for a, b in box]
    halves = [(float(b) - float(a)) / 2.0 for a, b in box]
    points = list(np.meshgrid(*[c + h * nodes for c, h in zip(centers, halves)], indexing="ij"))
    return points, reduce(np.multiply.outer, [h * weights for h in halves])


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
    """COMPLEX_STEP for any action: a step scaled by a large action overflowed the stepped jets."""
    return COMPLEX_STEP


def action_value(L: Expr, spec: BundleSpec, s: SectionFn, grid: int,
                 box=None, fields: Optional[Mapping[str, Expr]] = None) -> float:
    """The action of s: L on its prolongation, summed over `grid` Gauss-Legendre nodes per axis.

    A non-finite value raises QuadratureError.
    """
    box = default_box(spec) if box is None else box
    L_eff = substitute_fields(L, fields) if fields else L
    lfn, jets = _compiled_lagrangian(L_eff, spec)
    sprol = prolong(s, spec.k, spec)
    points, weights = _grid(box, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        svals = compile_expr([sprol[u] for u in jets], _base(spec))(points)
        return _finite(np.sum(weights * lfn(points + list(svals))), "action", grid)


def _finite(value, side: str, n_points: int) -> float:
    if not np.isfinite(value):
        raise QuadratureError("non-finite %s on the %d-node grid" % (side, n_points))
    return float(value)


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
    The action derivative is the complex step Im S[s + i eps psi] / eps, which
    has no subtractive cancellation.  Both sides are summed over `grid`
    Gauss-Legendre nodes per axis and must agree with their values on 2*grid-1
    nodes (QuadratureError otherwise); the refined values are returned.  A
    non-finite side on either grid raises QuadratureError.  L, the
    prolongations and the EL integrand are compiled once and evaluated on both
    grids.
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
        with np.errstate(over="ignore", invalid="ignore"):
            # the pairing first, so that its grid is freed before the jets are made
            rhs = _finite(np.sum(weights * pairing_at(points)), "EL pairing", n_points)
            jet_values = jets_at(points)
            stepped = [sv + 1j * eps * pv
                       for sv, pv in zip(jet_values[:len(jets)], jet_values[len(jets):])]
            lhs = np.sum(weights * np.imag(lfn(points + stepped))) / eps
        return _finite(lhs, "action derivative", n_points), rhs

    (lhs_c, rhs_c), (lhs, rhs) = sides(grid), sides(2 * grid - 1)
    for coarse, refined, side in ((lhs_c, lhs, "action derivative"),
                                  (rhs_c, rhs, "EL pairing")):
        if abs(refined - coarse) > RICHARDSON_TOL * (1.0 + abs(refined)):
            raise QuadratureError(
                "grid too coarse for the %s: refinement moved %.3e" % (side, abs(refined - coarse)))
    return lhs, rhs


def relative_gap(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-12:
        return 0.0
    return abs(lhs - rhs) / scale
