"""Formal total derivatives, the higher-order Euler-Lagrange operator, and the
independent first-variation (Gateaux) numeric oracle.

The oracle compares a complex-step derivative of the action under a
compactly supported variation against the quadrature of the Euler-Lagrange
expression times the variation, both on the same tensor-product
Gauss-Legendre grid on [0, 1]^m, checked against a grid of 2n-1 nodes per
axis.  L and the Euler-Lagrange components are compiled over the base
variables and the jets they read; a section reaches them only as its
compiled jets, taken as unexpanded trees from one table of x-derivatives per
component.  Each grid is evaluated as numpy arrays and summed with numpy.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Mapping, Optional, Sequence

import numpy as np

from . import multiindex as mi
from .errors import QuadratureError, UsageError
from .jetmodel import BundleSpec, SectionFn, section_jets
from .symexpr import (
    Atom,
    Expr,
    JET,
    ONE,
    Sym,
    base_sym,
    bind_values,
    compile_expr,
    directional,
    eadd,
    emul,
    eneg,
    epow,
    esub,
    free_syms,
    gradient,
    jet_order,
    jet_sym,
    normalize,
    substitute_fields,
)

# largest move of either oracle side from n to 2n-1 nodes per axis, relative to 1 + |refined|
REFINEMENT_TOL = 1e-4
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
    """Numeric Euler-Lagrange residuals of a section at a base point, read as by
    :func:`symexpr.evaluate` with every base variable given."""
    return list(_on_section(el.components, el.spec, s, bind_values(point, _base(el.spec)), fields))


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


def _grid(m: int, n_points: int):
    """Meshgrid of n Gauss-Legendre nodes per axis of [0, 1]^m and the weights' outer product."""
    nodes, weights = _gauss_legendre(n_points)
    points = list(np.meshgrid(*[0.5 + 0.5 * nodes] * m, indexing="ij"))
    return points, reduce(np.multiply.outer, [0.5 * weights] * m)


def bump_polynomial(spec: BundleSpec) -> Expr:
    """Product over axes of (x_i (1 - x_i))^k; flattens to order k-1 on the boundary of [0, 1]^m."""
    factors = []
    for i in range(1, spec.m + 1):
        x = Atom(base_sym(i))
        factors.append(epow(emul(x, esub(ONE, x)), spec.k))
    return emul(*factors)


def default_eps(action: float) -> float:
    """COMPLEX_STEP for any action: a step scaled by a large action overflowed the stepped jets."""
    return COMPLEX_STEP


def action_value(L: Expr, spec: BundleSpec, s: SectionFn, grid: int,
                 fields: Optional[Mapping[str, Expr]] = None) -> float:
    """The action of s on [0, 1]^m, summed over `grid` Gauss-Legendre nodes per axis.

    A non-finite value raises QuadratureError.
    """
    points, weights = _grid(spec.m, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _on_section([L], spec, s, points, fields)[0]
        return _finite(np.sum(weights * values), "action", grid)


def _finite(value, side: str, n_points: int) -> float:
    if not np.isfinite(value):
        raise QuadratureError("non-finite %s on the %d-node grid" % (side, n_points))
    return float(value)


def _base(spec: BundleSpec) -> list[Sym]:
    return [base_sym(i) for i in range(1, spec.m + 1)]


def _compiled_over_jets(exprs: Sequence[Expr], spec: BundleSpec,
                        fields: Optional[Mapping[str, Expr]]):
    """exprs with fields bound, compiled together over the base variables and the
    jets they read, and those jets in order."""
    if fields:
        exprs = [substitute_fields(e, fields) for e in exprs]
    jets = sorted(s for s in set().union(*map(free_syms, exprs)) if s.kind == JET)
    return compile_expr(exprs, _base(spec) + jets), jets


def _on_section(exprs: Sequence[Expr], spec: BundleSpec, s: SectionFn, x: list,
                fields: Optional[Mapping[str, Expr]]):
    """exprs at base values x (floats or equally shaped arrays), compiled over x and the
    jets they read, on the section s, which enters as its compiled jets."""
    fn, jets = _compiled_over_jets(exprs, spec, fields)
    sj = section_jets(s, spec, jets)
    return fn(x + list(compile_expr([sj[u] for u in jets], _base(spec))(x)))


def gateaux_oracle(L: Expr, spec: BundleSpec, s: SectionFn, psi: SectionFn,
                   grid: int, eps: float,
                   fields: Optional[Mapping[str, Expr]] = None) -> tuple[float, float]:
    """Numeric (action derivative, integrated EL pairing) for a compact variation.

    psi supplies the free polynomial part of the variation; the boundary bump
    is multiplied in here, so the vanishing conditions hold by construction.
    The action derivative is the complex step Im S[s + i eps psi] / eps, which
    has no subtractive cancellation; the pairing is sum_a EL_a (bump psi)_a.
    Both sides are summed over `grid` Gauss-Legendre nodes per axis of [0, 1]^m
    and must agree with their values on 2*grid-1 nodes (QuadratureError otherwise);
    the refined values are returned.  A non-finite side on either grid raises
    QuadratureError.  L and the EL components are compiled over x and the jets
    they read, and fed one compiled table per pair, evaluated on both grids:
    the jets of s that L and EL read, those of bump psi that L reads, and bump psi.
    """
    bump = bump_polynomial(spec)
    psi_eff = SectionFn([emul(bump, c) for c in psi.components])

    lfn, l_jets = _compiled_over_jets([L], spec, fields)
    el_at, el_jets = _compiled_over_jets(euler_lagrange(L, spec).components, spec, fields)
    s_jets = sorted(set(l_jets) | set(el_jets))
    sj, pj = section_jets(s, spec, s_jets), section_jets(psi_eff, spec, l_jets)
    table_at = compile_expr([sj[u] for u in s_jets] + [pj[u] for u in l_jets]
                            + list(psi_eff.components), _base(spec))

    def sides(n_points: int) -> tuple[float, float]:
        points, weights = _grid(spec.m, n_points)
        with np.errstate(over="ignore", invalid="ignore"):
            table = table_at(points)
            on_s = dict(zip(s_jets, table))
            varied = table[len(s_jets):]
            stepped = [on_s[u] + 1j * eps * pv for u, pv in zip(l_jets, varied)]
            lhs = np.sum(weights * np.imag(lfn(points + stepped)[0])) / eps
            el_values = el_at(points + [on_s[u] for u in el_jets])
            pairing = sum(e * v for e, v in zip(el_values, varied[len(l_jets):]))
            rhs = _finite(np.sum(weights * pairing), "EL pairing", n_points)
        return _finite(lhs, "action derivative", n_points), rhs

    (lhs_c, rhs_c), (lhs, rhs) = sides(grid), sides(2 * grid - 1)
    for coarse, refined, side in ((lhs_c, lhs, "action derivative"),
                                  (rhs_c, rhs, "EL pairing")):
        if abs(refined - coarse) > REFINEMENT_TOL * (1.0 + abs(refined)):
            raise QuadratureError(
                "grid too coarse for the %s: refinement moved %.3e" % (side, abs(refined - coarse)))
    return lhs, rhs


def relative_gap(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-12:
        return 0.0
    return abs(lhs - rhs) / scale
