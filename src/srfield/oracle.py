"""The independent first-variation (Gateaux) numeric oracle.

The oracle compares a complex-step derivative of the action under a
compactly supported variation against the quadrature of the Euler-Lagrange
expression times the variation, both on the same tensor-product
Gauss-Legendre grid on [0, 1]^m, checked against a grid of 2n-1 nodes per
axis, with nodes polished by Newton steps on P_n.  L and the Euler-Lagrange
components are compiled once per problem over the base variables and the
jets they read.  A section reaches them as its jets, all read off one
truncated Taylor expansion (:class:`Taylor`) per grid point, with no
derivative tree to build.  A drawn section or variation, a canonical
polynomial, enters by its coefficients: its Taylor rows on a slab of points
are one matrix product of its exact shift matrix with the slab's monomials.
Any other section, and the bump, is compiled once and evaluated by truncated
Taylor arithmetic.  Each grid is evaluated as numpy arrays and summed with
numpy, which only this module and :mod:`srfield.analysis` import."""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import comb, prod
from operator import sub
from typing import Mapping, Optional, Sequence

import numpy as np

from . import multiindex as mi
from .eleuler import ELSystem, euler_lagrange
from .errors import EvalDomainError, QuadratureError, UsageError
from .jetmodel import BundleSpec, SectionFn
from .symexpr import (
    Add,
    Atom,
    Const,
    Expr,
    JET,
    Mul,
    ONE,
    Pow,
    Sym,
    base_sym,
    bind_values,
    compile_expr,
    emul,
    epow,
    esub,
    free_syms,
    substitute_fields,
)

# largest move of either oracle side from n to 2n-1 nodes per axis, relative to 1 + |refined|
REFINEMENT_TOL = 1e-4
# step of the complex-step action derivative, which has no cancellation to scale it against
COMPLEX_STEP = 1e-20
# points per slab of a grid's first axis, evaluated at a time to bound the Taylor tables' memory
SLAB_POINTS = 1024

def residual_on_section(el: ELSystem, s: SectionFn, point: Mapping,
                        fields: Optional[Mapping[str, Expr]] = None) -> list[float]:
    """Numeric Euler-Lagrange residuals of a section at a base point, read as by
    :func:`symexpr.evaluate` with every base variable given."""
    return list(_on_section(el.components, el.spec, s, bind_values(point, _base(el.spec)), fields))


# ---------------------------------------------------------------------------
# Taylor jets


@lru_cache(maxsize=None)
def _taylor_index(m: int, order: int):
    """Over mi.enumerate_up_to(m, order): each index's position, the count up to each
    order, each index's order, and per I the positions of I + J for J up to order - |I|."""
    indices = mi.enumerate_up_to(m, order)
    pos = {J: ix for ix, J in enumerate(indices)}
    sizes = [len(mi.enumerate_up_to(m, l)) for l in range(order + 1)]
    return pos, sizes, [I.order for I in indices], [
        np.array([pos[I.add(J)] for J in indices[:sizes[order - I.order]]]) for I in indices]


class Taylor:
    """Truncated Taylor expansions at a set of points: rows[r] is the coefficient of the
    r-th multi-index of mi.enumerate_up_to(m, order), kept up to the value's own degree.
    Compiled code uses only +, * and ** by a nonzero integer, so a compiled section called
    on Taylor base variables gives all its jets at once: u_J = rows[J] * J!.  A canonical
    polynomial's rows are built directly from its coefficients (:func:`_taylor_at`); the
    arithmetic serves every other section, the bump and its product with a variation."""

    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, rows, degree: int, m: int, order: int):
        self.rows, self.degree, self.m, self.order = rows, degree, m, order

    @property
    def value(self):
        return self.rows[0]

    def __add__(self, other):
        if not isinstance(other, Taylor):
            other = Taylor(np.reshape(other, (1,) + np.shape(other)), 0, self.m, self.order)
        low, high = (other, self) if other.degree <= self.degree else (self, other)
        rows = high.rows.copy()
        rows[:len(low.rows)] += low.rows
        return Taylor(rows, high.degree, self.m, self.order)

    def __mul__(self, other):
        if not isinstance(other, Taylor):
            return Taylor(self.rows * other, self.degree, self.m, self.order)
        low, high = (self, other) if self.degree <= other.degree else (other, self)
        _, sizes, orders, shifts = _taylor_index(self.m, self.order)
        degree = min(low.degree + high.degree, self.order)
        rows = np.empty((sizes[degree],) + high.rows.shape[1:])
        # the constant row shifts nothing; a row of zeros, common in monomials, adds nothing
        np.multiply(low.rows[0], high.rows, out=rows[:len(high.rows)])
        rows[len(high.rows):] = 0.0
        for r in range(1, len(low.rows)):
            if low.rows[r].any():
                take = sizes[min(high.degree, degree - orders[r])]
                rows[shifts[r][:take]] += low.rows[r] * high.rows[:take]
        return Taylor(rows, degree, self.m, self.order)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n: int):
        base = self
        if n < 0:  # 1/b = sum_j g^j / b_0 with g = 1 - b/b_0, which has no constant term
            g = self * (-1.0 / self.value)
            g.rows[0] = 0.0
            base = 1.0
            for _ in range(self.order):
                base = g * base + 1.0
            base, n = base * (1.0 / self.value), -n
        out = base
        for _ in range(n - 1):
            out = out * base
        return out


def _variables(x: list, order: int) -> list:
    """The base variables as Taylor values to the given order at the points x."""
    out = []
    for i, xi in enumerate(x, start=1):
        rows = np.zeros((len(x) + 1,) + np.shape(xi))
        rows[0], rows[i] = xi, 1.0
        out.append(Taylor(rows if order else rows[:1], min(order, 1), len(x), order))
    return out


def _jets(values: Sequence, jets: Sequence[Sym]) -> list:
    """The jets u^a_J = rows[J] * J! of fiber components given as Taylor values or constants."""
    out = []
    for u in jets:
        t = values[u.alpha - 1]
        rows = t.rows if isinstance(t, Taylor) else [t]
        r = _taylor_index(len(u.index), u.index.order)[0][u.index]
        out.append(rows[r] * u.index.factorial() if r < len(rows) else 0.0)
    return out


def _order(jets: Sequence[Sym]) -> int:
    return max((u.index.order for u in jets), default=0)


def _polynomial(c: Expr, m: int) -> Optional[dict]:
    """c as a dict from exponent m-tuples to coefficients when c is a canonical
    polynomial, as every drawn section and variation component is; None for any
    other tree.  A canonical polynomial is a sum of distinct monomials, each a
    constant, a power of a base variable or a product of those."""
    if not c._canon:
        return None
    out = {}
    for term in c.terms if isinstance(c, Add) else (c,):
        coeff, J = 1, [0] * m
        for f in term.factors if isinstance(term, Mul) else (term,):
            if isinstance(f, Const):
                coeff = f.q
                continue
            base, e = (f.base, f.exp) if isinstance(f, Pow) else (f, 1)
            if not isinstance(base, Atom) or e < 0:
                return None
            J[base.sym.i - 1] = e
        out[tuple(J)] = coeff
    return out


def _taylor_at(s: SectionFn, spec: BundleSpec, order: int):
    """s as a function from base values x to its Taylor values there, to the given order.

    A component that is a canonical polynomial (every drawn section and variation)
    enters by its coefficients.  Row I of its Taylor value at x is
    sum_J c_J C(J, I) x^(J - I), linear in the coefficients c_J, so the rows of all
    such components are one product A X: A holds the exact coefficients of
    d^I s / I! over the monomials, each converted to float once, and X the
    monomials at x, each one multiplication from a lower one.  Any other component
    (a problem file's, rational, factored or as written) is compiled once and
    called on Taylor base variables, since expanding a factored polynomial would
    lose relative accuracy.
    """
    if len(s) != spec.n:
        raise UsageError("section has %d components, fiber dimension is %d" % (len(s), spec.n))
    m = spec.m
    polys = [_polynomial(c, m) for c in s.components]
    drawn = [p for p in polys if p is not None]
    degrees = [max(map(sum, p)) for p in drawn]
    tops = [min(d, order) for d in degrees]
    degree = max(degrees, default=0)
    pos, sizes, _, _ = _taylor_index(m, max(degree, order))
    # monomial r is monomial parent times x[axis], with axis the first one it uses
    steps = []
    for K in list(pos)[1:sizes[degree]]:
        axis = next(i for i, c in enumerate(K) if c)
        steps.append((pos[K[:axis] + (K[axis] - 1,) + K[axis + 1:]], axis))
    blocks = []
    for p, top in zip(drawn, tops):
        a = np.zeros((sizes[top], sizes[degree]))
        for J, c in p.items():
            for I in product(*(range(j + 1) for j in J)):
                if sum(I) <= top:
                    try:  # int / int rounds the exact quotient once
                        a[pos[I], pos[tuple(map(sub, J, I))]] = (
                            c.numerator * prod(map(comb, J, I)) / c.denominator)
                    except OverflowError:
                        raise EvalDomainError(
                            "a constant of %d digits is too large for floating point"
                            % len(str(abs(c.numerator)))) from None
        blocks.append(a)
    shift_matrix = np.vstack(blocks) if blocks else None
    cuts = np.cumsum([len(a) for a in blocks])[:-1]
    others = [c for c, p in zip(s.components, polys) if p is None]
    compiled = compile_expr(others, _base(spec)) if others else None

    def at(x: list) -> list:
        if others:
            values = iter(compiled(_variables(x, order)))
        if blocks:
            shape = np.broadcast_shapes(*map(np.shape, x))
            monomials = np.empty((sizes[degree],) + shape)
            monomials[0] = 1.0
            for r, (parent, axis) in enumerate(steps, start=1):
                monomials[r] = monomials[parent] * x[axis]
            rows = shift_matrix @ monomials.reshape(sizes[degree], -1)
            taylors = iter(Taylor(r.reshape(r.shape[:1] + shape), top, m, order)
                           for r, top in zip(np.split(rows, cuts), tops))
        return [next(values if p is None else taylors) for p in polys]

    return at


# ---------------------------------------------------------------------------
# Quadrature


@lru_cache(maxsize=None)
def _gauss_legendre(n_points: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence (Golub-Welsch), polished by three Newton steps on P_n, and the
    weights are 2 / ((1 - x^2) P_n'(x)^2); n nodes integrate polynomials up to
    degree 2n-1 exactly.
    """
    k = np.arange(1, n_points)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for step in range(4):
        prev, cur = np.ones_like(nodes), nodes
        for j in range(1, n_points):
            prev, cur = cur, ((2 * j + 1) * nodes * cur - j * prev) / (j + 1)
        slope = n_points * (nodes * cur - prev) / (nodes * nodes - 1.0)  # P_n'
        nodes = nodes - cur / slope if step < 3 else nodes
    weights = 2.0 / ((1.0 - nodes * nodes) * slope * slope)
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
    jets they read, on the section s, which enters as its Taylor jets."""
    fn, jets = _compiled_over_jets(exprs, spec, fields)
    return fn(x + _jets(_taylor_at(s, spec, _order(jets))(x), jets))


def oracle_for(L: Expr, spec: BundleSpec, el: ELSystem, grid: int,
               fields: Optional[Mapping[str, Expr]] = None):
    """The per-problem part of :func:`gateaux_oracle`: L and the components of el
    compiled once, and the bump's Taylor values on both grids.  Returns the
    per-pair part, a function of (s, psi, eps) to (lhs, rhs)."""
    lfn, l_jets = _compiled_over_jets([L], spec, fields)
    el_at, el_jets = _compiled_over_jets(el.components, spec, fields)
    s_jets = sorted(set(l_jets) | set(el_jets))
    p_order = _order(l_jets)
    bump_at = compile_expr([bump_polynomial(spec)], _base(spec))
    grids = []
    for n_points in (grid, 2 * grid - 1):
        points, weights = _grid(spec.m, n_points)
        step = max(1, SLAB_POINTS // n_points ** (spec.m - 1))
        slabs = []
        for lo in range(0, n_points, step):
            x = [xi[lo:lo + step] for xi in points]
            slabs.append((x, weights[lo:lo + step], bump_at(_variables(x, p_order))[0]))
        grids.append((n_points, slabs))

    def sides(s_at, psi_at, eps: float, n_points: int, slabs):
        lhs = rhs = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for x, weights, bump in slabs:
                on_s = dict(zip(s_jets, _jets(s_at(x), s_jets)))
                varied = [bump * p for p in psi_at(x)]
                stepped = [on_s[u] + 1j * eps * pv for u, pv in zip(l_jets, _jets(varied, l_jets))]
                lhs += np.sum(weights * np.imag(lfn(x + stepped)[0]))
                el_values = el_at(x + [on_s[u] for u in el_jets])
                rhs += np.sum(weights * sum(e * v.value for e, v in zip(el_values, varied)))
        rhs = _finite(rhs, "EL pairing", n_points)
        return _finite(lhs / eps, "action derivative", n_points), rhs

    def pair(s: SectionFn, psi: SectionFn, eps: float) -> tuple[float, float]:
        s_at, psi_at = _taylor_at(s, spec, _order(s_jets)), _taylor_at(psi, spec, p_order)
        (lhs_c, rhs_c), (lhs, rhs) = (sides(s_at, psi_at, eps, *g) for g in grids)
        for coarse, refined, side in ((lhs_c, lhs, "action derivative"),
                                      (rhs_c, rhs, "EL pairing")):
            if abs(refined - coarse) > REFINEMENT_TOL * (1.0 + abs(refined)):
                raise QuadratureError("grid too coarse for the %s: refinement moved %.3e"
                                      % (side, abs(refined - coarse)))
        return lhs, rhs

    return pair


def gateaux_oracle(L: Expr, spec: BundleSpec, s: SectionFn, psi: SectionFn,
                   grid: int, eps: float,
                   fields: Optional[Mapping[str, Expr]] = None) -> tuple[float, float]:
    """Numeric (action derivative, integrated EL pairing) for a compact variation.

    psi supplies the free polynomial part of the variation; the boundary bump
    is multiplied in here, as a product of Taylor values, so the vanishing
    conditions hold by construction.  The action derivative is the complex
    step Im S[s + i eps psi] / eps, which has no subtractive cancellation; the
    pairing is sum_a EL_a (bump psi)_a.  Both sides are summed over `grid`
    Gauss-Legendre nodes per axis of [0, 1]^m and must agree with their values
    on 2*grid-1 nodes (QuadratureError otherwise); the refined values are
    returned.  A non-finite side on either grid raises QuadratureError.  This
    is :func:`oracle_for` on the derived EL, applied to one pair.
    """
    return oracle_for(L, spec, euler_lagrange(L, spec), grid, fields)(s, psi, eps)


def relative_gap(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-12:
        return 0.0
    return abs(lhs - rhs) / scale
