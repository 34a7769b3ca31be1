"""Formal total derivatives and the higher-order Euler-Lagrange operator, in
exact arithmetic: nothing here imports numpy.

The numeric first-variation oracle that checks the Euler-Lagrange system lives
in :mod:`srfield.oracle`.  Its names are still read from this module, which
imports the oracle on first use."""

from __future__ import annotations

from typing import Optional, Sequence

from . import multiindex as mi
from .errors import UsageError
from .jetmodel import BundleSpec
from .symexpr import (
    Atom,
    Expr,
    JET,
    ONE,
    Partials,
    Sym,
    base_sym,
    directional,
    free_syms,
    gradient,
    horizontal,
    jet_order,
    jet_sym,
    render_side,
    tree_of,
)

# the public names that moved to srfield.oracle, read from there on first use (PEP 562)
_ORACLE_NAMES = frozenset("""COMPLEX_STEP REFINEMENT_TOL SLAB_POINTS Taylor action_value
    bump_polynomial default_eps gateaux_oracle oracle_for relative_gap
    residual_on_section""".split())


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import oracle
    return getattr(oracle, name)


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
    """Euler-Lagrange expressions per fiber index, over jets of order at most 2k.

    Each component is a tree or, as euler_lagrange builds it, a canonical pair
    (numerator, denominator) of monomial dicts, which records renders straight
    from its monomials; components builds the trees on first read and keeps them.
    """

    def __init__(self, spec: BundleSpec, components: Sequence):
        self.spec = spec
        self._sides = tuple(components)
        self._trees = None

    @property
    def components(self) -> tuple[Expr, ...]:
        if self._trees is None:
            self._trees = tuple(map(tree_of, self._sides))
        return self._trees

    def __len__(self):
        return len(self._sides)

    def __getitem__(self, ix):
        return self.components[ix]

    def records(self) -> list[str]:
        return [render_side(c) for c in self._sides]


def euler_lagrange(L: Expr, spec: BundleSpec, table: Optional[Partials] = None) -> ELSystem:
    """Per fiber index: sum over |J| <= k of (-1)^|J| D^J (dL/du^a_J), normalized.

    The partials come from L's table; each D^J is taken on them as expanded
    polynomials over powers of the table's base, and each sum is reduced once
    into the canonical pair that the system keeps.
    """
    if jet_order(L) > spec.k:
        raise UsageError("Lagrangian order exceeds the signature's jet order")
    table = Partials(L) if table is None else table
    totals = [horizontal(i, lambda u, i=i: ((jet_sym(u.alpha, u.index.bump(i)), 1),))
              for i in range(1, spec.m + 1)]
    comps = []
    for alpha in range(1, spec.n + 1):
        terms = []
        for J in mi.enumerate_up_to(spec.m, spec.k):
            term = table.of(jet_sym(alpha, J))
            if not term[0]:
                continue
            for d, times in zip(totals, J):
                for _ in range(times):
                    term = table.derive(term, d)
            terms.append((-1 if J.order % 2 else 1, term))
        comps.append(table.reduce(table.total(terms)))
    return ELSystem(spec, comps)
