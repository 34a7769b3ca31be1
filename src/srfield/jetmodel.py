"""Bundle signatures, the velocity-momentum coordinate catalog, pairing and prolongation.

The catalog lists, in one deterministic order, the coordinates
(x^i, u^a_J, p^{I,i}_a, p) of the fibered product of the order-k jet space
with the reduced dual of its top affine level.  It is generated
systematically from the signature, never copied from worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import multiindex as mi
from .errors import UsageError
from .symexpr import (
    _MAX_COORDS,
    Atom,
    BASE,
    Expr,
    Sym,
    as_expr,
    base_derivatives,
    base_sym,
    eadd,
    emul,
    field_sym,
    free_syms,
    jet_sym,
    mom_sym,
    p_sym,
    tree_of,
)


@dataclass(frozen=True)
class BundleSpec:
    """Signature (m, n, k): base dimension, fiber dimension, jet order."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.k < 1:
            raise UsageError("bundle signature needs m, n, k >= 1")


def dim_jet(spec: BundleSpec, order: int) -> int:
    """Dimension of the order-`order` jet space of the bundle."""
    if order > spec.k:
        raise UsageError("order %d exceeds the signature's jet order %d" % (order, spec.k))
    if order < 0:
        raise UsageError("order must be >= 0")
    return spec.m + spec.n * sum(mi.count_indices(spec.m, l) for l in range(order + 1))


class CoordCatalog:
    """Ordered coordinates of the velocity-momentum space for one signature."""

    def __init__(self, spec: BundleSpec, fields: Optional[Mapping[str, Sequence[int]]] = None):
        self.spec = spec
        self.fields: dict[str, tuple[int, ...]] = {
            name: tuple(sorted(deps)) for name, deps in (fields or {}).items()
        }
        for name, deps in self.fields.items():
            if any(not 1 <= d <= spec.m for d in deps):
                raise UsageError("field %s depends on base index out of range" % name)
        m, n, k = spec.m, spec.n, spec.k
        self.base_syms = tuple(base_sym(i) for i in range(1, m + 1))
        self.jet_syms = tuple(
            jet_sym(alpha, J)
            for alpha in range(1, n + 1)
            for J in mi.enumerate_up_to(m, k)
        )
        self.mom_syms = tuple(
            mom_sym(alpha, I, i)
            for alpha in range(1, n + 1)
            for I in mi.enumerate_up_to(m, k - 1)
            for i in range(1, m + 1)
        )
        self.p = p_sym()
        self.coords = tuple(sorted(self.base_syms + self.jet_syms + self.mom_syms + (self.p,)))
        self._coordset = frozenset(self.coords)

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def k(self) -> int:
        return self.spec.k

    def contains(self, sym: Sym) -> bool:
        return sym in self._coordset

    def names(self) -> list[str]:
        return [s.render() for s in self.coords]

    def field_atom(self, name: str) -> Expr:
        if name not in self.fields:
            raise UsageError("field %r not declared" % name)
        return Atom(field_sym(name, mi.zero(self.m), self.fields[name]))


def build_catalog(spec: BundleSpec, fields: Optional[Mapping[str, Sequence[int]]] = None) -> CoordCatalog:
    # m + n(k + 1) bounds the count from below and keeps huge headers from its binomials
    if spec.m + spec.n * (spec.k + 1) > _MAX_COORDS or coordinate_count(spec) > _MAX_COORDS:
        raise UsageError("signature (%d, %d, %d) has more than the budget of %d coordinates"
                         % (spec.m, spec.n, spec.k, _MAX_COORDS))
    return CoordCatalog(spec, fields=fields)


def coordinate_count(spec: BundleSpec) -> int:
    m, n, k = spec.m, spec.n, spec.k
    jets = sum(mi.count_indices(m, l) for l in range(k + 1))
    moms = sum(mi.count_indices(m, l) for l in range(k))
    return m + n * jets + n * m * moms + 1


def pairing_phi(catalog: CoordCatalog) -> Expr:
    """Canonical pairing in coordinates: sum of p^{I,i}_a u^a_{I+1_i} plus p."""
    terms = []
    for s in catalog.mom_syms:
        terms.append(emul(Atom(s), Atom(jet_sym(s.alpha, s.index.bump(s.i)))))
    terms.append(Atom(catalog.p))
    return eadd(*terms)


class SectionFn:
    """A local section given per fiber index in the base variables.

    Each of its sides is a tree or, as a drawn oracle section is built, a canonical
    pair (numerator, denominator) of monomial dicts, which the oracle and the report
    read directly; components builds the trees on first read and keeps them."""

    def __init__(self, components: Sequence):
        self.sides = tuple(c if isinstance(c, tuple) else as_expr(c) for c in components)
        self._trees = None
        for c in self.sides:
            syms = free_syms(c) if isinstance(c, Expr) else {s for p in c for m in p for s, _ in m}
            bad = sorted(s for s in syms if s.kind != BASE)
            if bad:
                raise UsageError("section component references %s, which is not a base variable"
                                 % bad[0].render())

    @property
    def components(self) -> tuple[Expr, ...]:
        if self._trees is None:
            self._trees = tuple(map(tree_of, self.sides))
        return self._trees

    def __len__(self):
        return len(self.sides)

    def __getitem__(self, ix):
        return self.components[ix]


def prolong(s: SectionFn, order: int, spec: BundleSpec) -> dict[Sym, Expr]:
    """Jet coordinates of the prolonged section as expressions in the base variables.

    Entries are u^a_J -> D^J s^a for all |J| <= order, taken from one
    :func:`symexpr.base_derivatives` table per component, so each is a chain
    of partials along a fixed path.
    """
    if order > 2 * spec.k:
        raise UsageError("prolongation order %d exceeds 2k = %d" % (order, 2 * spec.k))
    if len(s) != spec.n:
        raise UsageError("section has %d components, fiber dimension is %d" % (len(s), spec.n))
    tables = [base_derivatives(c, spec.m) for c in s.components]
    return {jet_sym(alpha, J): tables[alpha - 1](J)
            for J in mi.enumerate_up_to(spec.m, order) for alpha in range(1, spec.n + 1)}
