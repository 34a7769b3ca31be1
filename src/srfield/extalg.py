"""Exterior algebra of differential forms over a coordinate catalog.

Forms are stored on canonical wedge monomials: strictly increasing tuples of
coordinate symbols under the catalog order, with the permutation parity folded
into the coefficient.  The surface basis objects d^{m-1}x_i, d^{m-2}x_{ij} are
derived by contraction of the volume form, signs included.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import UsageError
from .jetmodel import CoordCatalog
from .symexpr import (
    Const,
    Expr,
    FIELD,
    Sym,
    as_expr,
    eadd,
    emul,
    eneg,
    free_syms,
    is_syntactic_zero,
    is_zero,
    normalize,
    partial,
    render,
)


def _sort_mono(syms: tuple[Sym, ...]) -> Optional[tuple[tuple[Sym, ...], int]]:
    """Sort a wedge word into canonical order; None when a differential repeats."""
    lst = list(syms)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j] < lst[j - 1]:
            lst[j], lst[j - 1] = lst[j - 1], lst[j]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return tuple(lst), sign


class Form:
    """Exterior form of fixed degree with expression coefficients."""

    __slots__ = ("catalog", "degree", "terms")

    def __init__(self, catalog: CoordCatalog, degree: int,
                 terms: Optional[Mapping[tuple[Sym, ...], Expr]] = None):
        self.catalog = catalog
        self.degree = degree
        self.terms: dict[tuple[Sym, ...], Expr] = {}
        if terms:
            for mono, coef in terms.items():
                self._accumulate(mono, as_expr(coef))

    def _accumulate(self, mono: tuple[Sym, ...], coef: Expr) -> None:
        if len(mono) != self.degree:
            raise UsageError("monomial %r has wrong degree for a %d-form" % (mono, self.degree))
        if is_syntactic_zero(coef):
            return
        cur = self.terms.get(mono)
        new = coef if cur is None else eadd(cur, coef)
        if is_syntactic_zero(new):
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    def add_word(self, word: tuple[Sym, ...], coef: Expr) -> None:
        """Accumulate coef * d(word[0]) wedge ... with canonical re-sorting."""
        sorted_ = _sort_mono(word)
        if sorted_ is None:
            return
        mono, sign = sorted_
        self._accumulate(mono, coef if sign == 1 else eneg(coef))

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree or self.catalog is not other.catalog:
            raise UsageError("can only add forms of equal degree over one catalog")
        out = Form(self.catalog, self.degree, self.terms)
        for mono, coef in other.terms.items():
            out._accumulate(mono, coef)
        return out

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(Const(-1))

    def scale(self, factor) -> "Form":
        factor = as_expr(factor)
        out = Form(self.catalog, self.degree)
        for mono, coef in self.terms.items():
            out._accumulate(mono, emul(factor, coef))
        return out

    def __neg__(self) -> "Form":
        return self.scale(Const(-1))

    def is_syntactically_empty(self) -> bool:
        return not self.terms


class VecField:
    """Finitely supported vector field: coefficient expressions per coordinate direction."""

    __slots__ = ("catalog", "components")

    def __init__(self, catalog: CoordCatalog, components: Mapping[Sym, Expr]):
        self.catalog = catalog
        self.components = {s: as_expr(c) for s, c in components.items()
                           if not is_syntactic_zero(as_expr(c))}


class ProjectorTemplate:
    """Horizontal lifts h_j = d/dx^j + sum of unknown-coefficient fiber directions.

    Acts as sum_j h_j (x) dx^j; only the horizontal lifts are stored, so the
    vertical kernel condition holds by construction.
    """

    __slots__ = ("catalog", "lifts", "unknowns")

    def __init__(self, catalog: CoordCatalog, lifts: Mapping[int, VecField],
                 unknowns: Iterable[Sym]):
        self.catalog = catalog
        self.lifts = dict(lifts)
        self.unknowns = tuple(unknowns)

    def pairing(self, sym: Sym, j: int) -> Expr:
        """Component of h_j along d/d(sym): the value of d(sym) on h_j."""
        return self.lifts[j].components.get(sym, Const(0))


def zero_form(catalog: CoordCatalog, degree: int) -> Form:
    return Form(catalog, degree)


def scalar_form(catalog: CoordCatalog, value: Expr) -> Form:
    return Form(catalog, 0, {(): value})


def one_form(catalog: CoordCatalog, sym: Sym) -> Form:
    """The coordinate differential d(sym)."""
    return Form(catalog, 1, {(sym,): Const(1)})


def volume_form(catalog: CoordCatalog) -> Form:
    return Form(catalog, catalog.m, {tuple(catalog.base_syms): Const(1)})


def wedge(a: Form, b: Form) -> Form:
    if a.catalog is not b.catalog:
        raise UsageError("wedge needs both forms over the same catalog")
    out = Form(a.catalog, a.degree + b.degree)
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            out.add_word(ma + mb, emul(ca, cb))
    return out


def dm1x(catalog: CoordCatalog, i: int) -> Form:
    """d^{m-1}x_i, the contraction of the volume form by d/dx^i."""
    return contract_vector(volume_form(catalog),
                           VecField(catalog, {catalog.base_syms[i - 1]: Const(1)}))


def exterior_d(a: Form) -> Form:
    """Exterior derivative: d(f mu) = sum over catalog coordinates of df_c dc wedge mu."""
    catalog = a.catalog
    out = Form(catalog, a.degree + 1)
    for mono, coef in a.terms.items():
        syms = free_syms(coef)
        coords = [c for c in catalog.coords if c in syms]
        if any(s.kind == FIELD for s in syms):
            present = set(coords)
            coords.extend(b for b in catalog.base_syms if b not in present)
        for c in coords:
            df = partial(coef, c)
            if is_syntactic_zero(df):
                continue
            out.add_word((c,) + mono, df)
    return out


def contract_vector(a: Form, v: VecField) -> Form:
    """Interior product i_v a."""
    if a.degree < 1:
        raise UsageError("cannot contract a 0-form with a vector field")
    out = Form(a.catalog, a.degree - 1)
    for mono, coef in a.terms.items():
        for slot, sym in enumerate(mono):
            comp = v.components.get(sym)
            if comp is None:
                continue
            rest = mono[:slot] + mono[slot + 1:]
            sgn = Const(1) if slot % 2 == 0 else Const(-1)
            out._accumulate(rest, emul(sgn, comp, coef))
    return out


def contract_projector(a: Form, h: ProjectorTemplate) -> Form:
    """Degree-preserving contraction with a projector acting as sum_j h_j (x) dx^j.

    Computed slot-wise from the definition: for every wedge monomial and every
    slot, the slot's differential is paired with h_j and replaced by dx^j.
    """
    catalog = a.catalog
    out = Form(catalog, a.degree)
    for mono, coef in a.terms.items():
        for slot, sym in enumerate(mono):
            for j in range(1, catalog.m + 1):
                pair = h.pairing(sym, j)
                if is_syntactic_zero(pair):
                    continue
                word = mono[:slot] + (catalog.base_syms[j - 1],) + mono[slot + 1:]
                out.add_word(word, emul(pair, coef))
    return out


def collect(a: Form) -> dict[tuple[Sym, ...], Expr]:
    """Normalized coefficients per canonical monomial, zero entries removed."""
    out: dict[tuple[Sym, ...], Expr] = {}
    for mono, coef in a.terms.items():
        nf = normalize(coef)
        if not is_zero(nf):
            out[mono] = nf
    return out


def render_form(a: Form) -> str:
    """Deterministic text rendering, monomials in catalog order."""
    coll = collect(a)
    if not coll:
        return "0"
    parts = []
    for mono in sorted(coll, key=lambda t: tuple(s._k for s in t)):
        coef = render(coll[mono])
        basis = "^".join("d(%s)" % s.render() for s in mono) if mono else "1"
        parts.append("(%s) %s" % (coef, basis))
    return "  +  ".join(parts)
