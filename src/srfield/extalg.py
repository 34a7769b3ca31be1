"""Differential forms over a coordinate catalog, their contraction with a
projector given by its horizontal lifts, and their normalized coefficients.

Forms are stored on canonical wedge monomials: strictly increasing tuples of
coordinate symbols under the catalog order, with the permutation parity folded
into the coefficient.  The surface basis forms d^{m-1}x_i are written in
closed form, signs included.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import UsageError
from .jetmodel import CoordCatalog
from .symexpr import (
    Const,
    Expr,
    Sym,
    as_expr,
    canonical_quotient,
    eadd,
    emul,
    eneg,
    expand,
    is_syntactic_zero,
)


def sort_word(syms: tuple) -> Optional[tuple[tuple, int]]:
    """Sort a wedge word into canonical order, with the sign of the permutation;
    None when a differential repeats.  Any totally ordered items will do."""
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
        sorted_ = sort_word(word)
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


def dm1x(catalog: CoordCatalog, i: int) -> Form:
    """d^{m-1}x_i = (-1)^(i-1) dx^1 ^ ... ^ dx^m with dx^i left out.

    This is the volume form contracted by d/dx^i, written in closed form.
    """
    base = tuple(catalog.base_syms)
    return Form(catalog, catalog.m - 1, {base[:i - 1] + base[i:]: Const((-1) ** (i - 1))})


def contract_projector(a: Form, lifts: Mapping[int, Mapping[Sym, Expr]]) -> Form:
    """Degree-preserving contraction with a projector acting as sum_j h_j (x) dx^j.

    lifts maps each j to the components of the horizontal lift h_j.  Computed
    slot-wise from the definition: for every wedge monomial and every slot,
    the slot's differential is paired with h_j and replaced by dx^j.
    """
    catalog = a.catalog
    out = Form(catalog, a.degree)
    for mono, coef in a.terms.items():
        for slot, sym in enumerate(mono):
            for j in range(1, catalog.m + 1):
                pair = lifts[j].get(sym)
                if pair is None:
                    continue
                word = mono[:slot] + (catalog.base_syms[j - 1],) + mono[slot + 1:]
                out.add_word(word, emul(pair, coef))
    return out


def collect(a: Form) -> dict[tuple[Sym, ...], Expr]:
    """Normalized coefficients per canonical monomial, zero entries removed."""
    out: dict[tuple[Sym, ...], Expr] = {}
    for mono, coef in a.terms.items():
        num, den = expand(coef)
        if num:
            out[mono] = canonical_quotient(num, den)
    return out
