"""Textbook exterior-algebra constructions over `srfield.extalg.Form`.

The engine builds Omega_H0 term by term in place and writes d^{m-1}x_i in
closed form; the tests build them again from these definitions (wedge
products, the exterior derivative and the interior product with a vector
field) and compare the two.  The kernel check reads each contraction row of
the canonical form off the graph basis of the tangent space as signed entries;
`_minor_rows` computes every row from all of Omega_H0's terms, with one
(m+1)-determinant per term and (m+1)-subset, as the reference.
"""

import itertools
from typing import Mapping

import numpy as np

from srfield.errors import UsageError
from srfield.extalg import Form, collect
from srfield.jetmodel import CoordCatalog
from srfield.symexpr import Const, Expr, Sym, emul, gradient, render


def zero_form(catalog: CoordCatalog, degree: int) -> Form:
    return Form(catalog, degree)


def scalar_form(catalog: CoordCatalog, value: Expr) -> Form:
    return Form(catalog, 0, {(): value})


def one_form(catalog: CoordCatalog, sym: Sym) -> Form:
    """The coordinate differential d(sym)."""
    return Form(catalog, 1, {(sym,): Const(1)})


def volume_form(catalog: CoordCatalog) -> Form:
    return Form(catalog, catalog.m, {tuple(catalog.base_syms): Const(1)})


def contract_vector(a: Form, v: Mapping[Sym, Expr]) -> Form:
    """Interior product i_v a, v given by its components per coordinate direction."""
    if a.degree < 1:
        raise UsageError("cannot contract a 0-form with a vector field")
    out = Form(a.catalog, a.degree - 1)
    for mono, coef in a.terms.items():
        for slot, sym in enumerate(mono):
            comp = v.get(sym)
            if comp is None:
                continue
            rest = mono[:slot] + mono[slot + 1:]
            sgn = Const(1) if slot % 2 == 0 else Const(-1)
            out._accumulate(rest, emul(sgn, comp, coef))
    return out


def wedge(a: Form, b: Form) -> Form:
    if a.catalog is not b.catalog:
        raise UsageError("wedge needs both forms over the same catalog")
    out = Form(a.catalog, a.degree + b.degree)
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            out.add_word(ma + mb, emul(ca, cb))
    return out


def exterior_d(a: Form) -> Form:
    """Exterior derivative: d(f mu) = sum over catalog coordinates of df_c dc wedge mu."""
    out = Form(a.catalog, a.degree + 1)
    for mono, coef in a.terms.items():
        for c, df in gradient(coef, a.catalog.coords).items():
            out.add_word((c,) + mono, df)
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


def _minor_rows(tangent: np.ndarray, term_coords, coefs, m: int) -> np.ndarray:
    """The contracted form on the tangent space, one row per m-subset of its basis.

    rows[combo, s] = sum over terms of coef * det(tangent[idx][:, (s,) + combo]).
    Each such minor is, up to sign, a component of the pulled-back form on the
    (m+1)-subset I = sorted((s,) + combo), and 0 when s is in combo.  The
    components are summed term by term, one stacked determinant call per
    term, and then scattered with the sign of the move of s into place.
    """
    dim_t = tangent.shape[1]
    combos = np.array(list(itertools.combinations(range(dim_t), m)), dtype=int).reshape(-1, m)
    subsets = np.array(list(itertools.combinations(range(dim_t), m + 1)),
                       dtype=int).reshape(-1, m + 1)
    comp = np.zeros(len(subsets))
    # det goes through log|U_ii|, which divides by zero on an exactly singular
    # block; that block's determinant is correctly 0
    with np.errstate(divide="ignore"):
        for idx, cval in zip(term_coords, coefs):
            comp += cval * np.linalg.det(np.moveaxis(tangent[idx][:, subsets], 0, 1))
    # combos are in lexicographic order, which is the order of their base-dim_t keys
    place = dim_t ** np.arange(m - 1, -1, -1)
    keys = combos @ place
    rows = np.zeros((len(combos), dim_t))
    for p in range(m + 1):
        rest = np.delete(subsets, p, axis=1)
        rows[np.searchsorted(keys, rest @ place), subsets[:, p]] = comp if p % 2 == 0 else -comp
    return rows
