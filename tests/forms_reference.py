"""Textbook exterior-algebra constructions over `srfield.extalg.Form`.

The engine builds Omega_H0 term by term in place; the tests build it again
from these definitions (wedge products and the exterior derivative) and
compare the two.
"""

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
