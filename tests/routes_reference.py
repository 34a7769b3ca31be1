"""The engine's earlier routes to the same objects, kept as references.

The engine takes every x-derivative of a section or a bound field from one
memoized table (`symexpr.base_derivatives`), evaluates L and the
Euler-Lagrange components on compiled jets, reads the selection matrix off
`analysis.b_system_matrix`, and takes the equation sides and the
Euler-Lagrange components from L's partials table (`symexpr.Partials`).
These functions build the same objects the way the engine once did: an
eager loop over every multi-index, the Euler-Lagrange components with the
prolonged section substituted in and multiplied by the variation as one
compiled integrand, the selection rows built from the selected columns, and
every equation side and Euler-Lagrange component as a tree (gradient, the
lift applied to the partials, iterated total derivatives), normalized once.
The tests compare the two routes.
"""

import numpy as np

from srfield import assembler as asm
from srfield import eleuler as el
from srfield import multiindex as mi
from srfield import oracle
from srfield.analysis import SelectionMatrix
from srfield.jetmodel import BundleSpec, CoordCatalog, SectionFn, pairing_phi
from srfield.symexpr import (
    BASE,
    FIELD,
    JET,
    ZERO,
    Atom,
    Expr,
    Sym,
    aux_b,
    base_sym,
    compile_expr,
    directional,
    eadd,
    emul,
    eneg,
    esub,
    free_syms,
    gradient,
    jet_sym,
    normalize,
    partial,
    render,
    substitute,
)


def eager_prolong(s: SectionFn, order: int, spec: BundleSpec) -> dict[Sym, Expr]:
    """u^a_J -> D^J s^a for every |J| <= order, level by level, each entry one
    partial along the first direction of J from the entry at J - 1_i."""
    values = {(alpha, mi.zero(spec.m)): s[alpha - 1] for alpha in range(1, spec.n + 1)}
    for l in range(1, order + 1):
        for J in mi.enumerate_indices(spec.m, l):
            i = next(ix + 1 for ix, c in enumerate(J) if c > 0)
            lower = J.sub_checked(mi.unit(i, spec.m))
            for alpha in range(1, spec.n + 1):
                values[(alpha, J)] = partial(values[(alpha, lower)], base_sym(i))
    return {jet_sym(alpha, J): e for (alpha, J), e in values.items()}


def eager_substitute_fields(e: Expr, fields) -> Expr:
    """Field atoms replaced by the derivative of their bound value, by a private recursion."""
    cache = {}

    def deriv(name, index):
        if (name, index) not in cache:
            if sum(index) == 0:
                cache[(name, index)] = fields[name]
            else:
                i = next(ix + 1 for ix, c in enumerate(index) if c > 0)
                lower = index.sub_checked(mi.unit(i, len(index)))
                cache[(name, index)] = partial(deriv(name, lower), base_sym(i))
        return cache[(name, index)]

    return substitute(e, {s: deriv(s.name, s.index) for s in free_syms(e)
                          if s.kind == FIELD and s.name in fields})


def substituted_oracle(L: Expr, spec: BundleSpec, s: SectionFn, psi: SectionFn,
                       grid: int, eps: float, fields=None) -> tuple[float, float]:
    """(action derivative, EL pairing) on the refined grid, the pairing taken as
    the one compiled integrand sum_a EL_a[prolong(s, 2k)] * (bump psi)_a."""
    L_eff = eager_substitute_fields(L, fields) if fields else L
    psi_eff = SectionFn([emul(el.bump_polynomial(spec), c) for c in psi.components])
    sprol = eager_prolong(s, 2 * spec.k, spec)
    pprol = eager_prolong(psi_eff, spec.k, spec)
    parts = []
    for comp, p in zip(el.euler_lagrange(L, spec).components, psi_eff.components):
        comp = eager_substitute_fields(comp, fields) if fields else comp
        parts.append(emul(substitute(comp, sprol), p))
    base = [base_sym(i) for i in range(1, spec.m + 1)]
    jets = sorted(u for u in free_syms(L_eff) if u.kind == JET)
    lfn = compile_expr([L_eff], base + jets)
    jets_at = compile_expr([sprol[u] for u in jets] + [pprol[u] for u in jets], base)
    pairing_at = compile_expr([eadd(*parts)], base)
    points, weights = oracle._grid(spec.m, 2 * grid - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = float(np.sum(weights * pairing_at(points)[0]))
        values = jets_at(points)
        stepped = [sv + 1j * eps * pv for sv, pv in zip(values[:len(jets)], values[len(jets):])]
        lhs = float(np.sum(weights * np.imag(lfn(points + stepped)[0])) / eps)
    return lhs, rhs


def built_selection_rows(spec: BundleSpec, sel: SelectionMatrix) -> SelectionMatrix:
    """sel with its square matrix built row by row from the selected columns:
    the tangency rows (j, K), then the middle rows J."""
    m, k = spec.m, spec.k
    col_pos = {c: ix for ix, c in enumerate(sel.col_labels)}
    rows, matrix = [], []
    for j in range(1, m + 1):
        for K in mi.enumerate_indices(m, k):
            rows.append(("tangency", j, K))
            row = [0] * len(col_pos)
            for I, i in mi.decompositions(K):
                if (i, j, I) in col_pos:
                    row[col_pos[(i, j, I)]] = 1
            matrix.append(row)
    for J in mi.enumerate_indices(m, k - 1):
        rows.append(("middle", J))
        row = [0] * len(col_pos)
        for jj in range(1, m + 1):
            if (jj, jj, J) in col_pos:
                row[col_pos[(jj, jj, J)]] = 1
        matrix.append(row)
    return SelectionMatrix(rows, list(sel.col_labels), matrix, list(sel.trace), set(sel.line6_cols))


def default_lift(catalog: CoordCatalog, j: int, grad) -> Expr:
    """h_j with the default assignment applied to a function of x and u, given its partials."""
    return eadd(*[d if s.kind == BASE else emul(asm._default_a(catalog, s, j), d)
                  for s, d in grad.items() if s.kind != BASE or s.i == j])


def tree_euler_lagrange(L: Expr, spec: BundleSpec) -> list[str]:
    """Per fiber index, sum over |J| <= k of (-1)^|J| D^J (dL/du^a_J) as one tree, normalized."""
    out = []
    for alpha in range(1, spec.n + 1):
        jets = [jet_sym(alpha, J) for J in mi.enumerate_up_to(spec.m, spec.k)]
        parts = []
        for u, dl in gradient(L, jets).items():
            term = el.iterated_total_derivative(dl, u.index)
            parts.append(term if u.index.order % 2 == 0 else eneg(term))
        out.append(render(normalize(eadd(*parts))))
    return out


def tree_families(catalog: CoordCatalog, L: Expr) -> dict[str, tuple[str, str]]:
    """d(u) -> the rendered sides of the trace, middle or W1 equation on the jet u."""
    dl = gradient(L, catalog.jet_syms)
    out = {}
    for u in catalog.jet_syms:
        d = dl.get(u, ZERO)
        bs = eadd(*[Atom(aux_b(u.index, i, u.alpha, i)) for i in range(1, catalog.m + 1)])
        lhs, rhs = ((bs, d) if u.index.order == 0 else
                    (asm.momentum_sum(u), esub(d, bs)) if u.index.order < catalog.k else
                    (asm.momentum_sum(u), d))
        out["d(%s)" % u.render()] = (render(normalize(lhs)), render(normalize(rhs)))
    return out


def tree_tangency(catalog: CoordCatalog, L: Expr) -> list[tuple[str, str]]:
    """Each default lift applied to the partials of each W1 right side, in the engine's order."""
    syms = catalog.base_syms + catalog.jet_syms
    out = []
    for u, d in asm.top_partials(catalog, L).items():
        grad = gradient(d, syms)
        for j in range(1, catalog.m + 1):
            lhs = eadd(*[Atom(aux_b(I, i, u.alpha, j)) for I, i in mi.decompositions(u.index)])
            out.append((render(normalize(lhs)), render(normalize(default_lift(catalog, j, grad)))))
    return out


def tree_c_coefficients(catalog: CoordCatalog, L: Expr) -> list[str]:
    """C_j = h_j^0(L) - P_j, h_j^0 applied to the partials of L along x and u below top order,
    and P_j = h_j^0(pairing - p): the default lift's components on the momenta (B) and on the
    jets below top order, as a dict, applied to the gradient of the pairing without p."""
    lower = tuple(u for u in catalog.jet_syms if u.index.order < catalog.k)
    pairing = gradient(esub(pairing_phi(catalog), Atom(catalog.p)), catalog.coords)
    grad = gradient(L, catalog.base_syms + lower)
    out = []
    for j in range(1, catalog.m + 1):
        lift = {u: asm._default_a(catalog, u, j) for u in lower}
        lift.update({s: Atom(aux_b(s.index, s.i, s.alpha, j)) for s in catalog.mom_syms})
        image = directional(lift, pairing)
        out.append(render(normalize(esub(default_lift(catalog, j, grad), image))))
    return out


def tree_w2(catalog: CoordCatalog, L: Expr) -> str:
    """The right side of H0 = 0 solved for p, L - (pairing - p), normalized."""
    return render(normalize(esub(L, esub(pairing_phi(catalog), Atom(catalog.p)))))
