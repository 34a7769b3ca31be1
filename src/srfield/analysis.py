"""Regularity, count classification of the coefficient system, the column-selection
algorithm with its rank certificate, and the pointwise multisymplecticity kernel check.

The selection matrix and its verification run in exact integer arithmetic; the
regularity and kernel ranks are numeric, with one relative singular-value
cutoff of 1e-8.  The constraint set W1 and H0 = 0 is read from one list of
residuals, each paired with the coordinate it solves: the sample points are
solved from it, and the kernel check tests it and reads its tangent space off
as a graph over the free coordinates.  Each check builds and compiles its
expressions once per problem, the Hessian included, and takes one compiled
call per point.  On the constraint set's tangent space, taken as the graph
over the free coordinates, Omega_H0 is the canonical form: each of its
components there is one signed entry of the graph, so the kernel check takes
no determinant and no orthonormalization.

At every on-constraint point the kernel dimension is at least the corank of
the top-order Hessian.  For a null vector c of the Hessian, v = sum_K c_K d/du_K
over the order-k jets changes each W1 residual by -(Hessian c)_K = 0, and H0 by
sum_K c_K (momentum_sum(u_K) - dL/du_K), a sum of W1 residuals: v lies in T.
No order-k du_K is a factor of the canonical form, whose momenta p^{I,i} pair
with |I| <= k - 1, so i_v Omega_H0|_T = 0.  Equality held at every k >= 2
point checked; at k = 1 some points have one more kernel direction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import multiindex as mi
from .assembler import canonical_form, hamiltonian_h0, momentum_sum, top_partials
from .errors import (
    EvalDomainError,
    InternalConsistencyError,
    PreconditionError,
    SelectionError,
    UsageError,
)
from .extalg import sort_word
from .jetmodel import BundleSpec, CoordCatalog, build_catalog
from .symexpr import (
    Expr,
    MOMENTUM,
    PSCALAR,
    Sym,
    ZERO,
    compile_at,
    esub,
    gradient,
    mom_sym,
    normalize,
    render,
)

RANK_CUTOFF = 1e-8
# largest constraint residual accepted at a point given to the kernel check
RESIDUAL_TOL = 1e-9

OVERDETERMINED = "overdetermined"
EXACTLY_DETERMINED = "exactly-determined"
UNDERDETERMINED = "underdetermined-maximal-rank"


@dataclass
class HessianMatrix:
    """Second partials of L with respect to the top-order jet coordinates."""

    labels: list[tuple[int, mi.MultiIndex]]
    entries: list[list[Expr]]

    def size(self) -> int:
        return len(self.labels)

    def records(self) -> dict:
        return {
            "labels": ["u%s@%d" % (str(J), alpha) for alpha, J in self.labels],
            "entries": [[render(e) for e in row] for row in self.entries],
        }


def highest_hessian(L: Expr, spec: BundleSpec) -> HessianMatrix:
    """The top-order Hessian: one gradient along the top-order jets per entry of
    top_partials, in its order."""
    first = top_partials(build_catalog(spec), L)
    tops = list(first)
    entries = []
    for d in first.values():
        row = gradient(d, tops)
        entries.append([normalize(row.get(v, ZERO)) for v in tops])
    return HessianMatrix([(u.alpha, u.index) for u in tops], entries)


def hessian_at(hess: HessianMatrix, points: Sequence[Mapping], fields=None) -> list[np.ndarray]:
    """The Hessian's values at each point, its entries compiled once."""
    size = hess.size()
    values_at = compile_at([e for row in hess.entries for e in row], fields)
    return [np.array(values_at(point), dtype=float).reshape(size, size) for point in points]


def is_regular_at(L: Expr, spec: BundleSpec, point: Mapping, fields=None) -> bool:
    """Full numeric rank of the top-order Hessian at the point."""
    return full_rank(hessian_at(highest_hessian(L, spec), [point], fields)[0])


def full_rank(mat: np.ndarray) -> bool:
    """Whether the smallest singular value clears the relative cutoff."""
    return _rank(mat) == min(mat.shape)


def _rank(mat: np.ndarray) -> int:
    """Numeric rank: the singular values above RANK_CUTOFF * max(largest, 1)."""
    sv = np.linalg.svd(_finite(mat), compute_uv=False)
    return int(np.sum(sv > RANK_CUTOFF * max(float(sv[0]) if sv.size else 0.0, 1.0)))


def _finite(mat: np.ndarray) -> np.ndarray:
    """mat itself, checked to hold only finite values before a rank decision."""
    if not np.all(np.isfinite(mat)):
        raise EvalDomainError("non-finite value in a numeric rank check")
    return mat


@dataclass
class Classification:
    b_unknowns: int
    b_equations: int
    verdict: str

    def record(self) -> dict:
        return {"b_unknowns": self.b_unknowns, "b_equations": self.b_equations,
                "verdict": self.verdict}


def classify_b_system(spec: BundleSpec) -> Classification:
    """Counts and verdict for the linear system on the order-(k-1) B coefficients (n=1)."""
    m, k = spec.m, spec.k
    unknowns = mi.count_indices(m, k - 1) * m * m
    equations = mi.count_indices(m, k) * m + mi.count_indices(m, k - 1)
    if k == 1 or m == 1:
        verdict = OVERDETERMINED
    elif k == 2 and m == 2:
        verdict = EXACTLY_DETERMINED
    else:
        verdict = UNDERDETERMINED
    return Classification(unknowns, equations, verdict)


def b_system_matrix(spec: BundleSpec):
    """Full 0/1 coefficient matrix of the B-system (rows: trace then tangency; n=1).

    Row labels: ("middle", J) with |J| = k-1, then ("tangency", j, K); column
    labels (i, j, I) with |I| = k-1.
    """
    m, k = spec.m, spec.k
    cols = [(i, j, I)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
            for I in mi.enumerate_indices(m, k - 1)]
    col_pos = {c: ix for ix, c in enumerate(cols)}
    rows = []
    matrix = []
    for J in mi.enumerate_indices(m, k - 1):
        rows.append(("middle", J))
        row = [0] * len(cols)
        for j in range(1, m + 1):
            row[col_pos[(j, j, J)]] = 1
        matrix.append(row)
    for j in range(1, m + 1):
        for K in mi.enumerate_indices(m, k):
            rows.append(("tangency", j, K))
            row = [0] * len(cols)
            for I, i in mi.decompositions(K):
                row[col_pos[(i, j, I)]] = 1
            matrix.append(row)
    return rows, cols, matrix


def exact_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank by exact fraction Gaussian elimination."""
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@dataclass
class SelectionMatrix:
    row_labels: list
    col_labels: list
    matrix: list[list[int]]
    trace: list[tuple]
    line6_cols: set

    def record(self) -> dict:
        def col_name(c):
            return "(i=%d,j=%d,I=%s)" % (c[0], c[1], str(c[2]))

        return {
            "size": len(self.row_labels),
            "selected_columns": [col_name(c) for c in self.col_labels],
        }


def prop31_select(spec: BundleSpec) -> SelectionMatrix:
    """The column-selection algorithm, implemented exactly as listed.

    For each tangency row (j, K): when the decomposition set of K is a
    singleton, its unique column (i, j, I) is selected; otherwise a column
    with i != j (smallest such i).  For each middle row J: column (m, m, J)
    when J(1) = k-1, else (1, 1, J).  Raises SelectionError if no admissible
    column exists for some row.  The square matrix is the selected columns of
    b_system_matrix, the tangency rows first and then the middle rows, each in
    their order there, so the certificate is taken on the counted system.
    """
    m, k = spec.m, spec.k
    if m < 2 or k < 2:
        raise UsageError("selection algorithm requires m >= 2 and k >= 2")
    trace = []
    selected: list[tuple] = []
    line6: set = set()
    for j in range(1, m + 1):
        for K in mi.enumerate_indices(m, k):
            g = mi.decompositions(K)
            if len(g) == 1:
                I, i = g[0]
                col = (i, j, I)
            else:
                cands = [(I, i) for I, i in g if i != j]
                if not cands:
                    raise SelectionError(
                        "no admissible column with i != j for row (j=%d, K=%s)" % (j, K))
                I, i = min(cands, key=lambda p: p[1])
                col = (i, j, I)
                line6.add(col)
            trace.append((("tangency", j, K), col))
            selected.append(col)
    for J in mi.enumerate_indices(m, k - 1):
        col = (m, m, J) if J[0] == k - 1 else (1, 1, J)
        trace.append((("middle", J), col))
        selected.append(col)
    if len(set(selected)) != len(selected):
        raise SelectionError("selection produced duplicate columns")
    rows, cols, full = b_system_matrix(spec)
    col_pos = {c: ix for ix, c in enumerate(cols)}
    picked = [col_pos[c] for c in selected]
    order = sorted(range(len(rows)), key=lambda r: rows[r][0] != "tangency")
    return SelectionMatrix([rows[r] for r in order], selected,
                           [[full[r][c] for c in picked] for r in order], trace, line6)


def prop31_verify_detailed(sel: SelectionMatrix) -> tuple[bool, str]:
    """Nonsingularity by the stated elimination order, with an exact fallback.

    Peel the columns picked for non-singleton rows (one 1 each), then the
    remaining tangency rows (one 1 each), then require the residual matrix to
    be a permutation matrix.  If that order stalls, fall back to exact
    Gaussian elimination on the full square matrix.  Returns the verdict and
    which route established it ("elimination-order" or "exact-fallback").
    """
    n = len(sel.row_labels)
    if n != len(sel.col_labels):
        return False, "exact-fallback"

    def fallback() -> tuple[bool, str]:
        return exact_rank(sel.matrix) == n, "exact-fallback"

    live_rows = set(range(n))
    live_cols = set(range(n))
    matrix = sel.matrix
    col_index = {c: ix for ix, c in enumerate(sel.col_labels)}

    for col in sel.line6_cols:
        cix = col_index[col]
        if cix not in live_cols:
            continue
        ones = [r for r in live_rows if matrix[r][cix] == 1]
        if len(ones) != 1:
            return fallback()
        live_rows.discard(ones[0])
        live_cols.discard(cix)

    for rix, label in enumerate(sel.row_labels):
        if label[0] != "tangency" or rix not in live_rows:
            continue
        ones = [c for c in live_cols if matrix[rix][c] == 1]
        if len(ones) != 1:
            return fallback()
        live_rows.discard(rix)
        live_cols.discard(ones[0])

    for r in live_rows:
        ones = [c for c in live_cols if matrix[r][c] == 1]
        if len(ones) != 1:
            return fallback()
    for c in live_cols:
        ones = [r for r in live_rows if matrix[r][c] == 1]
        if len(ones) != 1:
            return fallback()
    return True, "elimination-order"


# ---------------------------------------------------------------------------
# Pointwise multisymplecticity (kernel of the restricted form)


def _constraints(catalog: CoordCatalog, L: Expr) -> list[tuple[Sym, Expr]]:
    """The constraint set W1 and H0 = 0, each residual paired with the coordinate it solves.

    Each W1 residual, in the order of top_partials, is paired with the
    momentum of the first decomposition of its index; H0 comes last, paired
    with p.  Each residual is affine with unit coefficient in its coordinate.
    """
    out = [(mom_sym(u.alpha, *mi.decompositions(u.index)[0]), esub(momentum_sum(u), d))
           for u, d in top_partials(catalog, L).items()]
    out.append((catalog.p, hamiltonian_h0(catalog, L)))
    return out


def on_constraint_point(L: Expr, spec: BundleSpec, rng: random.Random,
                        fields=None) -> dict[Sym, float]:
    """A random numeric point satisfying the momentum and scalar constraints."""
    return on_constraint_points(L, spec, rng, 1, fields)[0]


def on_constraint_points(L: Expr, spec: BundleSpec, rng: random.Random, count: int,
                         fields=None) -> list[dict[Sym, float]]:
    """Random numeric points satisfying the momentum and scalar constraints.

    Free coordinates are drawn uniformly from [1, 2], x and u first, then the
    unsolved momenta in catalog order.  Each W1 momentum, and then p, is minus
    its residual evaluated with that coordinate set to 0.  No W1 residual holds
    another's solved momentum or p, so one compiled call solves all of W1 and
    a second one p.
    """
    catalog = build_catalog(spec)
    solved, residuals = zip(*_constraints(catalog, L))
    values_at = compile_at(residuals, fields)
    free = catalog.base_syms + catalog.jet_syms + tuple(s for s in catalog.mom_syms
                                                        if s not in solved)
    points = []
    for _ in range(count):
        point = {s: rng.uniform(1.0, 2.0) for s in free}
        point.update((s, 0.0) for s in solved)
        *w1, _ = values_at(point)
        # 0.0 - r, not -r: a residual of exactly 0 solves to +0.0
        point.update(zip(solved, (0.0 - r for r in w1)))
        point[catalog.p] = 0.0 - values_at(point)[-1]
        points.append(point)
    return points


def omega2_kernel_dim_at(L: Expr, spec: BundleSpec, point: Mapping, fields=None) -> int:
    """Kernel dimension of the restricted premultisymplectic form at one on-constraint point."""
    return omega2_kernel_dims(L, spec, [point], fields)[0]


def omega2_kernel_dims(L: Expr, spec: BundleSpec, points: Sequence[Mapping],
                       fields=None) -> list[int]:
    """Kernel dimensions of the restricted premultisymplectic form at on-constraint points.

    The tangent space T is the graph over the free coordinates (_tangent_basis),
    of a dimension fixed without a rank decision; the kernel is the null space
    of v -> components of the contracted form restricted to T.  H0 = 0 is one
    of the constraints, so dH0 vanishes on T and Omega_H0 restricts to the
    canonical form there, whose terms have coefficients -1 or 1; each
    component on T is one signed entry of the graph (_graph_rows).  The
    constraints and their gradients are built and compiled once, with the
    index tables of the rows; each point then takes one compiled call.
    """
    if spec.m < 2:
        raise UsageError("kernel check requires base dimension m >= 2")
    catalog = build_catalog(spec)
    constraints = _constraints(catalog, L)
    residuals = [r for _, r in constraints]
    coords = list(catalog.coords)
    cpos = {c: ix for ix, c in enumerate(coords)}
    solved = [cpos[s] for s, _ in constraints]
    grads = [gradient(rexpr, coords) for rexpr in residuals]
    slots = tuple(np.array([(r, cpos[c]) for r, g in enumerate(grads) for c in g],
                           dtype=int).reshape(-1, 2).T)
    _, rows_at = _graph_rows(canonical_form(catalog).terms, cpos, solved)
    values_at = compile_at(residuals + [d for g in grads for d in g.values()], fields)
    n_res = len(residuals)

    dims = []
    for point in points:
        values = values_at(point)
        for rexpr, val in zip(residuals, values):
            if not abs(val) <= RESIDUAL_TOL:  # a NaN residual fails too
                raise PreconditionError("point is off the constraint set: |%s| = %.3e"
                                        % (render(normalize(rexpr)), abs(val)))
        grad = np.zeros((n_res, len(coords)))
        grad[slots] = values[n_res:]
        tangent = _tangent_basis(grad, solved)
        dims.append(tangent.shape[1] - _rank(rows_at(tangent)))
    return dims


def _tangent_basis(grad: np.ndarray, solved: Sequence[int]) -> np.ndarray:
    """The null space of grad as the graph over the free coordinates, one column
    per free coordinate in catalog order.

    Row r solves coordinate solved[r] (_constraints), so grad on the solved
    columns is unit lower-triangular and the graph is T[free] = I,
    T[solved] = -G_S^-1 G_F.
    """
    grad = _finite(grad)
    free = sorted(set(range(grad.shape[1])) - set(solved))
    graph = np.zeros((grad.shape[1], len(free)))
    graph[free, np.arange(len(free))] = 1.0
    graph[solved] = -np.linalg.solve(grad[:, solved], grad[:, free])
    return graph


def _graph_rows(terms: Mapping[tuple[Sym, ...], Expr], cpos: Mapping[Sym, int],
                solved: Sequence[int]):
    """The contracted form on the graph basis T of the tangent space (_tangent_basis):
    the m-subsets of the basis that its rows are on, and its rows as a function of T.

    T has one row per coordinate (positions cpos); column f belongs to the
    f-th free coordinate, whose row is the unit vector e_f.  Each term
    c * d(w_0) ^ ... ^ d(w_m), with c a constant, has one mover, a momentum or
    p, and m free factors, on the columns F.  Its component on the
    (m+1)-subset F + {t} of the basis is then the single entry
    c * sign * T[mover, t], where sign sorts the term's word of columns with
    the mover's replaced by t; a free mover reaches only its own column.
    rows[combo, s] is the component on sorted((s,) + combo), with the sign of
    the move of s into place, so each t gives m + 1 entries: on the row F for
    s = t, and on the row F + {t} - {s} for each s in F.  Every other row is 0
    and is left out.  The index tables are built here, once; each T then takes
    one gather and one bincount.  A term of any other shape raises
    InternalConsistencyError.
    """
    taken = set(solved)
    column = {ix: f for f, ix in enumerate(ix for ix in range(len(cpos)) if ix not in taken)}
    dim_t = len(column)
    combos: dict[tuple[int, ...], int] = {}
    target, source, sign = [], [], []
    for word, coef in terms.items():
        movers = [q for q, s in enumerate(word) if s.kind in (MOMENTUM, PSCALAR)]
        faces = [column.get(cpos[s]) for s in word]
        if len(movers) != 1 or None in faces[:movers[0]] + faces[movers[0] + 1:]:
            raise InternalConsistencyError(
                "kernel check: form term %s is not one momentum factor with free factors"
                % "^".join("d(%s)" % s.render() for s in word))
        q = movers[0]
        mover = cpos[word[q]]
        for t in range(dim_t) if faces[q] is None else (faces[q],):
            moved = sort_word(tuple(faces[:q]) + (t,) + tuple(faces[q + 1:]))
            if moved is None:  # t is a column of F
                continue
            subset, parity = moved
            for place, s in enumerate(subset):
                row = combos.setdefault(subset[:place] + subset[place + 1:], len(combos))
                target.append(row * dim_t + s)
                source.append(mover * dim_t + t)
                sign.append(float(coef.q) * parity * (-1) ** place)
    target, source, sign = np.array(target, dtype=int), np.array(source, dtype=int), np.array(sign)
    size = len(combos) * dim_t

    def rows_at(tangent: np.ndarray) -> np.ndarray:
        return np.bincount(target, sign * tangent.ravel()[source], size).reshape(-1, dim_t)

    return list(combos), rows_at
