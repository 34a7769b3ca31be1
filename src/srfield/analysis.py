"""Regularity, count classification of the coefficient system, the column-selection
algorithm with its rank certificate, and the pointwise multisymplecticity kernel check.

The selection matrix and its verification run in exact integer arithmetic; the
regularity and kernel checks are numeric with a relative singular-value cutoff
of 1e-8.  The kernel check builds and compiles its constraints, their
gradients and the form once per problem and takes one compiled call per
point.  It contracts the form through its components on the (m+1)-subsets of
the tangent basis, one stacked determinant call per form term.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

import numpy as np

from . import multiindex as mi
from .assembler import equation_families, hamiltonian_h0, omega_h0
from .equations import TAG_W1
from .errors import PreconditionError, SelectionError, UsageError
from .extalg import collect
from .jetmodel import BundleSpec, build_catalog
from .symexpr import (
    Expr,
    Sym,
    bind_values,
    compile_expr,
    evaluate,
    free_syms,
    gradient,
    jet_sym,
    mom_sym,
    normalize,
    partial,
    render,
    substitute_fields,
)

RANK_CUTOFF = 1e-8

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
    labels = [(alpha, K)
              for alpha in range(1, spec.n + 1)
              for K in mi.enumerate_indices(spec.m, spec.k)]
    entries = []
    for alpha, K in labels:
        row_base = partial(L, jet_sym(alpha, K))
        entries.append([normalize(partial(row_base, jet_sym(beta, J)))
                        for beta, J in labels])
    return HessianMatrix(labels, entries)


def hessian_at(hess: HessianMatrix, point: Mapping, fields=None) -> np.ndarray:
    size = hess.size()
    values = evaluate([e for row in hess.entries for e in row], point, fields)
    return np.array(values, dtype=float).reshape(size, size)


def is_regular_at(L: Expr, spec: BundleSpec, point: Mapping, fields=None) -> bool:
    """Full numeric rank of the top-order Hessian at the point."""
    return full_rank(hessian_at(highest_hessian(L, spec), point, fields))


def full_rank(mat: np.ndarray) -> bool:
    """Whether the smallest singular value clears the relative cutoff."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0:
        return True
    return bool(sv[-1] > RANK_CUTOFF * max(sv[0], 1.0))


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
    unknowns = comb(m - 1 + k - 1, m - 1) * m * m
    equations = comb(m - 1 + k, m - 1) * m + comb(m - 1 + k - 1, m - 1)
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
    column exists for some row.
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

    rows = []
    matrix = []
    col_pos = {c: ix for ix, c in enumerate(selected)}
    for j in range(1, m + 1):
        for K in mi.enumerate_indices(m, k):
            rows.append(("tangency", j, K))
            row = [0] * len(selected)
            for I, i in mi.decompositions(K):
                if (i, j, I) in col_pos:
                    row[col_pos[(i, j, I)]] = 1
            matrix.append(row)
    for J in mi.enumerate_indices(m, k - 1):
        rows.append(("middle", J))
        row = [0] * len(selected)
        for jj in range(1, m + 1):
            if (jj, jj, J) in col_pos:
                row[col_pos[(jj, jj, J)]] = 1
        matrix.append(row)
    return SelectionMatrix(rows, selected, matrix, trace, line6)


def prop31_verify(sel: SelectionMatrix) -> bool:
    return prop31_verify_detailed(sel)[0]


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


def on_constraint_point(L: Expr, spec: BundleSpec, rng: random.Random,
                        fields=None) -> dict[Sym, float]:
    """A random numeric point satisfying the momentum and scalar constraints.

    Free coordinates are drawn uniformly from [1, 2]; one momentum per
    top-order constraint and the scalar momentum are then solved explicitly
    (both are affine in the solved-for variables).
    """
    catalog = build_catalog(spec)
    point: dict[Sym, float] = {}
    for s in catalog.base_syms + catalog.jet_syms:
        point[s] = rng.uniform(1.0, 2.0)
    solved: dict[Sym, tuple[int, mi.MultiIndex]] = {}
    for alpha in range(1, spec.n + 1):
        for K in mi.enumerate_indices(spec.m, spec.k):
            I0, i0 = mi.decompositions(K)[0]
            solved[mom_sym(alpha, I0, i0)] = (alpha, K)
    for s in catalog.mom_syms:
        if s not in solved:
            point[s] = rng.uniform(1.0, 2.0)
    # every solved momentum belongs to one K, so the right sides need only x and u
    *rhs, l_value = evaluate([partial(L, jet_sym(alpha, K)) for alpha, K in solved.values()]
                             + [L], point, fields)
    for (dep, (alpha, K)), rhs_value in zip(solved.items(), rhs):
        others = sum(point[mom_sym(alpha, I, i)]
                     for I, i in mi.decompositions(K)
                     if mom_sym(alpha, I, i) != dep)
        point[dep] = rhs_value - others
    phi_terms = sum(point[s] * point[jet_sym(s.alpha, s.index.bump(s.i))]
                    for s in catalog.mom_syms)
    point[catalog.p] = l_value - phi_terms
    return point


def omega2_kernel_dim_at(L: Expr, spec: BundleSpec, point: Mapping,
                         fields=None, residual_tol: float = 1e-9) -> int:
    """Kernel dimension of the restricted premultisymplectic form at one on-constraint point."""
    return omega2_kernel_dims(L, spec, [point], fields, residual_tol)[0]


def omega2_kernel_dims(L: Expr, spec: BundleSpec, points: Sequence[Mapping],
                       fields=None, residual_tol: float = 1e-9) -> list[int]:
    """Kernel dimensions of the restricted premultisymplectic form at on-constraint points.

    The tangent space is the numeric null space of the constraint
    differentials; the kernel is the null space of v -> components of the
    contracted form restricted to that tangent space.  The constraints, their
    gradients and the form are built and compiled once; each point then takes
    one compiled call.
    """
    if spec.m < 2:
        raise UsageError("kernel check requires base dimension m >= 2")
    catalog = build_catalog(spec)
    residuals = [eq.residual() for eq in equation_families(catalog, L).values()
                 if eq.tag == TAG_W1] + [hamiltonian_h0(catalog, L)]
    coords = list(catalog.coords)
    cpos = {c: ix for ix, c in enumerate(coords)}
    grads = [gradient(rexpr, coords) for rexpr in residuals]
    slots = tuple(np.array([(r, cpos[c]) for r, g in enumerate(grads) for c in g],
                           dtype=int).reshape(-1, 2).T)
    terms = collect(omega_h0(catalog, L))
    term_coords = [[cpos[s] for s in mono] for mono in terms]

    group = residuals + [d for g in grads for d in g.values()] + list(terms.values())
    if fields:
        group = [substitute_fields(x, fields) for x in group]
    syms = sorted(set().union(*map(free_syms, group)))
    values_at = compile_expr(group, syms)
    n_res, n_grad = len(residuals), len(slots[0])

    dims = []
    for point in points:
        values = values_at(bind_values(point, syms))
        for rexpr, val in zip(residuals, values):
            if abs(val) > residual_tol:
                raise PreconditionError("point is off the constraint set: |%s| = %.3e"
                                        % (render(normalize(rexpr)), abs(val)))
        grad = np.zeros((n_res, len(coords)))
        grad[slots] = values[n_res:n_res + n_grad]
        tangent = _null_space(grad)
        dim_t = tangent.shape[1]
        rows = _minor_rows(tangent, term_coords, values[n_res + n_grad:], spec.m)
        if rows.size == 0:
            dims.append(dim_t)
            continue
        sv = np.linalg.svd(rows, compute_uv=False)
        cutoff = RANK_CUTOFF * max(float(sv[0]) if sv.size else 0.0, 1.0)
        dims.append(dim_t - int(np.sum(sv > cutoff)))
    return dims


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


def _null_space(mat: np.ndarray) -> np.ndarray:
    u, sv, vt = np.linalg.svd(mat)
    cutoff = RANK_CUTOFF * max(float(sv[0]) if sv.size else 0.0, 1.0)
    rank = int(np.sum(sv > cutoff))
    return vt[rank:].T
