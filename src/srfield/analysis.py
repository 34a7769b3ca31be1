"""Regularity, count classification of the coefficient system, the column-selection
algorithm with its rank certificate, and the pointwise multisymplecticity kernel check.

The selection matrix and its verification run in exact integer arithmetic; the
regularity and kernel ranks are numeric, with one relative singular-value
cutoff of 1e-8.  The constraint set W1 and H0 = 0 is read from one list of
residuals, each paired with the coordinate it solves: the sample points are
solved from it, and the kernel check tests it and reads its tangent space off
as a graph over the free coordinates.  Each check builds and compiles its
expressions once per problem, the Hessian included, and takes one compiled
call per point.  The kernel check contracts the form through its components
on the (m+1)-subsets of the tangent basis, one stacked determinant call per
form term.
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
from .errors import EvalDomainError, PreconditionError, SelectionError, UsageError
from .extalg import collect
from .jetmodel import BundleSpec, CoordCatalog, build_catalog
from .symexpr import (
    Expr,
    Sym,
    compile_at,
    gradient,
    jet_sym,
    mom_sym,
    normalize,
    partial,
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
    labels = [(alpha, K)
              for alpha in range(1, spec.n + 1)
              for K in mi.enumerate_indices(spec.m, spec.k)]
    entries = []
    for alpha, K in labels:
        row_base = partial(L, jet_sym(alpha, K))
        entries.append([normalize(partial(row_base, jet_sym(beta, J)))
                        for beta, J in labels])
    return HessianMatrix(labels, entries)


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


def _constraints(catalog: CoordCatalog, L: Expr) -> list[tuple[Sym, Expr]]:
    """The constraint set W1 and H0 = 0, each residual paired with the coordinate it solves.

    Each W1 residual, in the order of equation_families, is paired with the
    momentum of the first decomposition of its index; H0 comes last, paired
    with p.  Each residual is affine with unit coefficient in its coordinate.
    """
    out = []
    for u, eq in equation_families(catalog, L).items():
        if eq.tag == TAG_W1:
            out.append((mom_sym(u.alpha, *mi.decompositions(u.index)[0]), eq.residual()))
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

    The tangent space is the graph over the free coordinates (_tangent_basis),
    of a dimension fixed without a rank decision; the kernel is the null space
    of v -> components of the contracted form restricted to that tangent
    space.  The constraints, their gradients and the form are built and
    compiled once; each point then takes one compiled call.
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
    terms = collect(omega_h0(catalog, L))
    term_coords = [[cpos[s] for s in mono] for mono in terms]

    values_at = compile_at(residuals + [d for g in grads for d in g.values()]
                           + list(terms.values()), fields)
    n_res, n_grad = len(residuals), len(slots[0])

    dims = []
    for point in points:
        values = values_at(point)
        for rexpr, val in zip(residuals, values):
            if not abs(val) <= RESIDUAL_TOL:  # a NaN residual fails too
                raise PreconditionError("point is off the constraint set: |%s| = %.3e"
                                        % (render(normalize(rexpr)), abs(val)))
        grad = np.zeros((n_res, len(coords)))
        grad[slots] = values[n_res:n_res + n_grad]
        tangent = _tangent_basis(grad, solved)
        rows = _minor_rows(tangent, term_coords, values[n_res + n_grad:], spec.m)
        dims.append(tangent.shape[1] - _rank(rows))
    return dims


def _tangent_basis(grad: np.ndarray, solved: Sequence[int]) -> np.ndarray:
    """Orthonormal basis of the null space of grad, one column per free coordinate.

    Row r solves coordinate solved[r] (_constraints), so grad on the solved
    columns is unit lower-triangular and the null space is the graph
    T[free] = I, T[solved] = -G_S^-1 G_F; its QR factor is the basis.
    """
    grad = _finite(grad)
    free = sorted(set(range(grad.shape[1])) - set(solved))
    graph = np.zeros((grad.shape[1], len(free)))
    graph[free, np.arange(len(free))] = 1.0
    graph[solved] = -np.linalg.solve(grad[:, solved], grad[:, free])
    return np.linalg.qr(graph)[0]


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
