"""Hessians, regularity, count classification, column selection, kernel dimensions."""

import copy
import itertools
import random
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from srfield import symexpr as sx
from srfield import analysis as an
from srfield import assembler
from srfield.assembler import canonical_form, equation_families, hamiltonian_h0, omega_h0
from srfield.corpus import CORPUS_NAMES, corpus_problem
from srfield.equations import TAG_W1
from srfield.errors import (
    EvalDomainError,
    InternalConsistencyError,
    ParseError,
    PreconditionError,
    UsageError,
)
from srfield.extalg import collect
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import MultiIndex, count_indices
from srfield.problem import parse_problem
from srfield.report import REGULARITY_SAMPLES, run_problem

from conftest import CH_L_TEXT, PLATE_L_TEXT, bench_workloads, jet, mom
from forms_reference import _minor_rows
from routes_reference import built_selection_rows
from test_cli_fuzz import problem_text

PLATE_PROBLEM_TEXT = "m=2\nn=1\nk=2\nfield q(x[1],x[2]) = 1\nlagrangian = %s\n" % PLATE_L_TEXT


def test_hessian_plate(plate_L):
    h = an.highest_hessian(plate_L, BundleSpec(2, 1, 2))
    assert h.records()["entries"] == [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]]
    assert [lbl for lbl in h.records()["labels"]] == ["u[2,0]@1", "u[1,1]@1", "u[0,2]@1"]


def test_hessian_ch(ch_L):
    h = an.highest_hessian(ch_L, BundleSpec(2, 1, 2))
    assert h.records()["entries"] == [["0", "0", "0"], ["0", "1/u[1,0]", "0"], ["0", "0", "0"]]


def test_hessian_linear_lagrangian():
    cat = build_catalog(BundleSpec(2, 1, 2))
    L = sx.parse("u[2,0] + 3*u[0,2] - u[0,0]", cat)
    h = an.highest_hessian(L, BundleSpec(2, 1, 2))
    assert all(entry == "0" for row in h.records()["entries"] for entry in row)


def test_hessian_symmetry(ch_L):
    h = an.highest_hessian(ch_L, BundleSpec(2, 1, 2))
    n = h.size()
    for r in range(n):
        for c in range(n):
            assert sx.equivalent(h.entries[r][c], h.entries[c][r])


@pytest.mark.parametrize("pid", ["plate", "camassa-holm", "ladder-213", "ladder-222", "ladder-312"])
def test_hessian_rows_match_per_entry_partials(pid):
    problem = (corpus_problem(pid) if pid in CORPUS_NAMES
               else parse_problem(dict(bench_workloads().LADDER)[pid]))
    L, spec = problem.lagrangian(), problem.bundle
    hess = an.highest_hessian(L, spec)
    tops = [sx.jet_sym(alpha, K) for alpha, K in hess.labels]
    assert hess.entries == [[sx.normalize(sx.partial(sx.partial(L, u), v)) for v in tops]
                            for u in tops]


def test_regularity_plate(plate_L):
    rng = random.Random(1)
    cat = build_catalog(BundleSpec(2, 1, 2), fields={"q": (1, 2)})
    for _ in range(5):
        point = {s: rng.uniform(1, 2) for s in cat.coords}
        assert an.is_regular_at(plate_L, BundleSpec(2, 1, 2), point)


def test_regularity_ch_singular(ch_L):
    rng = random.Random(2)
    cat = build_catalog(BundleSpec(2, 1, 2))
    for _ in range(5):
        point = {s: rng.uniform(1, 2) for s in cat.coords}
        point[jet(1, 1, 0)] = 1.0
        assert not an.is_regular_at(ch_L, BundleSpec(2, 1, 2), point)


def test_regularity_identity_hessian():
    cat = build_catalog(BundleSpec(2, 1, 2))
    L = sx.parse("1/2*(u[2,0]^2 + u[1,1]^2 + u[0,2]^2)", cat)
    point = {s: 0.5 for s in cat.coords}
    assert an.is_regular_at(L, BundleSpec(2, 1, 2), point)


def test_classification_cases():
    c = an.classify_b_system(BundleSpec(2, 1, 2))
    assert (c.b_unknowns, c.b_equations, c.verdict) == (8, 8, an.EXACTLY_DETERMINED)
    for m in range(1, 5):
        c1 = an.classify_b_system(BundleSpec(m, 1, 1))
        assert (c1.b_unknowns, c1.b_equations) == (m * m, m * m + 1)
        assert c1.verdict == an.OVERDETERMINED
    for k in range(1, 5):
        cm = an.classify_b_system(BundleSpec(1, 1, k))
        assert cm.verdict == an.OVERDETERMINED
        assert (cm.b_unknowns, cm.b_equations) == (1, 2)
    c3 = an.classify_b_system(BundleSpec(3, 1, 2))
    assert (c3.b_unknowns, c3.b_equations, c3.verdict) == (27, 21, an.UNDERDETERMINED)


def test_classification_closed_forms():
    for m in range(1, 5):
        for k in range(1, 5):
            c = an.classify_b_system(BundleSpec(m, 1, k))
            assert c.b_unknowns == comb(m - 1 + k - 1, m - 1) * m * m
            assert c.b_equations == comb(m - 1 + k, m - 1) * m + comb(m - 1 + k - 1, m - 1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_classification_against_exact_rank(m, k):
    """The verdicts agree with the exact rank of the full 0/1 coefficient matrix."""
    spec = BundleSpec(m, 1, k)
    rows, cols, matrix = an.b_system_matrix(spec)
    c = an.classify_b_system(spec)
    assert len(rows) == c.b_equations and len(cols) == c.b_unknowns
    rank = an.exact_rank(matrix)
    if c.verdict == an.OVERDETERMINED:
        assert len(rows) > len(cols)
        assert rank == len(cols)  # still full column rank
    elif c.verdict == an.EXACTLY_DETERMINED:
        assert len(rows) == len(cols) == rank
    else:
        assert len(cols) > len(rows)
        assert rank == len(rows)  # maximal row rank


def test_prop31_selection_m2k2():
    sel = an.prop31_select(BundleSpec(2, 1, 2))
    assert len(sel.row_labels) == len(sel.col_labels) == 8
    assert all(v in (0, 1) for row in sel.matrix for v in row)
    assert an.prop31_verify(sel)


def test_prop31_m2k3_size_from_enumeration():
    # equations count: m * #{|K|=k} + #{|J|=k-1} = 2*4 + 3 = 11
    spec = BundleSpec(2, 1, 3)
    expected = 2 * count_indices(2, 3) + count_indices(2, 2)
    assert expected == 11
    sel = an.prop31_select(spec)
    assert len(sel.row_labels) == expected
    assert an.prop31_verify(sel)


def test_prop31_singleton_rows_forced():
    sel = an.prop31_select(BundleSpec(3, 1, 2))
    forced = dict(sel.trace)
    # K = (2,0,0) has the single decomposition ((1,0,0), 1)
    K = MultiIndex((2, 0, 0))
    for j in (1, 2, 3):
        assert forced[("tangency", j, K)] == (1, j, MultiIndex((1, 0, 0)))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_prop31_all_desk_scale(m, k):
    sel = an.prop31_select(BundleSpec(m, 1, k))
    assert an.prop31_verify(sel)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_prop31_matrix_is_b_system_columns(m, k):
    """The certificate's matrix is the selected columns of the counted B-system,
    tangency rows first, and equals the one built row by row from the selection."""
    spec = BundleSpec(m, 1, k)
    sel = an.prop31_select(spec)
    rows, cols, full = an.b_system_matrix(spec)
    order = ([r for r, label in enumerate(rows) if label[0] == "tangency"]
             + [r for r, label in enumerate(rows) if label[0] == "middle"])
    picked = [cols.index(c) for c in sel.col_labels]
    assert sel.row_labels == [rows[r] for r in order]
    assert sel.matrix == [[full[r][c] for c in picked] for r in order]
    ref = built_selection_rows(spec, sel)
    assert (sel.row_labels, sel.matrix) == (ref.row_labels, ref.matrix)
    assert an.prop31_verify_detailed(sel) == an.prop31_verify_detailed(ref)


def test_prop31_out_of_hypothesis():
    with pytest.raises(UsageError):
        an.prop31_select(BundleSpec(1, 1, 2))
    with pytest.raises(UsageError):
        an.prop31_select(BundleSpec(2, 1, 1))


def test_prop31_corrupted_selection_fails():
    sel = an.prop31_select(BundleSpec(2, 1, 2))
    bad = copy.deepcopy(sel)
    for r in range(len(bad.matrix)):
        bad.matrix[r][0] = bad.matrix[r][1]  # duplicate a column: singular
    assert not an.prop31_verify(bad)


def _on_point(L, spec, seed, fields=None):
    rng = random.Random(seed)
    return an.on_constraint_point(L, spec, rng, fields)


def test_kernel_plate(plate_L):
    spec = BundleSpec(2, 1, 2)
    fields = {"q": sx.Const(1)}
    for seed in range(5):
        pt = _on_point(plate_L, spec, seed, fields)
        assert an.omega2_kernel_dim_at(plate_L, spec, pt, fields) == 0


def test_kernel_gradient_reaches_bound_field(plate_catalog, plate_L):
    # H0 depends on x[1] only through q*u[0,0]; the constraint gradient keeps that entry
    x1 = sx.base_sym(1)
    grad = sx.gradient(hamiltonian_h0(plate_catalog, plate_L), plate_catalog.coords)
    assert x1 in grad
    assert sx.render(sx.normalize(grad[x1])) == "u[0,0]*q[1,0]"
    spec = BundleSpec(2, 1, 2)
    fields = {"q": sx.Atom(x1)}
    pt = _on_point(plate_L, spec, 3, fields)
    assert sx.evaluate(grad[x1], pt, fields) == pt[jet(1, 0, 0)]
    assert an.omega2_kernel_dim_at(plate_L, spec, pt, fields) == 0


def test_kernel_ch(ch_L):
    spec = BundleSpec(2, 1, 2)
    for seed in range(5):
        pt = _on_point(ch_L, spec, seed)
        assert an.omega2_kernel_dim_at(ch_L, spec, pt) >= 1


def test_kernel_quadratic():
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    L = sx.parse("1/2*(u[2,0]^2 + u[1,1]^2 + u[0,2]^2)", cat)
    for seed in range(5):
        pt = _on_point(L, spec, seed)
        assert an.omega2_kernel_dim_at(L, spec, pt) == 0


def test_kernel_matches_pointwise_regularity(plate_L, ch_L):
    spec = BundleSpec(2, 1, 2)
    cases = [(plate_L, {"q": sx.Const(1)}), (ch_L, None)]
    for L, fields in cases:
        for seed in range(5):
            pt = _on_point(L, spec, seed, fields)
            trivial = an.omega2_kernel_dim_at(L, spec, pt, fields) == 0
            assert trivial == an.is_regular_at(L, spec, pt, fields)


def test_kernel_plate_3d():
    spec = BundleSpec(3, 1, 2)
    cat = build_catalog(spec, fields={"q": (1, 2, 3)})
    L = sx.parse("1/2*(u[2,0,0]^2 + u[0,2,0]^2 + u[0,0,2]^2 + 2*u[1,1,0]^2"
                 " + 2*u[1,0,1]^2 + 2*u[0,1,1]^2) - q*u[0,0,0]", cat)
    fields = {"q": sx.Const(1)}
    pt = _on_point(L, spec, 0, fields)
    assert an.omega2_kernel_dim_at(L, spec, pt, fields) == 0
    assert an.is_regular_at(L, spec, pt, fields)


def _exact_det(mat):
    """Determinant by Laplace expansion along the first row, in exact arithmetic."""
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** b * mat[0][b] * _exact_det([row[:b] + row[b + 1:] for row in mat[1:]])
               for b in range(len(mat)) if mat[0][b])


def test_minor_rows_match_exact_minors():
    cat = build_catalog(BundleSpec(2, 1, 2))
    x1, x2 = cat.base_syms
    u00, u10, u01 = jet(1, 0, 0), jet(1, 1, 0), jet(1, 0, 1)
    p1, p2 = mom(1, (0, 0), 1), mom(1, (0, 0), 2)
    syms = [x1, x2, u00, u10, u01, p1, p2, cat.p]
    cpos = {s: ix for ix, s in enumerate(syms)}
    solved = [cpos[p1], cpos[cat.p]]
    free = [r for r in range(len(syms)) if r not in solved]
    # a graph basis: unit rows on the free coordinates, dyadic entries, exact
    # in floats and in Fractions, on the solved ones
    rng = random.Random(0)
    tangent = [[Fraction(rng.randint(-64, 64), 32) for _ in range(6)] if r in solved
               else [Fraction(int(c == free.index(r))) for c in range(6)]
               for r in range(len(syms))]
    # shaped like the canonical form, with the mover first, between and last,
    # a free mover p2 and a coefficient other than -1 or 1
    terms = {(x1, x2, cat.p): sx.Const(-1), (p1, u00, x2): sx.Const(-1),
             (u00, x1, p2): sx.Const(1), (u10, p1, x1): sx.Const(Fraction(3, 2))}
    combos, rows_at = an._graph_rows(terms, cpos, solved)
    floats = np.array(tangent, dtype=float)
    rows = rows_at(floats)
    assert rows.shape == (len(combos), 6)
    exact = {combo: [sum(c.q * _exact_det([[tangent[cpos[sym]][col] for col in (s,) + combo]
                                           for sym in word])
                         for word, c in terms.items()) for s in range(6)]
             for combo in itertools.combinations(range(6), 2)}
    scale = max(abs(v) for row in exact.values() for v in row)
    assert scale > 0
    assert len(set(combos)) == len(combos)
    for combo, row in zip(combos, rows):
        for s in range(6):
            assert abs(row[s] - float(exact[combo][s])) <= 1e-12 * float(scale)
            if s in combo:
                assert row[s] == 0.0
    # every row left out is 0
    assert all(v == 0 for combo, row in exact.items() if combo not in combos for v in row)
    # moving s past one more basis vector of the (m+1)-subset flips the sign
    at = {combo: r for r, combo in enumerate(combos)}
    assert rows[at[(1, 2)], 0] == -rows[at[(0, 2)], 1] == rows[at[(0, 1)], 2] != 0
    # the order of the factors fixes the sign of their term
    one = an._graph_rows({(x2, u00, p1): sx.Const(1)}, cpos, solved)
    swapped = an._graph_rows({(x2, p1, u00): sx.Const(1)}, cpos, solved)
    assert one[0] == swapped[0]
    assert np.abs(one[1](floats)).max() > 0
    assert np.array_equal(swapped[1](floats), -one[1](floats))


@pytest.mark.parametrize("mono,solved", [("x[1] x[2] u[0,0]", ""),
                                         ("x[1] p[0,0;1] p", ""),
                                         ("x[2] u[0,0] p[0,0;1]", "u[0,0]")],
                         ids=["no-mover", "two-movers", "solved-non-mover"])
def test_graph_rows_rejects_misshaped_terms(mono, solved):
    cat = build_catalog(BundleSpec(2, 1, 2))
    by_name = {s.render(): s for s in cat.coords}
    word = tuple(by_name[name] for name in mono.split())
    cpos = {c: ix for ix, c in enumerate(cat.coords)}
    solved = [cpos[by_name[name]] for name in solved.split()] + [cpos[cat.p]]
    name = "^".join("d(%s)" % s for s in mono.split())
    with pytest.raises(InternalConsistencyError, match=re.escape(name)):
        an._graph_rows({(cat.base_syms[0], cat.base_syms[1], cat.p): sx.Const(-1),
                        word: sx.Const(1)}, cpos, solved)


_PLATE_3D = ("1/2*(u[2,0,0]^2 + u[0,2,0]^2 + u[0,0,2]^2 + 2*u[1,1,0]^2"
             " + 2*u[1,0,1]^2 + 2*u[0,1,1]^2) - q*u[0,0,0]")


@pytest.mark.parametrize("case", ["plate", "ch", "plate3d"])
def test_kernel_dims_match_per_point(case, plate_L, ch_L):
    if case == "plate3d":
        spec = BundleSpec(3, 1, 2)
        L = sx.parse(_PLATE_3D, build_catalog(spec, fields={"q": (1, 2, 3)}))
    else:
        spec = BundleSpec(2, 1, 2)
        L = plate_L if case == "plate" else ch_L
    fields = None if case == "ch" else {"q": sx.Const(1)}
    rng = random.Random(4)
    pts = [an.on_constraint_point(L, spec, rng, fields) for _ in range(3)]
    dims = an.omega2_kernel_dims(L, spec, pts, fields)
    assert dims == [an.omega2_kernel_dim_at(L, spec, p, fields) for p in pts]
    assert all(d >= 1 for d in dims) if case == "ch" else dims == [0, 0, 0]


def test_kernel_dims_build_once(ch_L, monkeypatch):
    spec = BundleSpec(2, 1, 2)
    rng = random.Random(5)
    pts = [an.on_constraint_point(ch_L, spec, rng) for _ in range(5)]
    calls = {"top_partials": 0, "canonical_form": 0, "omega_h0": 0}
    for module, name in ((an, "top_partials"), (an, "canonical_form"), (assembler, "omega_h0")):
        def counted(*args, _name=name, _orig=getattr(module, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(module, name, counted)
    assert len(an.omega2_kernel_dims(ch_L, spec, pts)) == 5
    # Omega_H0 restricts to the canonical form on the tangent space
    assert calls == {"top_partials": 1, "canonical_form": 1, "omega_h0": 0}


def test_kernel_determinant_count(monkeypatch):
    # each component of the form on the graph basis is one signed graph entry
    spec = BundleSpec(3, 1, 2)
    L = sx.parse(_PLATE_3D, build_catalog(spec, fields={"q": (1, 2, 3)}))
    fields = {"q": sx.Const(1)}
    pt = an.on_constraint_point(L, spec, random.Random(0), fields)
    calls = []
    for name in ("det", "qr"):
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert an.omega2_kernel_dim_at(L, spec, pt, fields) == 0
    assert calls == []


def test_kernel_preconditions(ch_L):
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    off_point = {s: 1.0 for s in cat.coords}
    with pytest.raises(PreconditionError):
        an.omega2_kernel_dim_at(ch_L, spec, off_point)
    with pytest.raises(UsageError):
        an.omega2_kernel_dim_at(ch_L, BundleSpec(1, 1, 2), {})


_KERNEL_PROBLEMS = {n: corpus_problem(n) for n in CORPUS_NAMES if corpus_problem(n).bundle.m >= 2}
_KERNEL_PROBLEMS.update((pid, parse_problem(text)) for pid, text in bench_workloads().LADDER)


def _constraint_jacobians(problem, count=5):
    """The positions of the constraints' solved coordinates in the catalog, the
    constraint Jacobian over all coordinates at `count` on-constraint points,
    and the points."""
    spec = problem.bundle
    cat = problem.catalog()
    L = problem.lagrangian(cat)
    fields = problem.field_bindings(cat) or None
    solved, residuals = zip(*an._constraints(cat, L))
    coords = list(cat.coords)
    grads = [sx.gradient(r, coords) for r in residuals]
    values_at = sx.compile_at([g.get(c, sx.Const(0)) for g in grads for c in coords], fields)
    points = an.on_constraint_points(L, spec, random.Random(0), count, fields)
    mats = [np.array(values_at(pt), dtype=float).reshape(len(residuals), len(coords))
            for pt in points]
    return [coords.index(s) for s in solved], mats, points


@pytest.mark.parametrize("pid", list(_KERNEL_PROBLEMS))
def test_constraint_block_is_unit_lower_triangular(pid):
    # each W1 residual holds its own solved momentum only, and H0 holds p once
    cols, mats, _ = _constraint_jacobians(_KERNEL_PROBLEMS[pid])
    for grad in mats:
        block = grad[:, cols]
        assert np.all(np.diag(block) == 1.0), pid
        assert np.all(np.triu(block, 1) == 0.0), pid


@pytest.mark.parametrize("pid", list(_KERNEL_PROBLEMS))
def test_tangent_basis_is_orthonormal_null_space(pid):
    cols, mats, _ = _constraint_jacobians(_KERNEL_PROBLEMS[pid])
    for grad in mats:
        n_res, n_coords = grad.shape
        width = n_coords - n_res
        tangent = an._tangent_basis(grad, cols)
        assert tangent.shape == (n_coords, width)
        # the graph over the free coordinates
        free = [c for c in range(n_coords) if c not in cols]
        assert np.array_equal(tangent[free], np.eye(width)), pid
        assert np.abs(grad @ tangent).max() <= 1e-12 * max(np.abs(grad).max(), 1.0), pid
        # the same subspace as the SVD null space of the full-rank Jacobian
        null = np.linalg.svd(grad)[2][n_res:].T
        basis = np.linalg.qr(tangent)[0]
        assert np.abs(basis @ basis.T - null @ null.T).max() <= 1e-12, pid


@pytest.mark.parametrize("pid", list(_KERNEL_PROBLEMS))
def test_kernel_rows_match_reference(pid):
    # the graph entries against one (m+1)-determinant per term of Omega_H0,
    # dH0 ^ d^m x included, on the same graph basis
    problem = _KERNEL_PROBLEMS[pid]
    m = problem.bundle.m
    cat = problem.catalog()
    L = problem.lagrangian(cat)
    terms = collect(omega_h0(cat, L))
    cpos = {c: ix for ix, c in enumerate(cat.coords)}
    cols, mats, points = _constraint_jacobians(problem)
    values_at = sx.compile_at(list(terms.values()), problem.field_bindings(cat) or None)
    combos, rows_at = an._graph_rows(canonical_form(cat).terms, cpos, cols)
    # the reference has a row for every m-subset of the basis, in lexicographic order
    order = {c: r for r, c in enumerate(itertools.combinations(range(len(cpos) - len(cols)), m))}
    at = [order[c] for c in combos]
    for grad, point in zip(mats, points):
        tangent = an._tangent_basis(grad, cols)
        rows = rows_at(tangent)
        ref = _minor_rows(tangent, [[cpos[s] for s in mono] for mono in terms], values_at(point), m)
        bound = 1e-12 * max(1.0, np.abs(ref).max())
        assert rows.shape == (len(at), ref.shape[1]), pid
        assert np.abs(rows - ref[at]).max() <= bound, pid
        assert np.abs(np.delete(ref, at, axis=0)).max(initial=0.0) <= bound, pid
        assert an._rank(rows) == an._rank(ref), pid


_CORANK_PROBLEMS = {pid: (_KERNEL_PROBLEMS[pid], corank) for pid, corank in (
    ("plate", 0), ("camassa-holm", 2), ("first-as-second", 3),
    ("ladder-213", 0), ("ladder-222", 0), ("ladder-312", 0))}
_CORANK_PROBLEMS["one-term-322"] = (parse_problem("m=3\nn=2\nk=2\nlagrangian = u[1,0,0]^2\n"), 12)


@pytest.mark.parametrize("pid", list(_CORANK_PROBLEMS))
def test_kernel_dim_is_hessian_corank(pid):
    # the kernel dimension is the corank of the top-order Hessian, not only zero
    # exactly where it has full rank; k = 1 has exceptions and is left out
    problem, corank = _CORANK_PROBLEMS[pid]
    cat = problem.catalog()
    L = problem.lagrangian(cat)
    fields = problem.field_bindings(cat) or None
    points = an.on_constraint_points(L, problem.bundle, random.Random(0), 5, fields)
    hess = an.highest_hessian(L, problem.bundle)
    coranks = [hess.size() - an._rank(h) for h in an.hessian_at(hess, points, fields)]
    assert coranks == [corank] * 5
    assert an.omega2_kernel_dims(L, problem.bundle, points, fields) == coranks


def test_kernel_dim_is_at_least_hessian_corank_on_fuzz_problems():
    # the lower bound of the analysis module's docstring, k = 1 included, on the
    # fuzz grammar's texts with m >= 2 whose Lagrangian has no unbound field
    tested = 0
    for seed in range(400):
        try:
            problem = parse_problem(problem_text(random.Random(seed), 3))
            cat = problem.catalog()
            L = problem.lagrangian(cat)
        except (ParseError, UsageError):
            continue
        fields = problem.field_bindings(cat)
        if problem.bundle.m < 2 or any(s.kind == sx.FIELD and s.name not in fields
                                       for s in sx.free_syms(L)):
            continue
        try:
            points = an.on_constraint_points(L, problem.bundle, random.Random(seed), 2, fields)
        except EvalDomainError:  # a divisor of L vanishes there, as x[2] - x[2] does
            continue
        hess = an.highest_hessian(L, problem.bundle)
        coranks = [hess.size() - an._rank(h) for h in an.hessian_at(hess, points, fields)]
        dims = an.omega2_kernel_dims(L, problem.bundle, points, fields)
        assert all(d >= c for d, c in zip(dims, coranks)), (seed, dims, coranks)
        tested += 1
    assert tested >= 100


_RESIDUAL_CASES = {
    "plate-bound-field": ((2, 1, 2), PLATE_L_TEXT, {"q": (1, 2)}, "x[1]*x[2] + 1"),
    "camassa-holm": ((2, 1, 2), CH_L_TEXT, {}, None),
    "(2,1,3)": ((2, 1, 3), "1/2*(u[3,0]^2+3*u[2,1]^2+3*u[1,2]^2+u[0,3]^2) + u[1,0]*u[0,1]^2/2",
                {}, None),
    "(2,2,2)": ((2, 2, 2), "1/2*(u[2,0]@1^2+2*u[1,1]@1^2+u[0,2]@1^2+u[2,0]@2^2+2*u[1,1]@2^2"
                "+u[0,2]@2^2) + u[1,0]@1*u[0,1]@2", {}, None),
    "(3,1,2)-plate": ((3, 1, 2), _PLATE_3D, {"q": (1, 2, 3)}, "1"),
}


def _residual_case(name):
    signature, text, deps, value = _RESIDUAL_CASES[name]
    spec = BundleSpec(*signature)
    cat = build_catalog(spec, fields=deps)
    fields = {q: sx.parse(value, cat) for q in deps} or None
    return spec, cat, sx.parse(text, cat), fields


def test_on_constraint_point_residuals():
    for name in _RESIDUAL_CASES:
        spec, cat, L, fields = _residual_case(name)
        w1 = [eq.residual() for eq in equation_families(cat, L).values() if eq.tag == TAG_W1]
        assert len(w1) == spec.n * count_indices(spec.m, spec.k)
        residuals = w1 + [hamiltonian_h0(cat, L)]
        for seed in (9, 10, 11):
            pt = _on_point(L, spec, seed, fields)
            for res in residuals:
                assert abs(sx.evaluate(res, pt, fields)) <= 1e-12, (name, seed, sx.render(res))


def test_on_constraint_points_match_single():
    for name in _RESIDUAL_CASES:
        spec, _, L, fields = _residual_case(name)
        batch = an.on_constraint_points(L, spec, random.Random(3), 5, fields)
        rng = random.Random(3)
        single = [an.on_constraint_point(L, spec, rng, fields) for _ in range(5)]
        assert [[(s, v.hex()) for s, v in p.items()] for p in batch] == \
            [[(s, v.hex()) for s, v in p.items()] for p in single]


def test_on_constraint_points_build_once(ch_L, monkeypatch):
    calls = {"top_partials": 0, "hamiltonian_h0": 0, "compile_expr": 0}
    for module, name in ((an, "top_partials"), (an, "hamiltonian_h0"),
                         (sx, "compile_expr")):
        def counted(*args, _name=name, _orig=getattr(module, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(module, name, counted)
    assert len(an.on_constraint_points(ch_L, BundleSpec(2, 1, 2), random.Random(5), 5)) == 5
    assert calls == {"top_partials": 1, "hamiltonian_h0": 1, "compile_expr": 1}


def test_analysis_compiles_each_check_once(monkeypatch):
    problem = parse_problem(PLATE_PROBLEM_TEXT + "point = u[2,0]=1.5 u[1,1]=0.25 u[0,2]=1.0\n")
    groups = []

    def counted(exprs, fields=None, _orig=an.compile_at):
        groups.append(list(exprs))
        return _orig(exprs, fields)
    monkeypatch.setattr(an, "compile_at", counted)
    ana = run_problem(problem, stages={"analysis"})["analysis"]
    assert len(ana["regularity"]["samples"]) == REGULARITY_SAMPLES + 1
    assert ana["regularity"]["regular_all"] and ana["omega2"]["kernel_dims"] == [0] * 5
    hess = an.highest_hessian(problem.lagrangian(), problem.bundle)
    # the Hessian, the constraint points and the kernel check, one group each
    assert len(groups) == 3
    assert groups[0] == [e for row in hess.entries for e in row]


def test_hessian_at_points(ch_L):
    hess = an.highest_hessian(ch_L, BundleSpec(2, 1, 2))
    points = [{jet(1, 1, 0): v} for v in (0.5, 2.0, 4.0)]
    mats = an.hessian_at(hess, points)
    assert [m[1, 1] for m in mats] == [2.0, 0.5, 0.25]
    assert all(m.shape == (3, 3) and m[0, 0] == 0.0 for m in mats)


def test_rank_checks_reject_non_finite():
    for bad in (np.inf, np.nan):
        mat = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(EvalDomainError):
            an.full_rank(mat)
        with pytest.raises(EvalDomainError):
            an._rank(mat)
