"""Hessians, regularity, count classification, column selection, kernel dimensions."""

import copy
import itertools
import random
from math import comb

import numpy as np
import pytest

from srfield import symexpr as sx
from srfield import analysis as an
from srfield.errors import PreconditionError, UsageError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import MultiIndex, count_indices

from conftest import jet


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


def test_minor_rows_match_loop():
    # the stacked determinants do the loop's arithmetic in the loop's order
    rng = np.random.default_rng(0)
    tangent = rng.standard_normal((7, 5))
    terms = [([0, 2, 5], 1.5), ([1, 3, 6], -0.25), ([0, 1, 4], 2.0)]
    rows = an._minor_rows(tangent, [idx for idx, _ in terms], [c for _, c in terms], 2)
    for r, combo in enumerate(itertools.combinations(range(5), 2)):
        for s in range(5):
            total = 0.0
            for idx, c in terms:
                sub = np.empty((3, 3))
                for a, coord in enumerate(idx):
                    for b, col in enumerate((s,) + combo):
                        sub[a, b] = tangent[coord, col]
                total += c * np.linalg.det(sub)
            assert rows[r, s] == total


def test_kernel_preconditions(ch_L):
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    off_point = {s: 1.0 for s in cat.coords}
    with pytest.raises(PreconditionError):
        an.omega2_kernel_dim_at(ch_L, spec, off_point)
    with pytest.raises(UsageError):
        an.omega2_kernel_dim_at(ch_L, BundleSpec(1, 1, 2), {})


def test_on_constraint_point_residuals(ch_L):
    spec = BundleSpec(2, 1, 2)
    cat = build_catalog(spec)
    pt = _on_point(ch_L, spec, 9)
    for res in an.w1_residuals(cat, ch_L) + [an.h0_residual(cat, ch_L)]:
        assert abs(sx.evaluate(res, pt)) < 1e-9
