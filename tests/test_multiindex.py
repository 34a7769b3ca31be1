"""Multi-index arithmetic, enumeration, and the exact combinatorial identities."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfield.errors import PreconditionError, UsageError
from srfield.multiindex import (
    MultiIndex,
    decompositions,
    enumerate_indices,
    fubini_check,
    identity_weight_sum,
    lemma_b3_check,
    unit,
)


def brute_indices(m, l):
    """Independent enumeration oracle: filter the full cube by total order."""
    return {t for t in itertools.product(range(l + 1), repeat=m) if sum(t) == l}


def test_add():
    assert MultiIndex((1, 0)).add(MultiIndex((0, 1))) == (1, 1)
    assert MultiIndex((0, 2, 1)).add(MultiIndex((0, 0, 0))) == (0, 2, 1)
    assert MultiIndex((2, 0)).add(MultiIndex((0, 2))) == (2, 2)


def test_add_length_mismatch():
    with pytest.raises(UsageError):
        MultiIndex((1, 0)).add(MultiIndex((1, 0, 0)))


def test_sub_checked():
    assert MultiIndex((1, 1)).sub_checked(MultiIndex((1, 0))) == (0, 1)
    assert MultiIndex((1, 0)).sub_checked(MultiIndex((0, 1))) is None
    assert MultiIndex((2, 2)).sub_checked(MultiIndex((1, 1))) == (1, 1)


def test_length_factorial_unit():
    assert MultiIndex((0, 2, 1)).order == 3
    assert MultiIndex((2, 1)).factorial() == 2
    assert unit(2, 3) == (0, 1, 0)
    with pytest.raises(UsageError):
        unit(4, 3)
    with pytest.raises(UsageError):
        MultiIndex((-1, 0))


def test_enumerate_examples():
    assert enumerate_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_indices(1, 5) == [(5,)]
    assert len(enumerate_indices(3, 1)) == 3


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
def test_enumerate_against_brute_force(m, l):
    got = enumerate_indices(m, l)
    assert len(got) == comb(m - 1 + l, m - 1)
    assert len(set(got)) == len(got)
    assert {tuple(i) for i in got} == brute_indices(m, l)
    assert all(i.order == l for i in got)
    # deterministic graded-lex listing
    assert got == sorted(got, key=lambda i: i.key())


def test_decompositions_examples():
    assert decompositions(MultiIndex((1, 1))) == [(MultiIndex((0, 1)), 1), (MultiIndex((1, 0)), 2)]
    assert decompositions(MultiIndex((2, 0))) == [(MultiIndex((1, 0)), 1)]
    assert len(decompositions(MultiIndex((1, 1, 1)))) == 3


def brute_decompositions(j):
    m = len(j)
    out = []
    for i_idx in enumerate_indices(m, j.order - 1):
        for i in range(1, m + 1):
            if i_idx.add(unit(i, m)) == j:
                out.append((i_idx, i))
    return out


@pytest.mark.parametrize("m,l", [(2, 2), (3, 3), (4, 2)])
def test_decompositions_bijection(m, l):
    pooled = []
    for j in enumerate_indices(m, l):
        decs = decompositions(j)
        assert sorted(decs, key=lambda p: p[1]) == decs
        assert set(decs) == set(brute_decompositions(j))
        pooled.extend(decs)
    domain = {(i_idx, i) for i_idx in enumerate_indices(m, l - 1) for i in range(1, m + 1)}
    assert len(pooled) == len(set(pooled)) == len(domain)
    assert set(pooled) == domain


def test_identity_weight_sum_examples():
    assert identity_weight_sum(MultiIndex((1, 1))) == 1
    assert identity_weight_sum(MultiIndex((3, 0))) == 1
    assert identity_weight_sum(MultiIndex((2, 1, 1))) == 1
    with pytest.raises(UsageError):
        identity_weight_sum(MultiIndex((0, 0)))


def test_identity_weight_sum_alternate_oracle():
    # independent route: sum of J(i)/|J| over slots with J(i) > 0
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 4)
        j = MultiIndex(tuple(rng.randint(0, 3) for _ in range(m)))
        if j.order == 0:
            continue
        oracle = sum(Fraction(j[i], j.order) for i in range(m) if j[i])
        assert identity_weight_sum(j) == oracle == 1


@pytest.mark.parametrize("m,lmax", [(1, 8), (2, 8), (3, 8), (4, 8)])
def test_identity_weight_sum_full_range(m, lmax):
    for l in range(1, lmax + 1):
        for j in enumerate_indices(m, l):
            assert identity_weight_sum(j) == 1


def test_fubini_constant_family():
    family = {(i_idx, i): Fraction(1)
              for i_idx in enumerate_indices(2, 1) for i in (1, 2)}
    # 2 indexes of order 1, 2 slots each: both sides total 4
    assert fubini_check(family, 2, 2)
    const3 = {(i_idx, i): Fraction(1)
              for i_idx in enumerate_indices(2, 1) for i in (1, 2)}
    assert sum(const3.values()) == 4


def test_fubini_counting_example():
    # m=2, l=2: 3 target indexes, domain has 2 indexes x 2 slots = 4 pairs
    family = {(i_idx, i): Fraction(1)
              for i_idx in enumerate_indices(2, 1) for i in (1, 2)}
    lhs = sum(family.values())
    assert lhs == 4 and fubini_check(family, 2, 2)


def test_fubini_missing_entry():
    with pytest.raises(UsageError):
        fubini_check({}, 2, 2)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_fubini_randomized(m, l, data):
    family = {}
    for i_idx in enumerate_indices(m, l - 1):
        for i in range(1, m + 1):
            family[(i_idx, i)] = data.draw(
                st.fractions(min_value=-10, max_value=10, max_denominator=20))
    assert fubini_check(family, m, l)


def test_lemma_b3_zero_gauge():
    rng = random.Random(2)
    for m, l in [(1, 2), (2, 2), (3, 2), (2, 4)]:
        b = {j: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
             for j in enumerate_indices(m, l)}
        a = {j: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
             for j in enumerate_indices(m, l)}
        assert lemma_b3_check(b, a, {}, m, l)


def test_lemma_b3_nonzero_gauge():
    m, l = 2, 2
    rng = random.Random(3)
    q = {(MultiIndex((0, 1)), 1): Fraction(2), (MultiIndex((1, 0)), 2): Fraction(-2)}
    for _ in range(20):
        b = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for j in enumerate_indices(m, l)}
        a = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for j in enumerate_indices(m, l)}
        assert lemma_b3_check(b, a, q, m, l)


def test_lemma_b3_m1_forces_zero_gauge():
    # single decomposition per index: the gauge condition forces Q = 0
    m, l = 1, 3
    b = {MultiIndex((3,)): Fraction(5)}
    a = {MultiIndex((3,)): Fraction(7)}
    assert lemma_b3_check(b, a, {(MultiIndex((2,)), 1): Fraction(0)}, m, l)
    with pytest.raises(PreconditionError):
        lemma_b3_check(b, a, {(MultiIndex((2,)), 1): Fraction(1)}, m, l)


def test_lemma_b3_rejects_bad_gauge():
    m, l = 2, 2
    q = {(MultiIndex((0, 1)), 1): Fraction(2), (MultiIndex((1, 0)), 2): Fraction(2)}
    b = {j: Fraction(1) for j in enumerate_indices(m, l)}
    with pytest.raises(PreconditionError):
        lemma_b3_check(b, b, q, m, l)


def test_rendering():
    assert str(MultiIndex((2, 0))) == "[2,0]"
    assert str(MultiIndex((0,))) == "[0]"
