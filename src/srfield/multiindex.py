"""Exact multi-index arithmetic and the combinatorial identities the engine relies on.

A multi-index is an m-tuple of non-negative integers; component i counts how
often a quantity has been differentiated with respect to the i-th base
variable.  All enumeration here follows one deterministic order (first by
total order, then the conventional graded-lexicographic listing where e.g.
(2,0) precedes (1,1) precedes (0,2)); every downstream module shares it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial as _int_factorial
from typing import Iterable, Mapping, Optional

from .errors import PreconditionError, UsageError


class MultiIndex(tuple):
    """An m-tuple of non-negative integers, hashable and immutable."""

    def __new__(cls, components: Iterable[int]) -> "MultiIndex":
        comps = tuple(int(c) for c in components)
        if any(c < 0 for c in comps):
            raise UsageError("multi-index components must be non-negative: %r" % (comps,))
        if not comps:
            raise UsageError("multi-index must have at least one component")
        return super().__new__(cls, comps)

    @property
    def order(self) -> int:
        """Total order |I| (the spec-level 'length')."""
        return sum(self)

    def factorial(self) -> int:
        out = 1
        for c in self:
            out *= _int_factorial(c)
        return out

    def add(self, other: "MultiIndex") -> "MultiIndex":
        if len(self) != len(other):
            raise UsageError("multi-index length mismatch: %r vs %r" % (self, other))
        return MultiIndex(a + b for a, b in zip(self, other))

    def sub_checked(self, other: "MultiIndex") -> Optional["MultiIndex"]:
        """Componentwise difference, or None when any component would go negative."""
        if len(self) != len(other):
            raise UsageError("multi-index length mismatch: %r vs %r" % (self, other))
        diff = tuple(a - b for a, b in zip(self, other))
        if any(c < 0 for c in diff):
            return None
        return MultiIndex(diff)

    def bump(self, i: int) -> "MultiIndex":
        """self + 1_i with 1-based direction i."""
        if not 1 <= i <= len(self):
            raise UsageError("direction %d out of range 1..%d" % (i, len(self)))
        return tuple.__new__(MultiIndex, self[:i - 1] + (self[i - 1] + 1,) + self[i:])

    def key(self) -> tuple:
        """Sort key for the shared graded-lexicographic order."""
        return (self.order, tuple(-c for c in self))

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self) + "]"

    def __repr__(self) -> str:
        return "MultiIndex(%s)" % (tuple(self),)


def unit(i: int, m: int) -> MultiIndex:
    """The multi-index that is zero except for a 1 at 1-based slot i."""
    if not 1 <= i <= m:
        raise UsageError("direction %d out of range 1..%d" % (i, m))
    return MultiIndex(tuple(1 if j == i - 1 else 0 for j in range(m)))


def zero(m: int) -> MultiIndex:
    return MultiIndex((0,) * m)


def count_indices(m: int, l: int) -> int:
    """Number of multi-indexes of total order exactly l over m slots."""
    return comb(m - 1 + l, m - 1)


def enumerate_indices(m: int, l: int) -> list[MultiIndex]:
    """All multi-indexes of total order exactly l, in graded-lex order."""
    if m < 1:
        raise UsageError("base dimension must be >= 1")
    if l < 0:
        raise UsageError("total order must be >= 0")

    def rec(slots: int, rest: int) -> list[tuple[int, ...]]:
        if slots == 1:
            return [(rest,)]
        out = []
        for c in range(rest, -1, -1):
            out.extend((c,) + tail for tail in rec(slots - 1, rest - c))
        return out

    return [MultiIndex(t) for t in rec(m, l)]


def enumerate_up_to(m: int, lmax: int) -> list[MultiIndex]:
    """All multi-indexes of total order 0..lmax, in graded-lex order."""
    out: list[MultiIndex] = []
    for l in range(lmax + 1):
        out.extend(enumerate_indices(m, l))
    return out


def decompositions(j: MultiIndex) -> list[tuple[MultiIndex, int]]:
    """All pairs (I, i) with I + 1_i = J, in ascending i order."""
    return [(tuple.__new__(MultiIndex, j[:i - 1] + (j[i - 1] - 1,) + j[i:]), i)
            for i in range(1, len(j) + 1) if j[i - 1] >= 1]


def identity_weight_sum(j: MultiIndex) -> Fraction:
    """Sum of (I(i)+1)/(|I|+1) over all decompositions of J; equal to 1."""
    if j.order < 1:
        raise UsageError("identity_weight_sum needs |J| >= 1")
    total = Fraction(0)
    for i_idx, i in decompositions(j):
        total += Fraction(i_idx[i - 1] + 1, i_idx.order + 1)
    return total


def _family_value(family: Mapping, key) -> Fraction:
    try:
        return Fraction(family[key])
    except KeyError:
        raise UsageError("family is missing entry for %r" % (key,)) from None


def fubini_check(family: Mapping, m: int, l: int) -> bool:
    """Exact re-indexing identity for families a_{I,i} with |I| = l-1.

    Sums a over {(I, i) : |I| = l-1} directly and again grouped by J = I + 1_i;
    returns whether both exact sums agree.
    """
    if l < 1:
        raise UsageError("fubini_check needs l >= 1")
    lhs = Fraction(0)
    for i_idx in enumerate_indices(m, l - 1):
        for i in range(1, m + 1):
            lhs += _family_value(family, (i_idx, i))
    rhs = Fraction(0)
    for j in enumerate_indices(m, l):
        for i_idx, i in decompositions(j):
            rhs += _family_value(family, (i_idx, i))
    return lhs == rhs


def lemma_b3_check(b: Mapping, a: Mapping, q: Mapping, m: int, l: int) -> bool:
    """Exact weighted re-indexing with a gauge family Q.

    b and a are indexed by multi-indexes of order l; Q by pairs (I, i) with
    |I| = l-1 and must satisfy, for every |J| = l,
        sum_{I+1_i=J} (I(i)+1)/(|I|+1) * Q^{I,i} = 0,
    which is checked first (PreconditionError otherwise).  Returns whether
        sum_{|J|=l} b^J a_J
      = sum_{|I|=l-1} sum_i (I(i)+1)/(|I|+1) (b^{I+1_i} + Q^{I,i}) a_{I+1_i}.
    """
    if l < 1:
        raise UsageError("lemma_b3_check needs l >= 1")

    def qval(i_idx: MultiIndex, i: int) -> Fraction:
        return Fraction(q.get((i_idx, i), 0))

    for j in enumerate_indices(m, l):
        gauge = Fraction(0)
        for i_idx, i in decompositions(j):
            gauge += Fraction(i_idx[i - 1] + 1, i_idx.order + 1) * qval(i_idx, i)
        if gauge != 0:
            raise PreconditionError("Q family violates the gauge condition at J=%s" % (j,))

    lhs = Fraction(0)
    for j in enumerate_indices(m, l):
        lhs += _family_value(b, j) * _family_value(a, j)

    rhs = Fraction(0)
    for i_idx in enumerate_indices(m, l - 1):
        for i in range(1, m + 1):
            j = i_idx.bump(i)
            w = Fraction(i_idx[i - 1] + 1, i_idx.order + 1)
            rhs += w * (_family_value(b, j) + qval(i_idx, i)) * _family_value(a, j)
    return lhs == rhs
