"""Tagged symbolic equations with provenance, shared across modules."""

from __future__ import annotations

from typing import Iterable, Iterator

from .symexpr import Expr, esub, render_side, tree_of

TAG_A = "A"
TAG_B_TRACE = "B_TRACE"
TAG_B_MIDDLE = "B_MIDDLE"
TAG_W1 = "W1"
TAG_W2 = "W2"
TAG_TANGENCY = "TANGENCY"
TAG_C = "C"


class Equation:
    """lhs = rhs, both sides in normalize's canonical form.

    A side is a tree or, as the engine builds it from L's partials table, a
    canonical pair (numerator, denominator) of monomial dicts.  record renders
    a pair straight from its monomials; lhs and rhs return trees, each built
    from its pair on first read and kept.
    """

    __slots__ = ("tag", "provenance", "_sides", "_trees")

    def __init__(self, lhs, rhs, tag: str, provenance: str):
        self.tag = tag
        self.provenance = provenance
        self._sides = (lhs, rhs)
        self._trees = [None, None]

    def _tree(self, ix: int) -> Expr:
        if self._trees[ix] is None:
            self._trees[ix] = tree_of(self._sides[ix])
        return self._trees[ix]

    @property
    def lhs(self) -> Expr:
        return self._tree(0)

    @property
    def rhs(self) -> Expr:
        return self._tree(1)

    def residual(self) -> Expr:
        return esub(self.lhs, self.rhs)

    def record(self) -> dict:
        return {
            "tag": self.tag,
            "lhs": render_side(self._sides[0]),
            "rhs": render_side(self._sides[1]),
            "provenance": self.provenance,
        }


class EquationSet:
    def __init__(self, equations: Iterable[Equation] = ()):
        self._eqs: list[Equation] = list(equations)

    def add(self, eq: Equation) -> None:
        self._eqs.append(eq)

    def extend(self, eqs: Iterable[Equation]) -> None:
        self._eqs.extend(eqs)

    def by_tag(self, tag: str) -> list[Equation]:
        return [e for e in self._eqs if e.tag == tag]

    def tags(self) -> list[str]:
        seen: list[str] = []
        for e in self._eqs:
            if e.tag not in seen:
                seen.append(e.tag)
        return seen

    def __iter__(self) -> Iterator[Equation]:
        return iter(self._eqs)

    def __len__(self) -> int:
        return len(self._eqs)

    def __getitem__(self, ix):
        return self._eqs[ix]
