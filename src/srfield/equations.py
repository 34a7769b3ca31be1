"""Tagged symbolic equations with provenance, shared across modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .symexpr import Expr, render

TAG_A = "A"
TAG_B_TRACE = "B_TRACE"
TAG_B_MIDDLE = "B_MIDDLE"
TAG_W1 = "W1"
TAG_W2 = "W2"
TAG_TANGENCY = "TANGENCY"
TAG_C = "C"


@dataclass(frozen=True)
class Equation:
    """lhs = rhs, both sides in normalize's canonical form, which record renders."""

    lhs: Expr
    rhs: Expr
    tag: str
    provenance: str

    def residual(self) -> Expr:
        from .symexpr import esub
        return esub(self.lhs, self.rhs)

    def record(self) -> dict:
        return {
            "tag": self.tag,
            "lhs": render(self.lhs),
            "rhs": render(self.rhs),
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
