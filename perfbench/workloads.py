"""Seeded problem generators for the srfield benchmark.

Every workload is a list of `Item`s: a problem id, the problem text in the
engine's file format and what kind of problem it is.  Generation uses only the
standard library, so the engine receives nothing but text, and the same seed
always gives the same texts.

Random Lagrangians have fixed shapes: which jets and base variables appear
in each term is drawn once from a fixed generator, and the seed draws the
coefficients and constants.  The cost of a problem depends mostly on its
shape, so the work of a pass varies little between seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("corpus", "ladder", "assembly")

CORPUS_NAMES = ("first-order", "mechanics", "plate", "camassa-holm", "first-as-second")

# The three larger rungs of the signature ladder; plate and Camassa-Holm are in
# the corpus.  Every rung runs with the engine's corpus seed, so the oracle
# sections and the kernel sample points are those of `srfield run` on the text.
LADDER_SEED = 0
LADDER = (
    ("ladder-213", """m=2
n=1
k=3
lagrangian = 1/2*(u[3,0]^2+3*u[2,1]^2+3*u[1,2]^2+u[0,3]^2) + u[1,0]*u[0,1]^2/2
"""),
    ("ladder-222", """m=2
n=2
k=2
lagrangian = 1/2*(u[2,0]@1^2+2*u[1,1]@1^2+u[0,2]@1^2+u[2,0]@2^2+2*u[1,1]@2^2+u[0,2]@2^2) + u[1,0]@1*u[0,1]@2
"""),
    ("ladder-312", """m=3
n=1
k=2
field q(x[1],x[2],x[3]) = 1
lagrangian = 1/2*(u[2,0,0]^2+u[0,2,0]^2+u[0,0,2]^2+2*u[1,1,0]^2+2*u[1,0,1]^2+2*u[0,1,1]^2 - 2*q*u[0,0,0])
"""),
)

POLY_SIGNATURES = tuple(itertools.product((1, 2, 3), repeat=3))
RATIONAL_SIGNATURES = tuple(itertools.product((1, 2), repeat=3)) + ((2, 1, 3), (3, 1, 2))

PER_SIGNATURE = 2
# Every DIVERGENCE_EVERY-th polynomial problem is a total divergence.
DIVERGENCE_EVERY = 3


@dataclass(frozen=True)
class Item:
    pid: str
    text: str
    kind: str  # "corpus", "ladder", "poly", "rational" or "divergence"
    signature: tuple[int, int, int] = (0, 0, 0)


# ---------------------------------------------------------------------------
# Small exact polynomials: {monomial: Fraction}, a monomial being a sorted
# tuple of variables ("x", i) or ("u", alpha, J) with repetition.


def _var_text(var, m: int, n: int) -> str:
    if var[0] == "x":
        return "x[%d]" % var[1]
    _, alpha, J = var
    text = "u[%s]" % ",".join(str(c) for c in J)
    return text + ("@%d" % alpha if n > 1 else "")


def _mono_text(mono, m: int, n: int) -> str:
    parts = []
    for var, group in itertools.groupby(mono):
        power = len(list(group))
        text = _var_text(var, m, n)
        parts.append(text if power == 1 else "%s^%d" % (text, power))
    return "*".join(parts)


def poly_text(poly: dict, m: int, n: int) -> str:
    """Render a polynomial in the engine's expression grammar."""
    terms = []
    for mono in sorted(poly):
        coef = poly[mono]
        if coef == 0:
            continue
        mag = abs(coef)
        body = _mono_text(mono, m, n)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        sign = "-" if coef < 0 else "+"
        terms.append((sign, text))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in terms[1:]:
        out += " %s %s" % (sign, text)
    return out


def _add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for mono, coef in b.items():
        out[mono] = out.get(mono, 0) + scale * coef
    return {k: v for k, v in out.items() if v != 0}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def total_derivative(poly: dict, i: int) -> dict:
    """Formal total derivative D_i: x_i -> 1 and u^a_J -> u^a_{J+1_i}."""
    out: dict = {}
    for mono, coef in poly.items():
        for pos, var in enumerate(mono):
            if var[0] == "x":
                if var[1] != i:
                    continue
                new = mono[:pos] + mono[pos + 1:]
            else:
                _, alpha, J = var
                bumped = tuple(c + (1 if ix == i - 1 else 0) for ix, c in enumerate(J))
                new = tuple(sorted(mono[:pos] + (("u", alpha, bumped),) + mono[pos + 1:]))
            out[new] = out.get(new, 0) + coef
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# Random ingredients


def _indices(m: int, order: int) -> list[tuple[int, ...]]:
    return sorted((J for J in itertools.product(range(order + 1), repeat=m)
                   if sum(J) == order), reverse=True)


class Draw:
    """Random choices for one problem on the signature (m, n).

    `shape` picks which jets and base variables appear and is the same for
    every seed; `seeded` picks the coefficients and constants.  Relabelling
    axes or fibers by seed would not do: the engine's cost depends on the
    variable order (a denominator u[0,2] costs twice as much as u[2,0]).
    """

    def __init__(self, shape: random.Random, seeded: random.Random, m: int, n: int):
        self.shape, self.seeded, self.m, self.n = shape, seeded, m, n

    def jet(self, order: int):
        return ("u", self.shape.randint(1, self.n), self.shape.choice(_indices(self.m, order)))

    def base(self):
        return ("x", self.shape.randint(1, self.m))

    def coef(self) -> Fraction:
        return Fraction(self.seeded.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                        self.seeded.choice((1, 1, 2)))

    def const(self) -> int:
        return self.seeded.randint(1, 3)

    def term(self, orders, base: int = 0) -> dict:
        """One monomial with the given jet orders and `base` base-variable factors."""
        factors = [self.jet(o) for o in orders] + [self.base() for _ in range(base)]
        return {tuple(sorted(factors)): self.coef()}


def random_poly_lagrangian(d: Draw, k: int) -> dict:
    """Four terms: quadratic at top order, top times first order, a base-weighted
    first-order term and a linear order-0 term."""
    out: dict = {}
    for part in (d.term((k, k)), d.term((k, 1)), d.term((1,), base=1), d.term((0,))):
        out = _add(out, part)
    return out


def random_divergence(d: Draw, k: int, denominator: bool = False) -> str:
    """Text of D_1 f_1 + ... + D_m f_m with each f_i of jet order k-1.

    Each f_i has the shape of the null-Lagrangian acceptance criterion: a few
    terms of degree at most 2 in the order <= k-1 jets and base variables.
    With `denominator`, f_i = p_i / q with one q = u + c of order 0, and
    D_i f_i is written out by the quotient rule as (q D_i p - p D_i q) / q^2.
    """
    m, n, low = d.m, d.n, k - 1
    q = _add({(d.jet(0),): Fraction(1)}, {(): Fraction(d.const())})
    parts = []
    for i in range(1, m + 1):
        p = _add(d.term((low, 0)), d.term((low,), base=1))
        if not denominator:
            parts.append("(" + poly_text(total_derivative(p, i), m, n) + ")")
            continue
        num = _add(_mul(q, total_derivative(p, i)), _mul(p, total_derivative(q, i)), -1)
        parts.append("(%s)/(%s)^2" % (poly_text(num, m, n), poly_text(q, m, n)))
    return " + ".join(parts)


def random_rational_lagrangian(d: Draw, k: int, den_order: int) -> str:
    """Numerator of degree <= 2 over (jet of order den_order + c)."""
    num = _add(_add(d.term((k, k)), d.term((1,), base=1)), d.term(()))
    den = "%s + %d" % (_var_text(d.jet(den_order), d.m, d.n), d.const())
    return "(%s)/(%s)" % (poly_text(num, d.m, d.n), den)


def problem_text(m: int, n: int, k: int, lagrangian: str) -> str:
    return "m=%d\nn=%d\nk=%d\nlagrangian = %s\n" % (m, n, k, lagrangian)


# ---------------------------------------------------------------------------
# Workloads


def _assembly_items(seed: int, name: str, kind: str, signatures, make) -> list[Item]:
    shape = random.Random("%s:shape" % name)
    seeded = random.Random("%s:%d" % (name, seed))
    items = []
    for m, n, k in signatures:
        for ix in range(PER_SIGNATURE):
            d = Draw(shape, seeded, m, n)
            text, div = make(d, k, ix, len(items))
            items.append(Item("%s-%d%d%d-%d" % (kind, m, n, k, ix), text,
                              "divergence" if div else kind, (m, n, k)))
    return items


def _poly(d, k, ix, count):
    if count % DIVERGENCE_EVERY == DIVERGENCE_EVERY - 1:
        return problem_text(d.m, d.n, k, random_divergence(d, k)), True
    return problem_text(d.m, d.n, k, poly_text(random_poly_lagrangian(d, k), d.m, d.n)), False


def _rational(d, k, ix, count):
    # Rational divergences stay on m = 1: with m >= 2 the common denominator
    # makes a single normalize take seconds to minutes (see README.md).
    if d.m == 1 and ix == 1:
        return problem_text(d.m, d.n, k, random_divergence(d, k, denominator=True)), True
    den_order = d.shape.randint(0, k)
    return problem_text(d.m, d.n, k, random_rational_lagrangian(d, k, den_order)), False


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's items for a seed, in the order a pass runs them.

    Corpus and ladder problems are fixed; their seed only shuffles the order.
    """
    if workload == "corpus":
        items = [Item(name, name, "corpus") for name in CORPUS_NAMES]
    elif workload == "ladder":
        items = [Item(pid, text, "ladder", tuple(int(c) for c in pid[-3:]))
                 for pid, text in LADDER]
    elif workload == "assembly":
        return (_assembly_items(seed, "assembly-poly", "poly", POLY_SIGNATURES, _poly)
                + _assembly_items(seed, "assembly-rational", "rational",
                                  RATIONAL_SIGNATURES, _rational))
    else:
        raise ValueError("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)))
    random.Random("%s:%d" % (workload, seed)).shuffle(items)
    return items
