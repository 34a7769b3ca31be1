"""Exact-coefficient symbolic expressions over a coordinate catalog.

Expressions are trees of rational constants, coordinate atoms, sums, products
and integer powers (negative powers stand in for division).  The canonical
form produced by :func:`normalize` is a single quotient of two expanded,
coefficient-sorted polynomials, gcd-reduced, with a monic denominator; two
expressions are equivalent exactly when their difference normalizes to zero.
External scalar fields are opaque atoms carrying their declared base-variable
dependence; their formal derivatives stay symbolic.

A Lagrangian's partials table (:class:`Partials`) expands L once into its
canonical pair n/d and keeps every partial, and every derivation of one, as
an expanded numerator over a power of one base (d with each factor that L
writes as a power kept once).  A side built from it is gcd-reduced once into
a canonical pair, or needs no gcd at all (:func:`minus_polynomial`), and stays
that pair to the report, which :func:`render_side` renders from its monomials.
A drawn oracle section is such a pair too, built from its coefficients.  Trees
are made at parse, at compile and when a caller first reads a side
(:func:`tree_of`).

Everything here is reentrant and immutable, but for the text a symbol keeps
once rendered; there is no interning table or other shared mutable state.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    EvalDomainError,
    NormalizationError,
    ParseError,
    UsageError,
)
from .multiindex import MultiIndex, unit, zero

# ---------------------------------------------------------------------------
# Symbols

BASE, JET, MOMENTUM, PSCALAR, FIELD, AUX = range(6)


class Sym:
    """A single coordinate / unknown, totally ordered and hashable.

    kind selects the family; the remaining fields are used as each family
    needs them (see the constructors below).  Ordering is (kind, name, fiber
    index, graded-lex multi-index, direction, second direction), which puts a
    catalog into the order x^i, u^a_J, p^{I,i}_a, p.
    """

    __slots__ = ("kind", "alpha", "index", "i", "name", "j", "deps", "_k", "_h", "_r")

    def __init__(self, kind, alpha=0, index=None, i=0, name="", j=0, deps=()):
        self.kind = kind
        self.alpha = alpha
        self.index = index
        self.i = i
        self.name = name
        self.j = j
        self.deps = tuple(deps)
        ikey = (-1, ()) if index is None else (sum(index), tuple(-c for c in index))
        self._k = (kind, name, alpha, ikey, i, j, self.deps)
        self._h = hash(self._k)
        self._r = None

    def __eq__(self, other):
        return isinstance(other, Sym) and self._k == other._k

    def __hash__(self):
        return self._h

    def __lt__(self, other):
        return self._k < other._k

    def render(self) -> str:
        if self._r is None:
            self._r = self._text()
        return self._r

    def _text(self) -> str:
        a = "" if self.alpha in (0, 1) else "@%d" % self.alpha
        if self.kind == BASE:
            return "x[%d]" % self.i
        if self.kind == JET:
            return "u[%s]%s" % (_idx_body(self.index), a)
        if self.kind == MOMENTUM:
            return "p[%s;%d]%s" % (_idx_body(self.index), self.i, a)
        if self.kind == PSCALAR:
            return "p"
        if self.kind == FIELD:
            if self.index is None or sum(self.index) == 0:
                return self.name
            return "%s[%s]" % (self.name, _idx_body(self.index))
        if self.kind == AUX:
            if self.name == "A":
                return "A[%d;%s;%d]" % (self.alpha, _idx_body(self.index), self.j)
            if self.name == "B":
                return "B[%s;%d;%d;%d]" % (_idx_body(self.index), self.i, self.alpha, self.j)
            if self.name == "C":
                return "C[%d]" % self.j
            return "%s[%d]" % (self.name, self.j)
        raise UsageError("unknown symbol kind %r" % (self.kind,))

    def __repr__(self):
        return self.render()


def _idx_body(index) -> str:
    return ",".join(map(str, index))


def base_sym(i: int) -> Sym:
    if i < 1:
        raise UsageError("base direction must be >= 1")
    return Sym(BASE, i=i)


def jet_sym(alpha: int, index: MultiIndex) -> Sym:
    return Sym(JET, alpha=alpha, index=index)


def mom_sym(alpha: int, index: MultiIndex, i: int) -> Sym:
    return Sym(MOMENTUM, alpha=alpha, index=index, i=i)


def p_sym() -> Sym:
    return Sym(PSCALAR)


def field_sym(name: str, index: MultiIndex, deps: Sequence[int]) -> Sym:
    return Sym(FIELD, index=index, name=name, deps=tuple(sorted(deps)))


def aux_a(alpha: int, index: MultiIndex, j: int) -> Sym:
    return Sym(AUX, alpha=alpha, index=index, name="A", j=j)


def aux_b(index: MultiIndex, i: int, alpha: int, j: int) -> Sym:
    return Sym(AUX, alpha=alpha, index=index, i=i, name="B", j=j)


def aux_c(j: int) -> Sym:
    return Sym(AUX, name="C", j=j)


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    __slots__ = ()

    def __str__(self):
        return render(self)

    def __repr__(self):
        return render(self)


class Const(Expr):
    __slots__ = ("q",)

    def __init__(self, q):
        self.q = q if isinstance(q, Fraction) else Fraction(q)

    def __eq__(self, other):
        return isinstance(other, Const) and self.q == other.q

    def __hash__(self):
        return hash(("C", self.q))


class Atom(Expr):
    __slots__ = ("sym",)

    def __init__(self, sym: Sym):
        self.sym = sym

    def __eq__(self, other):
        return isinstance(other, Atom) and self.sym == other.sym

    def __hash__(self):
        return hash(("X", self.sym))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __eq__(self, other):
        return isinstance(other, Add) and self.terms == other.terms

    def __hash__(self):
        return hash(("+",) + self.terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    def __eq__(self, other):
        return isinstance(other, Mul) and self.factors == other.factors

    def __hash__(self):
        return hash(("*",) + self.factors)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        self.base = base
        self.exp = int(exp)

    def __eq__(self, other):
        return isinstance(other, Pow) and self.exp == other.exp and self.base == other.base

    def __hash__(self):
        return hash(("^", self.base, self.exp))


ZERO = Const(0)
ONE = Const(1)
# the starting values of eadd and emul; a Fraction is immutable, so one of each serves every call
_Q0 = Fraction(0)
_Q1 = Fraction(1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, Sym):
        return Atom(x)
    raise UsageError("cannot coerce %r to an expression" % (x,))


def eadd(*xs) -> Expr:
    terms = []
    const = _Q0
    for x in xs:
        x = as_expr(x)
        if isinstance(x, Const):
            const += x.q
        elif isinstance(x, Add):
            for t in x.terms:
                if isinstance(t, Const):
                    const += t.q
                else:
                    terms.append(t)
        else:
            terms.append(x)
    if const:
        terms.append(Const(const))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def emul(*xs) -> Expr:
    factors = []
    const = _Q1
    for x in xs:
        x = as_expr(x)
        if isinstance(x, Const):
            const *= x.q
            if const == 0:
                return ZERO
        elif isinstance(x, Mul):
            for f in x.factors:
                if isinstance(f, Const):
                    const *= f.q
                else:
                    factors.append(f)
            if const == 0:
                return ZERO
        else:
            factors.append(x)
    if not factors:
        return Const(const)
    if const != 1:
        factors.insert(0, Const(const))
    if len(factors) == 1:
        return factors[0]
    return Mul(factors)


def eneg(x) -> Expr:
    return emul(Const(-1), as_expr(x))


def esub(a, b) -> Expr:
    return eadd(a, eneg(b))


def epow(b, n: int) -> Expr:
    b = as_expr(b)
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return b
    if isinstance(b, Const):
        if b.q == 0 and n < 0:
            raise NormalizationError("zero raised to a negative power")
        return Const(b.q ** n)
    if isinstance(b, Pow):
        return epow(b.base, b.exp * n)
    return Pow(b, n)


def ediv(a, b) -> Expr:
    return emul(as_expr(a), epow(as_expr(b), -1))


# ---------------------------------------------------------------------------
# Structural queries


def free_syms(e: Expr, out=None) -> set:
    if out is None:
        out = set()
    if isinstance(e, Atom):
        out.add(e.sym)
    elif isinstance(e, Add):
        for t in e.terms:
            free_syms(t, out)
    elif isinstance(e, Mul):
        for f in e.factors:
            free_syms(f, out)
    elif isinstance(e, Pow):
        free_syms(e.base, out)
    return out


def jet_order(e: Expr) -> int:
    """Highest |J| among jet atoms of e (0 when no jet appears)."""
    return max((sum(s.index) for s in free_syms(e) if s.kind == JET), default=0)


def is_syntactic_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.q == 0


# ---------------------------------------------------------------------------
# Formal partial derivative


def partial(e: Expr, s: Sym) -> Expr:
    """Formal partial derivative treating all other symbols as independent."""
    return gradient(e, (s,)).get(s, ZERO)


def gradient(e: Expr, syms: Sequence[Sym]) -> dict[Sym, Expr]:
    """The syntactically nonzero partials of e along syms, in the order of syms.

    One bottom-up sweep gives every node the dict of its nonzero partials,
    combined from its children's by the sum, product and power rules, so the
    cost is linear in the size of e rather than in size times len(syms).
    External fields depend on their declared base variables only: the
    derivative of a field atom with respect to x^i is the next formal field
    derivative; with respect to anything else it vanishes.
    """
    wanted = set(syms)
    bases = {s.i: s for s in wanted if s.kind == BASE}

    def sweep(x: Expr) -> dict[Sym, Expr]:
        if isinstance(x, Const):
            return {}
        if isinstance(x, Atom):
            a = x.sym
            out = {a: ONE} if a in wanted else {}
            if a.kind == FIELD:
                for i in a.deps:
                    if i in bases:
                        out[bases[i]] = Atom(field_sym(a.name, a.index.bump(i), a.deps))
            return out
        if isinstance(x, (Add, Mul)):
            # per symbol, the summands in child order: the children's partials
            # for a sum, each factor's partial times the other factors for a product
            parts: dict[Sym, list] = {}
            if isinstance(x, Add):
                for t in x.terms:
                    for s, dt in sweep(t).items():
                        parts.setdefault(s, []).append(dt)
            else:
                fs = x.factors
                for idx, f in enumerate(fs):
                    for s, df in sweep(f).items():
                        parts.setdefault(s, []).append(emul(*(fs[:idx] + (df,) + fs[idx + 1:])))
            out = {}
            for s, ds in parts.items():
                d = eadd(*ds)
                if not is_syntactic_zero(d):
                    out[s] = d
            return out
        if isinstance(x, Pow):
            db = sweep(x.base)
            if not db:
                return {}
            outer = (Const(x.exp), epow(x.base, x.exp - 1))
            return {s: emul(*outer, d) for s, d in db.items()}
        raise UsageError("cannot differentiate %r" % (x,))

    d = sweep(e)
    return {s: d[s] for s in syms if s in d}


def directional(v: Mapping[Sym, Expr], grad: Mapping[Sym, Expr]) -> Expr:
    """The vector field with components v applied to a function by the chain rule."""
    return eadd(*[emul(v[s], d) for s, d in grad.items() if s in v])


def substitute(e: Expr, mapping: Mapping[Sym, Expr]) -> Expr:
    if not mapping:
        return e
    if isinstance(e, Const):
        return e
    if isinstance(e, Atom):
        rep = mapping.get(e.sym)
        return e if rep is None else as_expr(rep)
    if isinstance(e, Add):
        return eadd(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Mul):
        return emul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, Pow):
        return epow(substitute(e.base, mapping), e.exp)
    raise UsageError("cannot substitute into %r" % (e,))


def base_derivatives(e: Expr, m: int) -> Callable[[MultiIndex], Expr]:
    """J -> D^J e over the base variables x^1..x^m, memoized: each entry is one
    partial along the first direction i of J of the entry at J - 1_i."""
    table = {zero(m): e}

    def at(J: MultiIndex) -> Expr:
        if J not in table:
            i = next(ix + 1 for ix, c in enumerate(J) if c > 0)
            table[J] = partial(at(J.sub_checked(unit(i, m))), base_sym(i))
        return table[J]

    return at


def substitute_fields(e: Expr, fields: Mapping[str, Expr]) -> Expr:
    """Replace field atoms by the matching derivative of the bound expression."""
    tables: dict[str, Callable] = {}
    mapping = {}
    for s in free_syms(e):
        if s.kind == FIELD and s.name in fields:
            if s.name not in tables:
                tables[s.name] = base_derivatives(fields[s.name], len(s.index))
            mapping[s] = tables[s.name](s.index)
    return substitute(e, mapping)


# ---------------------------------------------------------------------------
# Flat polynomial arithmetic (monomial dict -> int or Fraction)
#
# A monomial is a tuple of (Sym, positive exponent) pairs sorted ascending by
# the symbol order.  A coefficient is an int when it is integral and a
# Fraction otherwise; int arithmetic avoids building a Fraction for every
# product and sum, and _coef restores the rule after each Fraction operation.
# Rational functions are (numerator, denominator) pairs of such dicts; the
# denominator of a canonical pair is monic with gcd 1 against the numerator.

_P_ONE_KEY: tuple = ()


def _coef(c):
    """c as an int when it is an integral Fraction, else c unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _p_one() -> dict:
    return {_P_ONE_KEY: 1}


def _p_is_one(p: dict) -> bool:
    return len(p) == 1 and _P_ONE_KEY in p and p[_P_ONE_KEY] == 1


def _p_is_const(p: dict) -> bool:
    return not p or (len(p) == 1 and _P_ONE_KEY in p)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        sa, ea = a[ia]
        sb, eb = b[ib]
        if sa == sb:
            out.append((sa, ea + eb))
            ia += 1
            ib += 1
        elif sa < sb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _p_add_into(acc: dict, p: dict, scale=1) -> None:
    for mono, c in p.items():
        new = acc.get(mono, 0) + c * scale
        if new:
            acc[mono] = _coef(new)
        else:
            acc.pop(mono, None)


def _p_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if _p_is_one(a):
        return dict(b)
    if _p_is_one(b):
        return dict(a)
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = _mono_mul(ma, mb)
            new = out.get(key, 0) + ca * cb
            if new:
                out[key] = _coef(new)
            else:
                del out[key]
        if len(out) > _MAX_TERMS:
            raise UsageError("expanded product exceeds the budget of %d terms" % _MAX_TERMS)
    return out


def _p_pow(a: dict, n: int) -> dict:
    out = _p_one()
    base = a
    while n:
        if n & 1:
            out = _p_mul(out, base)
        n >>= 1
        if n:
            base = _p_mul(base, base)
    return out


def _p_scale(a: dict, c) -> dict:
    if c == 1:
        return a
    return {m: _coef(v * c) for m, v in a.items()}


def _mono_key(mono: tuple) -> tuple:
    return (sum(e for _, e in mono), tuple((s._k, e) for s, e in mono))


def _p_leading(p: dict) -> tuple:
    return max(p, key=_mono_key)


# --- multivariate gcd and exact division over Q ---
#
# Both work on the monomial dicts above.  Exact division needs a true term
# order: lex with the largest symbol most significant, whose key is the
# reversed monomial.  _mono_key is graded but compares the smallest symbols
# first, which is not compatible with multiplication; it only orders output
# and picks the leading coefficient that makes a polynomial monic.


def _lex_key(mono: tuple) -> tuple:
    return mono[::-1]


def _mono_div(a: tuple, b: tuple) -> Optional[tuple]:
    """Monomial quotient a / b, or None when b does not divide a."""
    out = dict(a)
    for s, e in b:
        left = out.get(s, 0) - e
        if left < 0:
            return None
        if left:
            out[s] = left
        else:
            del out[s]
    return tuple(out.items())


def _p_monic(p: dict) -> dict:
    if not p:
        return {}
    lc = p[_p_leading(p)]
    return _p_scale(p, 1 / Fraction(lc)) if lc != 1 else dict(p)


def _p_divexact(a: dict, b: dict) -> dict:
    """Exact quotient a / b; raises NormalizationError when b does not divide a."""
    if _p_is_one(b):
        return dict(a)
    lb = max(b, key=_lex_key)
    cb = b[lb]
    q: dict = {}
    r = dict(a)
    while r:
        lr = max(r, key=_lex_key)
        mono = _mono_div(lr, lb)
        if mono is None:
            raise NormalizationError("inexact polynomial division")
        rc = r[lr]
        if type(rc) is int and type(cb) is int and rc % cb == 0:
            qc = rc // cb
        else:
            qc = _coef(Fraction(rc) / cb)
        q[mono] = qc
        _p_add_into(r, {_mono_mul(m, mono): c for m, c in b.items()}, -qc)
    return q


def _p_gcd(a: dict, b: dict) -> dict:
    """Monic gcd of two polynomials over Q; constants count as units.

    Coefficients in and out follow the int-or-Fraction rule of this section.

    Primitive remainder sequence in the main variable, the largest symbol
    present (the last pair of some monomial).  A polynomial is split into a
    dict degree -> coefficient polynomial in the smaller symbols, whose
    contents recurse into this gcd.
    """
    if not a:
        return _p_monic(b)
    if not b:
        return _p_monic(a)
    if _p_is_const(a) or _p_is_const(b):
        return _p_one()
    main = max(mono[-1][0] for mono in chain(a, b) if mono)

    def to_univ(p: dict) -> dict:
        out: dict = {}
        for mono, c in p.items():
            if mono and mono[-1][0] == main:
                out.setdefault(mono[-1][1], {})[mono[:-1]] = c
            else:
                out.setdefault(0, {})[mono] = c
        return out

    def content(u: dict, g: dict) -> dict:
        for coeff in u.values():
            g = _p_gcd(g, coeff)
            if _p_is_const(g):
                return _p_one()
        return g

    def divide_univ(u: dict, d: dict) -> dict:
        return {deg: _p_divexact(coeff, d) for deg, coeff in u.items()}

    def prem(f: dict, g: dict) -> dict:
        dg = max(g)
        lg = g[dg]
        r = f
        while r and max(r) >= dg:
            dr = max(r)
            lr = r[dr]
            scaled = {d: _p_mul(c, lg) for d, c in r.items() if d != dr}
            for d, c in g.items():
                if d != dg:
                    acc = scaled.setdefault(d + dr - dg, {})
                    _p_add_into(acc, _p_mul(c, lr), -1)
                    if not acc:
                        del scaled[d + dr - dg]
            r = scaled
        return r

    fu, gu = to_univ(a), to_univ(b)
    if not (max(fu) and max(gu)):
        # an operand free of the main variable: its gcd with the other's coefficients
        return content(fu, b) if max(fu) else content(gu, a)
    cf, cg = content(fu, {}), content(gu, {})
    c = _p_gcd(cf, cg)
    fp = divide_univ(fu, cf)
    gp = divide_univ(gu, cg)
    if max(fp) < max(gp):
        fp, gp = gp, fp
    while gp:
        r = prem(fp, gp)
        if r:
            r = divide_univ(r, content(r, {}))
        fp, gp = gp, r

    flat: dict = {}
    for d, coeff in fp.items():
        tail = ((main, d),) if d else ()
        for mono, cc in coeff.items():
            flat[mono + tail] = cc
    return _p_monic(_p_mul(flat, c))


def _mono_content(p: dict) -> dict:
    """Largest monomial dividing every term of p (exponent-wise minimum)."""
    mins: dict = None
    for mono in p:
        cur = dict(mono)
        if mins is None:
            mins = cur
        else:
            mins = {s: min(e, cur[s]) for s, e in mins.items() if s in cur}
        if not mins:
            return {}
    return mins or {}


def _rat_reduce(num: dict, den: dict) -> tuple[dict, dict]:
    """num / den in canonical form: gcd 1 and a monic denominator.

    Integral coefficients come out as ints and the others as Fractions; a
    constant denominator is folded into the numerator as 1 / c.
    """
    if not den:
        raise NormalizationError("division by an identically zero expression")
    if not num:
        return {}, _p_one()
    if _p_is_const(den):
        return _p_scale(num, 1 / Fraction(den[_P_ONE_KEY])), _p_one()
    # joint monomial content
    cn, cd = _mono_content(num), _mono_content(den)
    common = {s: min(e, cd[s]) for s, e in cn.items() if s in cd}
    if common:
        mono = tuple(sorted(common.items(), key=lambda it: it[0]._k))
        num = {_mono_div(m, mono): c for m, c in num.items()}
        den = {_mono_div(m, mono): c for m, c in den.items()}
    if _p_is_const(den):
        return _p_scale(num, 1 / Fraction(den[_P_ONE_KEY])), _p_one()
    if len(den) > 1:
        g = _p_gcd(num, den)
        if not _p_is_const(g):
            num = _p_divexact(num, g)
            den = _p_divexact(den, g)
    if _p_is_const(den):
        return _p_scale(num, 1 / Fraction(den[_P_ONE_KEY])), _p_one()
    lc = den[_p_leading(den)]
    if lc != 1:
        inv = 1 / Fraction(lc)
        num = _p_scale(num, inv)
        den = _p_scale(den, inv)
    return num, den


def _to_rat(e: Expr) -> tuple[dict, dict]:
    if isinstance(e, Const):
        return ({_P_ONE_KEY: _coef(e.q)} if e.q else {}), _p_one()
    if isinstance(e, Atom):
        return {((e.sym, 1),): 1}, _p_one()
    if isinstance(e, Add):
        num: dict = {}
        den = _p_one()
        for t in e.terms:
            nt, dt = _to_rat(t)
            if dt == den:
                _p_add_into(num, nt)
            elif _p_is_one(dt):
                _p_add_into(num, _p_mul(nt, den))
            elif _p_is_one(den):
                num = _p_add(_p_mul(num, dt), nt)
                den = dt
            else:
                # common denominator lcm(den, dt) = den * (dt / g)
                g = _p_gcd(den, dt)
                ct = _p_divexact(dt, g)
                num = _p_add(_p_mul(num, ct), _p_mul(nt, _p_divexact(den, g)))
                den = _p_mul(den, ct)
        return num, den
    if isinstance(e, Mul):
        num = _p_one()
        den = _p_one()
        for f in e.factors:
            nf, df = _to_rat(f)
            num = _p_mul(num, nf)
            den = _p_mul(den, df) if not _p_is_one(df) else den
            if not num:
                return {}, _p_one()
        return num, den
    if isinstance(e, Pow):
        nb, db = _to_rat(e.base)
        n = e.exp
        if n < 0:
            if not nb:
                raise NormalizationError("division by an identically zero expression")
            nb, db = db, nb
            n = -n
        return _p_pow(nb, n), _p_pow(db, n)
    raise UsageError("cannot normalize %r" % (e,))


def _p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    _p_add_into(out, b)
    return out


def _poly_to_expr(p: dict) -> Expr:
    if not p:
        return Const(0)
    terms = []
    for mono in sorted(p, key=_mono_key, reverse=True):
        c = p[mono]
        factors: list[Expr] = []
        for s, e in mono:
            factors.append(Atom(s) if e == 1 else Pow(Atom(s), e))
        if not factors:
            terms.append(Const(c))
        elif c == 1:
            terms.append(factors[0] if len(factors) == 1 else Mul(factors))
        else:
            terms.append(Mul([Const(c)] + factors))
    return terms[0] if len(terms) == 1 else Add(terms)


def normalize(e: Expr) -> Expr:
    """Canonical quotient form; idempotent, exact, deterministic; atoms and constants as
    given.  A caller that only renders, zero-tests or expands it reads expand(e) instead."""
    if isinstance(e, (Atom, Const)):
        return e
    return canonical_quotient(*expand(e))


def canonical_quotient(num: dict, den: dict) -> Expr:
    """The tree normalize gives for num / den, a pair already in canonical form."""
    ne = _poly_to_expr(num)
    return ne if _p_is_one(den) else Mul([ne, Pow(_poly_to_expr(den), -1)])


def tree_of(side) -> Expr:
    """A side as a tree: a tree as given, a canonical pair as canonical_quotient builds it."""
    return side if isinstance(side, Expr) else canonical_quotient(*side)


def minus_polynomial(num: dict, den: dict, poly: dict) -> tuple[dict, dict]:
    """num / den - poly as a canonical pair, for a canonical pair num / den: no
    gcd is taken, since gcd(num - poly * den, den) = gcd(num, den) = 1."""
    out = dict(num)
    _p_add_into(out, _p_mul(poly, den), -1)
    return out, den if out else _p_one()


def expand(e: Expr) -> tuple[dict, dict]:
    """e as a canonical pair (numerator, denominator) of monomial dicts."""
    return _rat_reduce(*_to_rat(e))


# ---------------------------------------------------------------------------
# The partials table: one Lagrangian expanded once
#
# L = n/d in canonical form, b a base and e a power with d dividing b^e, so
# L = n'/b^e with n' = n b^e/d: the entry (n', e), an entry (N, r) read as
# N / b^r.  A derivation D whose components are single monomials maps N / b^r
# to (b DN - r N Db) / b^(r+1), or DN / b^r when Db = 0 (Geddes, Czapor and
# Labahn, Algorithms for Computer Algebra, 1992, ch. 2), and entries over
# different powers add over the largest.  That rule is the table's one chain
# rule: each partial dL/ds is D = d/ds applied to L's entry, and the total
# derivatives, the default lifts h_j and h_j^0 and the Euler-Lagrange sums
# work by it on expanded polynomials over powers of one fixed b; on a
# polynomial L (d = 1) every r is 0.  A side is gcd-reduced once, by one
# _rat_reduce when it is output.  b is d with each factor that L writes as
# a power f^k, k >= 2, kept once (_den_base): powers of b, not of d, keep a
# repeated factor from piling up, so three derivatives of 1/s^4 sit over s^7,
# not s^16.  Finding b takes trial divisions by those f, never a gcd; a factor
# repeated in some other way stays in b as often as in d, which costs only
# larger powers, since every entry is exact.


def _power_bases(e: Expr, out: dict) -> dict:
    """The non-constant numerators and denominators of the bases of e's powers
    with exponent at least 2 in size, each once, keyed by its terms; inner
    bases first, so (f^2)^3 lists f before f^2."""
    if isinstance(e, Pow):
        _power_bases(e.base, out)
        if abs(e.exp) >= 2:
            for p in _to_rat(e.base):
                if not _p_is_const(p):
                    out.setdefault(frozenset(p.items()), p)
    elif isinstance(e, (Add, Mul)):
        for t in (e.terms if isinstance(e, Add) else e.factors):
            _power_bases(t, out)
    return out


def _den_base(L: Expr, den: dict) -> tuple[dict, int, dict]:
    """The table's base b for L's denominator den, a power e with den dividing
    b^e, and b^e / den: each power base f of L divides out of den k times, b is
    the product of the f with k > 0 and of what is left, and e the largest k."""
    rest, found = den, []
    for f in _power_bases(L, {}).values():
        k = 0
        while not _p_is_const(rest):
            try:
                rest = _p_divexact(rest, f)
            except NormalizationError:
                break
            k += 1
        if k:
            found.append((f, k))
    e = max((k for _, k in found), default=1)
    base, cofactor = rest, _p_pow(rest, e - 1)
    for f, k in found:
        base, cofactor = _p_mul(base, f), _p_mul(cofactor, _p_pow(f, e - k))
    return base, e, cofactor


class Derivation:
    """sum_s c_s d/ds, each component c_s one monomial with coefficient 1 (a
    tuple) or None for 0, made by rule(s) when s is first met; apply maps a
    polynomial to its image."""

    __slots__ = ("rule", "comps")

    def __init__(self, rule: Callable[[Sym], Optional[tuple]]):
        self.rule = rule
        self.comps: dict = {}

    def apply(self, p: dict) -> dict:
        comps = self.comps
        out: dict = {}
        for mono, c in p.items():
            for ix, (s, e) in enumerate(mono):
                if s not in comps:
                    comps[s] = self.rule(s)
                v = comps[s]
                if v is None:
                    continue
                rest = mono[:ix] + ((s, e - 1),) + mono[ix + 1:] if e > 1 else mono[:ix] + mono[ix + 1:]
                key = _mono_mul(rest, v)
                new = out.get(key, 0) + c * e
                if new:
                    out[key] = _coef(new)
                else:
                    del out[key]
        return out


def horizontal(i: int, jet_rule: Callable[[Sym], Optional[tuple]]) -> Derivation:
    """d/dx^i plus the formal field derivative along x^i, and jet_rule's
    component on each jet; 0 along everything else."""

    def rule(s: Sym) -> Optional[tuple]:
        if s.kind == JET:
            return jet_rule(s)
        if s.kind == BASE:
            return () if s.i == i else None
        if s.kind == FIELD and i in s.deps:
            return ((field_sym(s.name, s.index.bump(i), s.deps), 1),)
        return None

    return Derivation(rule)


class Partials:
    """A Lagrangian expanded once: its canonical pair num/den, and its partials
    as entries over powers of base (_den_base), each derived from L's entry
    when first asked for.  Only the entries need base, so the canonical pair
    alone (a report's header) costs one expansion of L."""

    __slots__ = ("num", "den", "base", "_L", "_poly", "_lag", "_of", "_images", "_powers")

    def __init__(self, L: Expr):
        self._L = L
        self.num, self.den = expand(L)
        self._poly = _p_is_one(self.den)
        self.base = self._lag = None
        self._of: dict = {}
        self._images: dict = {}

    def lagrangian(self) -> tuple[dict, int]:
        """L itself as an entry; the first call finds base."""
        if self._lag is None:
            self.base, e, cofactor = ((self.den, 0, _p_one()) if self._poly else
                                      _den_base(self._L, self.den))
            self._lag = _p_mul(self.num, cofactor), e
            self._powers = {1: self.base}
        return self._lag

    def of(self, s: Sym) -> tuple[dict, int]:
        """dL/ds, each atom independent of the others."""
        if s not in self._of:
            d_s = Derivation(lambda t: () if t == s else None)
            self._of[s] = self.derive(self.lagrangian(), d_s)
        return self._of[s]

    def derive(self, entry: tuple[dict, int], d: Derivation) -> tuple[dict, int]:
        """D applied to an entry."""
        num, r = entry
        if not num:
            return entry
        if d not in self._images:
            self._images[d] = d.apply(self.base)
        db = self._images[d]
        if not db:
            return d.apply(num), r
        out = _p_mul(d.apply(num), self.base)
        _p_add_into(out, _p_mul(num, db), -r)
        return out, r + 1

    def _power(self, r: int) -> dict:
        if r not in self._powers:
            self._powers[r] = _p_pow(self.base, r)
        return self._powers[r]

    def total(self, terms: Sequence[tuple[int, tuple[dict, int]]]) -> tuple[dict, int]:
        """The sum of sign * entry over (sign, entry) in terms, over the largest power of base."""
        top = max((r for _, (num, r) in terms if num), default=0)
        out: dict = {}
        for sign, (num, r) in terms:
            if num:
                _p_add_into(out, num if r == top else _p_mul(num, self._power(top - r)), sign)
        return out, top

    def reduce(self, entry: tuple[dict, int]) -> tuple[dict, dict]:
        """The entry as a canonical pair: one _rat_reduce, none on a polynomial."""
        num, r = entry
        if self._poly or not num:
            return num, _p_one()
        return _rat_reduce(num, self._power(r))


def is_zero(e: Expr) -> bool:
    return not expand(e)[0]


def equivalent(a: Expr, b: Expr) -> bool:
    """Decide a == b symbolically; the route is complete for this algebra.

    Raises NormalizationError when a denominator is identically zero.
    """
    return is_zero(esub(a, b))


# ---------------------------------------------------------------------------
# Numeric evaluation

# Deepest nesting of parentheses and chained operators in one generated
# statement; a deeper subtree becomes a local statement of its own.
_MAX_DEPTH = 50


def _npow(b, n: int, node: Expr):
    """b ** n for a negative n, refusing a zero base anywhere in b; a Taylor
    value (oracle.Taylor) is refused on a zero constant term.  An array is
    tested by its own all(), a scalar by != 0, so nothing here needs numpy."""
    v = getattr(b, "value", b)
    if not (v.all() if hasattr(v, "all") else v != 0):
        raise EvalDomainError("division by zero in %s" % render(node))
    return b ** n


def compile_expr(exprs: Sequence[Expr], syms: Sequence[Sym]) -> Callable:
    """Compile a sequence of expressions to a callable f(v).

    v holds the values of syms in order: floats, or equally shaped numpy
    arrays evaluated elementwise.  f returns the tuple of the expressions'
    values.  Expressions must be free of field atoms (bind fields first);
    symbols not listed raise at compile time.  A constant beyond the float
    range raises EvalDomainError here, and a zero base under a negative power
    when f is called.
    """
    pos = {s: ix for ix, s in enumerate(syms)}
    lines: list[str] = []
    poles: list[Expr] = []

    def hoist(text: str, name: Optional[str] = None) -> tuple[str, int]:
        name = name or "t%d" % len(lines)
        lines.append("%s = %s" % (name, text))
        return name, 0

    def join(op: str, parts) -> tuple[str, int]:
        # Left to right, as Python groups a+b+c; an accumulator that would nest
        # too deeply is stored and continued, which keeps the evaluation order.
        text, depth = parts[0]
        acc = None
        for t, d in parts[1:]:
            if max(depth, d) + 2 >= _MAX_DEPTH:
                acc, depth = hoist(text, acc)
                text = acc
                if d + 2 >= _MAX_DEPTH:
                    t, d = hoist(t)
            text, depth = text + op + t, max(depth, d) + 1
        return "(" + text + ")", depth + 1

    def emit(x: Expr) -> tuple[str, int]:
        if isinstance(x, Const):
            try:
                return "(%r)" % float(x.q), 0
            except OverflowError:
                raise EvalDomainError("a constant of %d digits is too large for floating point"
                                      % len(str(abs(x.q.numerator)))) from None
        if isinstance(x, Atom):
            if x.sym not in pos:
                raise UsageError("symbol %s not in compile scope" % x.sym.render())
            return "v[%d]" % pos[x.sym], 0
        if isinstance(x, (Add, Mul)):
            parts = []
            for c in x.terms if isinstance(x, Add) else x.factors:
                parts.append(emit(c))  # a loop, not a comprehension: one frame per level
            out = join("+" if isinstance(x, Add) else "*", parts)
        elif isinstance(x, Pow):
            text, depth = emit(x.base)
            if x.exp > 0:
                out = "(%s**%d)" % (text, x.exp), depth + 1
            else:
                poles.append(x)
                out = "_npow(%s,%d,_P[%d])" % (text, x.exp, len(poles) - 1), depth + 1
        else:
            raise UsageError("cannot compile %r" % (x,))
        return hoist(out[0]) if out[1] >= _MAX_DEPTH else out

    results = []
    for x in exprs:
        results.append(emit(x)[0])
    ret = "(%s,)" % ",".join(results) if results else "()"
    src = "def f(v):\n" + "".join("    %s\n" % ln for ln in lines) + "    return %s\n" % ret
    namespace = {"__builtins__": {}, "_npow": _npow, "_P": poles}
    exec(src, namespace)
    return namespace["f"]


def compile_at(exprs: Sequence[Expr], fields: Optional[Mapping[str, Expr]] = None) -> Callable:
    """exprs with fields bound, compiled once: a function from a point to the tuple of
    their values.

    A point maps symbols to floats or equally shaped numpy arrays; fields optionally
    binds external field names to expressions in the base variables.  A missing value
    or a zero base under a negative power raises EvalDomainError.
    """
    if fields:
        exprs = [substitute_fields(x, fields) for x in exprs]
    syms = sorted(set().union(*map(free_syms, exprs)))
    values_at = compile_expr(exprs, syms)
    return lambda point: values_at(bind_values(point, syms))


def bind_values(point: Mapping[Sym, object], syms: Sequence[Sym]) -> list:
    """The values of syms at a point, in the order of syms: an array of one or more
    dimensions as it is, any other value as a float."""
    for s in syms:
        if s not in point:
            raise EvalDomainError("no value assigned to %s" % s.render())
    return [point[s] if getattr(point[s], "ndim", 0) else float(point[s]) for s in syms]


# ---------------------------------------------------------------------------
# Rendering


def _render_factor(e: Expr) -> str:
    paren = isinstance(e, (Add, Mul)) or isinstance(e, Const) and e.q < 0
    return "(" + render(e) + ")" if paren else render(e)


def _split_sign(e: Expr) -> tuple[int, Expr]:
    if isinstance(e, Const) and e.q < 0:
        return -1, Const(-e.q)
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Const) and e.factors[0].q < 0:
        first = Const(-e.factors[0].q)
        rest = list(e.factors[1:])
        if first.q == 1 and rest:
            return -1, (rest[0] if len(rest) == 1 else Mul(rest))
        return -1, Mul([first] + rest)
    return 1, e


def render_side(side) -> str:
    """render(tree_of(side)), read off a canonical pair's sorted monomials without
    the tree; every coefficient is checked."""
    if isinstance(side, Expr):
        return render(side)
    if _p_is_one(side[1]):
        return _poly_text(side[0])
    # a factor is in parentheses unless one constant, or one symbol or power with coefficient 1
    return "/".join(_poly_text(p) if len(p) <= 1 and all(not m or c == 1 and len(m) == 1
                                                         for m, c in p.items())
                    else "(" + _poly_text(p) + ")" for p in side)


def _poly_text(p: dict) -> str:
    text = ""
    for mono in sorted(p, key=_mono_key, reverse=True):
        c = p[mono]
        factors = [s.render() if e == 1 else "%s^%d" % (s.render(), e) for s, e in mono]
        if c not in (1, -1) or not mono:
            factors.insert(0, str(_check_digits(abs(c), "in a result")))
        text += (" - " if c < 0 else " + ") + "*".join(factors)
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


def render(e: Expr) -> str:
    """Deterministic text form; canonical expressions re-parse to equal values."""
    if isinstance(e, Const):
        return str(_check_digits(e.q, "in a result"))
    if isinstance(e, Atom):
        return e.sym.render()
    if isinstance(e, Add):
        parts = []
        for ix, t in enumerate(e.terms):
            sign, mag = _split_sign(t)
            txt = render(mag) if not isinstance(mag, Add) else "(" + render(mag) + ")"
            if ix == 0:
                parts.append(("-" if sign < 0 else "") + txt)
            else:
                parts.append((" - " if sign < 0 else " + ") + txt)
        return "".join(parts)
    if isinstance(e, Mul):
        num_parts: list[str] = []
        den_parts: list[str] = []
        neg = False
        for f in e.factors:
            if isinstance(f, Const):
                q = f.q
                if q < 0:
                    neg = not neg
                    q = -q
                if q != 1 or len(e.factors) == 1:
                    num_parts.append(str(_check_digits(q, "in a result")))
            elif isinstance(f, Pow) and f.exp < 0:
                inner = epow(f.base, -f.exp)
                den_parts.append(_render_factor(inner) if not isinstance(inner, Pow)
                                 else render(inner) if isinstance(inner.base, Atom)
                                 else "(" + render(inner.base) + ")^" + str(inner.exp))
            else:
                num_parts.append(_render_factor(f))
        num = "*".join(num_parts) if num_parts else "1"
        out = num
        if den_parts:
            den = den_parts[0] if len(den_parts) == 1 else "(" + "*".join(den_parts) + ")"
            out = "%s/%s" % (num, den)
        return ("-" if neg else "") + out
    if isinstance(e, Pow):
        base = e.base
        btxt = render(base) if isinstance(base, (Atom,)) else "(" + render(base) + ")"
        return "%s^%d" % (btxt, e.exp)
    raise UsageError("cannot render %r" % (e,))


# ---------------------------------------------------------------------------
# Parsing

_PUNCT = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",", "@", ";", "=")

# Deepest parenthesis nesting the parser accepts.  Each level costs four
# recursive parser calls, so a bound well under the interpreter's recursion
# limit turns pathological input into a ParseError instead of a crash.
_MAX_NESTING = 200

# Largest |exponent| a parsed power may carry once nested powers fold, as in
# (a^8)^8 = a^64.  Expansion cost grows steeply with it: `srfield el` on
# (u[1]+u[0]+x[1])^64 takes more than ten times as long as on ^32.
_MAX_EXPONENT = 32

# Most terms an expanded product may have.  Powers under the exponent budget
# can still expand past it, as a sum of six jets to the 32nd power does; the
# largest product the benchmark problems form has well under 200 terms.
_MAX_TERMS = 10_000
# Most coordinates a catalog may have; the benchmark and the tests build at most 154.
_MAX_COORDS = 2_000

# Most decimal digits a numerator or denominator may have: in a literal, in a
# constant the parser folds, as in ((3^32)^32)^32, and in a rendered result.
# It stays under 640, the lowest int-to-string limit Python can be set to.
_MAX_DIGITS = 600
_DIGIT_BOUND = 10 ** _MAX_DIGITS


def _check_digits(q: Fraction, where: str) -> Fraction:
    if max(abs(q.numerator), q.denominator) >= _DIGIT_BOUND:
        raise UsageError("constant with more than %d digits %s" % (_MAX_DIGITS, where))
    return q


def _folded(e: Expr, pos: int) -> Expr:
    """e, once the constant the parser folded into it passes the digit budget."""
    const = (e if isinstance(e, Const) else e.factors[0] if isinstance(e, Mul)
             else e.terms[-1] if isinstance(e, Add) else None)
    if isinstance(const, Const):
        _check_digits(const.q, "(at position %d)" % pos)
    return e


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._lex()
        self.ix = 0
        self.depth = 0

    def _lex(self):
        t = self.text
        i = 0
        while i < len(t):
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(t) and t[j].isdigit():
                    j += 1
                if j - i > _MAX_DIGITS:
                    raise ParseError("number with more than %d digits" % _MAX_DIGITS, i)
                self.tokens.append(("num", int(t[i:j]), i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("ident", t[i:j], i))
                i = j
                continue
            if c in _PUNCT:
                self.tokens.append((c, c, i))
                i += 1
                continue
            raise ParseError("unexpected character %r" % c, i)
        self.tokens.append(("end", None, len(t)))

    def peek(self):
        return self.tokens[self.ix]

    def next(self):
        tok = self.tokens[self.ix]
        self.ix += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1]), tok[2])
        return tok


def _parse_nat_list(lx: _Lexer) -> list[int]:
    out = [lx.expect("num")[1]]
    while lx.peek()[0] == ",":
        lx.next()
        out.append(lx.expect("num")[1])
    return out


def _parse_fiber(lx: _Lexer, n: int) -> int:
    if lx.peek()[0] == "@":
        lx.next()
        tok = lx.expect("num")
        alpha = tok[1]
        if not 1 <= alpha <= n:
            raise ParseError("fiber index %d out of range 1..%d" % (alpha, n), tok[2])
        return alpha
    return 1


def _parse_base(lx: _Lexer, catalog) -> Expr:
    tok = lx.next()
    kind, val, pos = tok
    if kind == "num":
        return Const(val)
    if kind == "(":
        if lx.depth == _MAX_NESTING:
            raise ParseError("parentheses nested deeper than %d" % _MAX_NESTING, pos)
        lx.depth += 1
        e = _parse_expr(lx, catalog)
        lx.expect(")")
        lx.depth -= 1
        return e
    if kind == "ident":
        name = val
        if name == "u" and lx.peek()[0] == "[":
            lx.next()
            comps = _parse_nat_list(lx)
            lx.expect("]")
            if len(comps) != catalog.m:
                raise ParseError(
                    "jet multi-index %s has %d slots, catalog needs %d"
                    % (comps, len(comps), catalog.m), pos)
            index = MultiIndex(comps)
            if index.order > catalog.k:
                raise ParseError("jet order %d exceeds catalog order %d" % (index.order, catalog.k),
                                 pos)
            alpha = _parse_fiber(lx, catalog.n)
            return Atom(jet_sym(alpha, index))
        if name == "x" and lx.peek()[0] == "[":
            lx.next()
            tok2 = lx.expect("num")
            lx.expect("]")
            if not 1 <= tok2[1] <= catalog.m:
                raise ParseError("base index %d out of range 1..%d" % (tok2[1], catalog.m),
                                 tok2[2])
            return Atom(base_sym(tok2[1]))
        if name in catalog.fields:
            return Atom(field_sym(name, zero(catalog.m), catalog.fields[name]))
        raise ParseError("unknown coordinate or undeclared field %r" % name, pos)
    raise ParseError("unexpected token %r" % (val,), pos)


def _parse_factor(lx: _Lexer, catalog) -> Expr:
    base = _parse_base(lx, catalog)
    if lx.peek()[0] == "^":
        lx.next()
        sign = 1
        if lx.peek()[0] == "-":
            lx.next()
            sign = -1
        tok = lx.expect("num")
        n = sign * tok[1]
        # the exponent epow would fold to, checked before epow raises a
        # constant base outright
        folded = n * base.exp if isinstance(base, Pow) else n
        if abs(folded) > _MAX_EXPONENT:
            raise UsageError("exponent %d exceeds the budget of %d (at position %d)"
                             % (folded, _MAX_EXPONENT, tok[2]))
        return _folded(epow(base, n), tok[2])
    return base


def _parse_term(lx: _Lexer, catalog) -> Expr:
    e = _parse_factor(lx, catalog)
    while lx.peek()[0] in ("*", "/"):
        op, _, pos = lx.next()
        rhs = _parse_factor(lx, catalog)
        e = _folded(emul(e, rhs) if op == "*" else ediv(e, rhs), pos)
    return e


def _parse_expr(lx: _Lexer, catalog) -> Expr:
    neg = False
    if lx.peek()[0] == "-":
        lx.next()
        neg = True
    e = _parse_term(lx, catalog)
    if neg:
        e = eneg(e)
    while lx.peek()[0] in ("+", "-"):
        op, _, pos = lx.next()
        rhs = _parse_term(lx, catalog)
        e = _folded(eadd(e, rhs) if op == "+" else esub(e, rhs), pos)
    return e


def parse(text: str, catalog) -> Expr:
    """Parse an expression against a coordinate catalog.

    Grammar: expr := ['-'] term (('+'|'-') term)*; term := factor (('*'|'/')
    factor)*; factor := base ('^' ['-'] nat)?; base := nat | ident |
    'u' '[' nat (',' nat)* ']' ('@' nat)? | 'x' '[' nat ']' | '(' expr ')'.
    Identifiers must be fields declared in the catalog.
    """
    lx = _Lexer(text)
    e = _parse_expr(lx, catalog)
    tok = lx.peek()
    if tok[0] != "end":
        raise ParseError("trailing input %r" % (tok[1],), tok[2])
    return e


def parse_coordinate_name(text: str, catalog) -> Sym:
    """Resolve a rendered coordinate name (x[i], u[J](@a), p[I;i](@a), p, field).

    Every name but the momenta is a coordinate atom of the expression grammar.
    """
    lx = _Lexer(text)
    kind, val, pos = lx.peek()
    if kind != "ident":
        raise ParseError("coordinate name expected", pos)
    if val != "p":
        sym = _parse_base(lx, catalog).sym
    else:
        lx.next()
        sym = p_sym()
        if lx.peek()[0] == "[":
            lx.next()
            comps = _parse_nat_list(lx)
            lx.expect(";")
            i = lx.expect("num")[1]
            lx.expect("]")
            sym = mom_sym(_parse_fiber(lx, catalog.n), MultiIndex(comps), i)
    if lx.peek()[0] != "end":
        raise ParseError("trailing input in coordinate name", lx.peek()[2])
    if not catalog.contains(sym) and sym.kind != FIELD:
        raise ParseError("coordinate %s not in catalog" % sym.render(), 0)
    return sym
