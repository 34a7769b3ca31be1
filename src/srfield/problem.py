"""Problem files: a flat key-value text format describing one variational problem.

Recognized lines (comments start with '#'):

    m=2
    n=1
    k=2
    field q(x[1],x[2]) = 1
    lagrangian = 1/2*(u[2,0]^2 + 2*u[1,1]^2 + u[0,2]^2 - 2*q*u[0,0])
    section@1 = x[1]^3
    variation@1 = 1 + x[1]*x[2]
    point = u[2,0]=1.5 u[1,1]=0.25 u[0,2]=1.0

Sections and variations are paired in file order; a repeated fiber index
starts a new entry.  Each point line is one more point.  Point assignments are
whitespace-separated name=value pairs using the rendered coordinate names.
m, n, k, lagrangian and each field name may be given once: a repeat is a
ParseError naming the key and both lines, not a silent override.  Every line
is checked on parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ParseError, UsageError
from .jetmodel import BundleSpec, CoordCatalog, SectionFn, build_catalog
from .symexpr import Expr, Sym, parse, parse_coordinate_name

_FIELD_RE = re.compile(r"^field\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*(?:=\s*(.*))?$")
_AT_RE = re.compile(r"^(section|variation)@(\d{1,9})$")


@dataclass
class ProblemFile:
    bundle: BundleSpec
    lagrangian_text: str
    fields: dict[str, tuple[tuple[int, ...], Optional[str]]] = field(default_factory=dict)
    sections: list[dict[int, str]] = field(default_factory=list)
    variations: list[dict[int, str]] = field(default_factory=list)
    points: list[dict[str, float]] = field(default_factory=list)
    # parse_problem's catalog, Lagrangian and field bindings, reused for that catalog
    _parsed: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def catalog(self) -> CoordCatalog:
        if self._parsed:
            return self._parsed[0]
        return build_catalog(self.bundle, fields={n: d for n, (d, _) in self.fields.items()})

    def lagrangian(self, catalog: Optional[CoordCatalog] = None) -> Expr:
        if self._parsed and catalog in (None, self._parsed[0]):
            return self._parsed[1]
        return parse(self.lagrangian_text, catalog or self.catalog())

    def field_bindings(self, catalog: Optional[CoordCatalog] = None) -> dict[str, Expr]:
        """Expressions bound to fields, for the numeric stages; unbound fields omitted."""
        if self._parsed and catalog in (None, self._parsed[0]):
            return dict(self._parsed[2])
        catalog = catalog or self.catalog()
        out = {}
        for name, (_, text) in self.fields.items():
            if text is not None:
                out[name] = parse(text, catalog)
        return out

    def section_fns(self, catalog: Optional[CoordCatalog] = None) -> list[SectionFn]:
        catalog = catalog or self.catalog()
        return [_to_section(entry, self.bundle, catalog) for entry in self.sections]

    def variation_fns(self, catalog: Optional[CoordCatalog] = None) -> list[SectionFn]:
        catalog = catalog or self.catalog()
        return [_to_section(entry, self.bundle, catalog) for entry in self.variations]

    def point_assignments(self, catalog: Optional[CoordCatalog] = None) -> list[dict[Sym, float]]:
        catalog = catalog or self.catalog()
        out = []
        for entry in self.points:
            out.append({parse_coordinate_name(name, catalog): value
                        for name, value in entry.items()})
        return out


def _to_section(entry: dict[int, str], bundle: BundleSpec, catalog: CoordCatalog) -> SectionFn:
    comps = []
    for alpha in range(1, bundle.n + 1):
        if alpha not in entry:
            raise UsageError("section/variation missing component for fiber index %d" % alpha)
        comps.append(parse(entry[alpha], catalog))
    return SectionFn(comps)


def parse_problem(text: str) -> ProblemFile:
    header: dict[str, int] = {}
    fields: dict[str, tuple[tuple[int, ...], Optional[str]]] = {}
    lagrangian: Optional[str] = None
    sections: list[dict[int, str]] = []
    variations: list[dict[int, str]] = []
    points: list[dict[str, float]] = []
    first_line: dict[str, int] = {}

    def once(key: str, lineno: int) -> None:
        if key in first_line:
            raise ParseError("line %d: repeated key %s, first given on line %d"
                             % (lineno, key, first_line[key]))
        first_line[key] = lineno

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fm = _FIELD_RE.match(line)
        if fm:
            name, deps_text, value = fm.group(1), fm.group(2), fm.group(3)
            once("field " + name, lineno)
            deps = []
            for part in deps_text.split(",") if deps_text.strip() else ():
                part = part.strip()
                dm = re.match(r"^x\[(\d{1,9})\]$", part)
                if not dm:
                    raise ParseError("line %d: bad field dependence %r" % (lineno, part))
                deps.append(int(dm.group(1)))
            fields[name] = (tuple(deps), value.strip() if value else None)
            continue
        if "=" not in line:
            raise ParseError("line %d: expected key=value, got %r" % (lineno, line))
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in ("m", "n", "k", "lagrangian"):
            once(key, lineno)
        if key in ("m", "n", "k"):
            try:
                header[key] = int(value)
            except ValueError:
                raise ParseError("line %d: %s must be an integer" % (lineno, key)) from None
            continue
        if key == "lagrangian":
            lagrangian = value
            continue
        am = _AT_RE.match(key)
        if am:
            kind, alpha = am.group(1), int(am.group(2))
            target = sections if kind == "section" else variations
            if not target or alpha in target[-1]:
                target.append({})
            target[-1][alpha] = value
            continue
        if key == "point":
            entry: dict[str, float] = {}
            for token in value.split():
                if "=" not in token:
                    raise ParseError("line %d: bad point assignment %r" % (lineno, token))
                name, num = token.rsplit("=", 1)
                try:
                    entry[name] = float(num)
                except ValueError:
                    raise ParseError("line %d: bad number %r" % (lineno, num)) from None
            points.append(entry)
            continue
        raise ParseError("line %d: unknown key %r" % (lineno, key))

    for req in ("m", "n", "k"):
        if req not in header:
            raise ParseError("missing header key %s=" % req)
    if lagrangian is None:
        raise ParseError("missing lagrangian=")
    try:
        bundle = BundleSpec(header["m"], header["n"], header["k"])
    except UsageError as exc:
        raise ParseError(str(exc)) from None
    problem = ProblemFile(bundle, lagrangian, fields, sections, variations, points)
    catalog = problem.catalog()
    parsed = (catalog, problem.lagrangian(catalog), problem.field_bindings(catalog))
    problem.section_fns(catalog)
    problem.variation_fns(catalog)
    problem.point_assignments(catalog)
    problem._parsed = parsed
    return problem


def load_problem(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text: byte %d" % exc.start) from None
    return parse_problem(text)
