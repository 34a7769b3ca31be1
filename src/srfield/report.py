"""Full pipeline runs producing deterministic, JSON-serializable reports.

The analysis and the oracle stages import their modules, and with them numpy,
when they first run; the equations and EL stages are exact and need neither."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Optional

from . import assembler, eleuler
from . import multiindex as mi
from .equations import TAG_C, Equation
from .errors import EvalDomainError, QuadratureError
from .jetmodel import BundleSpec, CoordCatalog, SectionFn
from .problem import ProblemFile
from .symexpr import (
    Atom,
    Expr,
    FIELD,
    Partials,
    aux_c,
    base_sym,
    canonical_polynomial,
    free_syms,
    normalize,
    render,
    render_side,
)

ORACLE_PAIRS = 3
REGULARITY_SAMPLES = 5
KERNEL_SAMPLES = 5


def _rng(seed: int, stage: str) -> random.Random:
    return random.Random("%d:%s" % (seed, stage))


def _round_float(x: float) -> float:
    """x to the 12 significant digits that reports keep."""
    return float("%.12g" % x)


def _round_floats(obj):
    if isinstance(obj, float):
        return _round_float(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _quantize(x: float) -> Fraction:
    return Fraction(round(x * 10 ** 6), 10 ** 6)


def _random_polynomial(spec: BundleSpec, rng: random.Random, draws) -> SectionFn:
    """Per fiber index, the sum over (J, low, high) in draws of a quantized draw from
    [low, high], drawn in that order, times the monomial x^J.  Each component is
    built in normalize's canonical form, so rendering it normalizes nothing."""
    comps = []
    for _ in range(spec.n):
        coeffs: dict = {}
        for J, low, high in draws:
            mono = tuple((base_sym(i), c) for i, c in enumerate(J, start=1) if c)
            coeffs[mono] = coeffs.get(mono, 0) + _quantize(rng.uniform(low, high))
        comps.append(canonical_polynomial(coeffs))
    return SectionFn(comps)


def random_section(spec: BundleSpec, rng: random.Random) -> SectionFn:
    """Random polynomial section with a dominant positive slope along x[1].

    The slope sits in [1, 2] and the remaining degree-<=3 coefficients in
    [-1/50, 1/50], which keeps u_{1_1} safely positive on the unit box
    (needed by Lagrangians with inverse-jet factors).
    """
    rest = mi.enumerate_up_to(spec.m, 3)[1:]
    return _random_polynomial(spec, rng, [(mi.unit(1, spec.m), 1.0, 2.0)]
                              + [(J, -0.02, 0.02) for J in rest])


def random_variation(spec: BundleSpec, rng: random.Random) -> SectionFn:
    """Random polynomial of degree <= 2 per fiber index, coefficients in [-1, 1]."""
    return _random_polynomial(spec, rng, [(J, -1.0, 1.0) for J in mi.enumerate_up_to(spec.m, 2)])


def default_grid(spec: BundleSpec) -> int:
    """Gauss-Legendre nodes per axis for the oracle (the refinement check uses 2n-1)."""
    return 9


def _section_text(s: SectionFn) -> list[str]:
    return [render(normalize(c)) for c in s.components]


def run_problem(problem: ProblemFile, seed: int = 0,
                stages: Optional[set[str]] = None) -> dict:
    """Run the pipeline on a problem and assemble the report dictionary.

    stages restricts the work ("equations", "analysis", "el", "oracle"); the
    catalog and flags are always present.  All randomness is drawn from
    per-stage generators derived from the seed, which is recorded.  Floats are
    kept to 12 significant digits, rounded where they are made.
    """
    spec = problem.bundle
    catalog = problem.catalog()
    L = problem.lagrangian(catalog)
    bindings = problem.field_bindings(catalog)
    # L expanded once: the header, the equations and EL all read this table
    table = Partials(L)
    all_stages = {"equations", "analysis", "el", "oracle"}
    stages = all_stages if stages is None else stages

    report: dict = {
        "problem": {
            "m": spec.m,
            "n": spec.n,
            "k": spec.k,
            "lagrangian": render_side((table.num, table.den)),
            "fields": {
                name: {"depends": list(deps),
                       "value": None if text is None else text}
                for name, (deps, text) in sorted(problem.fields.items())
            },
            "seed": seed,
        },
        "catalog": catalog.names(),
        "flags": [],
    }
    if spec.k == 1 or spec.m == 1:
        report["flags"].append(
            "k=1 or m=1: further constraint steps beyond the scalar-momentum level may be required")

    if "equations" in stages:
        eqs = assembler.dynamical_equations(catalog, L, table)
        eqs.extend(assembler.w2_constraint(catalog, L, table))
        eqs.extend(assembler.tangency_equations(catalog, L, table))
        for j, c in enumerate(assembler.default_c_sides(catalog, L, table), start=1):
            eqs.add(Equation(Atom(aux_c(j)), c, TAG_C, "d/dx[%d] of H0" % j))
        report["equations"] = {tag: [e.record() for e in eqs.by_tag(tag)]
                               for tag in sorted(eqs.tags())}

    if "analysis" in stages:
        report["analysis"] = _analysis_section(problem, catalog, L, bindings, seed)

    # derived once: the el stage reports it and the oracle checks it
    el = eleuler.euler_lagrange(L, spec, table) if "el" in stages or "oracle" in stages else None
    if "el" in stages:
        report["euler_lagrange"] = el.records()

    if "oracle" in stages:
        report["oracle"] = _oracle_section(problem, catalog, L, el, bindings, seed)

    return report


def _analysis_section(problem: ProblemFile, catalog: CoordCatalog, L: Expr,
                      bindings, seed: int) -> dict:
    from . import analysis

    spec = problem.bundle
    out: dict = {}
    hess = analysis.highest_hessian(L, spec)
    out["hessian"] = hess.records()

    hess_syms = set()
    for row in hess.entries:
        for e in row:
            hess_syms |= free_syms(e)

    rng = _rng(seed, "regularity")
    points, shown = [], []
    for _ in range(REGULARITY_SAMPLES):
        point = {s: rng.uniform(1.0, 2.0) for s in catalog.coords}
        for s in sorted(hess_syms):
            if s.kind == FIELD and s.name not in bindings:
                point[s] = rng.uniform(1.0, 2.0)
        points.append(point)
        shown.append({s.render(): _round_float(point[s]) for s in sorted(hess_syms) if s in point})
    for point in problem.point_assignments(catalog):
        points.append(point)
        shown.append({s.render(): _round_float(v) for s, v in sorted(point.items())})
    samples = [{"point": where, "regular": analysis.full_rank(mat)}
               for where, mat in zip(shown, analysis.hessian_at(hess, points, bindings or None))]
    out["regularity"] = {
        "seed": seed,
        "samples": samples,
        "regular_all": all(s["regular"] for s in samples),
    }

    out["classification"] = analysis.classify_b_system(spec).record()

    if spec.m >= 2 and spec.k >= 2:
        sel = analysis.prop31_select(spec)
        rec = sel.record()
        verified, route = analysis.prop31_verify_detailed(sel)
        rec["verified"] = verified
        rec["route"] = route
        rec["applicable"] = True
        out["prop31"] = rec
    else:
        out["prop31"] = {"applicable": False}

    if spec.m < 2:
        out["omega2"] = {"applicable": False,
                         "reason": "kernel check is stated for base dimension m >= 2"}
    elif any(s.kind == FIELD and s.name not in bindings for s in free_syms(L)):
        out["omega2"] = {"applicable": False,
                         "reason": "Lagrangian has unbound external fields"}
    else:
        points = analysis.on_constraint_points(L, spec, _rng(seed, "omega2"), KERNEL_SAMPLES,
                                               bindings or None)
        dims = analysis.omega2_kernel_dims(L, spec, points, bindings or None)
        out["omega2"] = {"applicable": True, "seed": seed, "kernel_dims": dims}
    return out


def _oracle_section(problem: ProblemFile, catalog: CoordCatalog, L: Expr,
                    el: eleuler.ELSystem, bindings, seed: int) -> list[dict]:
    from .oracle import COMPLEX_STEP, oracle_for, relative_gap

    spec = problem.bundle
    if any(s.kind == FIELD and s.name not in bindings for s in free_syms(L)):
        return [{"skipped": "Lagrangian has unbound external fields"}]
    sections = problem.section_fns(catalog)
    variations = problem.variation_fns(catalog)
    rng = _rng(seed, "oracle")
    pairs = list(zip(sections, variations))
    while len(pairs) < ORACLE_PAIRS:
        pairs.append((random_section(spec, rng), random_variation(spec, rng)))
    grid = default_grid(spec)
    oracle = oracle_for(L, spec, el, grid, bindings or None)
    out = []
    for s, psi in pairs:
        entry: dict = {
            "section": _section_text(s),
            "variation": _section_text(psi),
            "grid": grid,
            "seed": seed,
        }
        try:
            lhs, rhs = oracle(s, psi, COMPLEX_STEP)
            entry.update({
                "eps": _round_float(COMPLEX_STEP),
                "lhs": _round_float(lhs),
                "rhs": _round_float(rhs),
                "rel_err": _round_float(relative_gap(lhs, rhs)),
            })
        except (QuadratureError, EvalDomainError) as exc:
            entry["diagnostic"] = str(exc)
        out.append(entry)
    return out


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_text(report: dict) -> str:
    """Short human-readable summary of a report."""
    lines = []
    prob = report.get("problem", {})
    lines.append("bundle: m=%s n=%s k=%s" % (prob.get("m"), prob.get("n"), prob.get("k")))
    lines.append("lagrangian: %s" % prob.get("lagrangian"))
    for flag in report.get("flags", []):
        lines.append("flag: %s" % flag)
    if "equations" in report:
        for tag, eqs in sorted(report["equations"].items()):
            for eq in eqs:
                lines.append("%s: %s = %s" % (tag, eq["lhs"], eq["rhs"]))
    if "analysis" in report:
        ana = report["analysis"]
        lines.append("classification: %s (%d unknowns, %d equations)" % (
            ana["classification"]["verdict"],
            ana["classification"]["b_unknowns"],
            ana["classification"]["b_equations"]))
        lines.append("regular at all samples: %s" % ana["regularity"]["regular_all"])
        if ana["prop31"].get("applicable"):
            lines.append("selection matrix verified: %s" % ana["prop31"]["verified"])
        if ana["omega2"].get("applicable"):
            lines.append("kernel dims: %s" % ana["omega2"]["kernel_dims"])
    for comp in report.get("euler_lagrange", []):
        lines.append("euler-lagrange: %s = 0" % comp)
    for entry in report.get("oracle", []):
        if "rel_err" in entry:
            lines.append("oracle: lhs=%.6g rhs=%.6g rel_err=%.2e" % (
                entry["lhs"], entry["rhs"], entry["rel_err"]))
        else:
            lines.append("oracle: %s" % entry.get("diagnostic", entry.get("skipped")))
    return "\n".join(lines) + "\n"
