"""Full pipeline runs producing deterministic, JSON-serializable reports."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Optional

from . import analysis, assembler, eleuler
from . import multiindex as mi
from .equations import TAG_C, Equation
from .errors import QuadratureError
from .jetmodel import BundleSpec, CoordCatalog, SectionFn
from .problem import ProblemFile
from .symexpr import (
    Atom,
    Const,
    Expr,
    FIELD,
    aux_c,
    base_sym,
    eadd,
    emul,
    free_syms,
    normalize,
    render,
)

ORACLE_PAIRS = 3
REGULARITY_SAMPLES = 5
KERNEL_SAMPLES = 5


def _rng(seed: int, stage: str) -> random.Random:
    return random.Random("%d:%s" % (seed, stage))


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float("%.*g" % (digits, obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _quantize(x: float, denom: int = 10 ** 6) -> Fraction:
    return Fraction(round(x * denom), denom)


def random_section(spec: BundleSpec, rng: random.Random) -> SectionFn:
    """Random polynomial section with a dominant positive slope along x[1].

    The slope sits in [1, 2] and the remaining degree-<=3 coefficients in
    [-1/50, 1/50], which keeps u_{1_1} safely positive on the unit box
    (needed by Lagrangians with inverse-jet factors).
    """
    comps = []
    for _ in range(spec.n):
        terms = [emul(Const(_quantize(rng.uniform(1.0, 2.0))), Atom(base_sym(1)))]
        for J in mi.enumerate_up_to(spec.m, 3):
            if J.order == 0:
                continue
            coef = _quantize(rng.uniform(-0.02, 0.02))
            if coef == 0:
                continue
            factors: list[Expr] = [Const(coef)]
            for ix, c in enumerate(J, start=1):
                for _ in range(c):
                    factors.append(Atom(base_sym(ix)))
            terms.append(emul(*factors))
        comps.append(eadd(*terms))
    return SectionFn(comps)


def random_variation(spec: BundleSpec, rng: random.Random) -> SectionFn:
    comps = []
    for _ in range(spec.n):
        terms = [Const(_quantize(rng.uniform(-1.0, 1.0)))]
        for J in mi.enumerate_up_to(spec.m, 2):
            if J.order == 0:
                continue
            factors: list[Expr] = [Const(_quantize(rng.uniform(-1.0, 1.0)))]
            for ix, c in enumerate(J, start=1):
                for _ in range(c):
                    factors.append(Atom(base_sym(ix)))
            terms.append(emul(*factors))
        comps.append(eadd(*terms))
    return SectionFn(comps)


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
    per-stage generators derived from the seed, which is recorded.
    """
    spec = problem.bundle
    catalog = problem.catalog()
    L = problem.lagrangian(catalog)
    bindings = problem.field_bindings(catalog)
    all_stages = {"equations", "analysis", "el", "oracle"}
    stages = all_stages if stages is None else stages

    report: dict = {
        "problem": {
            "m": spec.m,
            "n": spec.n,
            "k": spec.k,
            "lagrangian": render(normalize(L)),
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
        eqs = assembler.dynamical_equations(catalog, L)
        eqs.extend(assembler.w2_constraint(catalog, L))
        eqs.extend(assembler.tangency_equations(catalog, L))
        a_map, b_map = assembler.default_projector_assignments(catalog)
        cs = assembler.c_coefficients(catalog, L, a_map, b_map)
        for j, cexpr in enumerate(cs, start=1):
            eqs.add(Equation(Atom(aux_c(j)), cexpr, TAG_C, "d/dx[%d] of H0" % j))
        report["equations"] = {tag: [e.record() for e in eqs.by_tag(tag)]
                               for tag in sorted(eqs.tags())}

    if "analysis" in stages:
        report["analysis"] = _analysis_section(problem, catalog, L, bindings, seed)

    if "el" in stages:
        el = eleuler.euler_lagrange(L, spec)
        report["euler_lagrange"] = el.records()

    if "oracle" in stages:
        report["oracle"] = _oracle_section(problem, catalog, L, bindings, seed)

    return _round_floats(report)


def _analysis_section(problem: ProblemFile, catalog: CoordCatalog, L: Expr,
                      bindings, seed: int) -> dict:
    spec = problem.bundle
    out: dict = {}
    hess = analysis.highest_hessian(L, spec)
    out["hessian"] = hess.records()

    hess_syms = set()
    for row in hess.entries:
        for e in row:
            hess_syms |= free_syms(e)
    unbound = sorted(s.name for s in hess_syms
                     if s.kind == FIELD and s.name not in bindings)

    rng = _rng(seed, "regularity")
    points, shown = [], []
    for _ in range(REGULARITY_SAMPLES):
        point = {s: rng.uniform(1.0, 2.0) for s in catalog.coords}
        for s in sorted(hess_syms):
            if s.kind == FIELD and s.name not in bindings:
                point[s] = rng.uniform(1.0, 2.0)
        points.append(point)
        shown.append({s.render(): point[s] for s in sorted(hess_syms) if s in point})
    for point in problem.point_assignments(catalog):
        points.append(point)
        shown.append({s.render(): v for s, v in sorted(point.items())})
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
                    bindings, seed: int) -> list[dict]:
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
    out = []
    for s, psi in pairs:
        entry: dict = {
            "section": _section_text(s),
            "variation": _section_text(psi),
            "grid": grid,
            "seed": seed,
        }
        try:
            lhs, rhs = eleuler.gateaux_oracle(L, spec, s, psi, grid, eleuler.COMPLEX_STEP,
                                              fields=bindings or None)
            entry.update({
                "eps": eleuler.COMPLEX_STEP,
                "lhs": lhs,
                "rhs": rhs,
                "rel_err": eleuler.relative_gap(lhs, rhs),
            })
        except QuadratureError as exc:
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
