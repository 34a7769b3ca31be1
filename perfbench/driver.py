"""Stage driver: assembles `report.run_problem`'s report from the layers'
public functions, one call at a time, so that each call can sit in a span.

The call order, the per-stage random generators and the report fields follow
`srfield.report.run_problem` and `srfield.corpus.run_corpus`; the traced run
checks that the assembled reports equal theirs.  To match them exactly it
borrows two private helpers of `srfield.report`: `_rng` (the per-stage
generators) and `_round_floats`.  With a `NullTracer` the driver also runs
the reduced (3,1,2) ladder rung, which keeps fewer kernel samples and oracle
pairs than `run_problem` would.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from srfield import analysis, assembler, corpus, eleuler, report
from srfield import multiindex as mi
from srfield.equations import TAG_C, Equation
from srfield.errors import QuadratureError
from srfield.extalg import collect
from srfield.jetmodel import build_catalog
from srfield.problem import ProblemFile, parse_problem
from srfield.symexpr import (
    FIELD,
    Atom,
    aux_c,
    eadd,
    eneg,
    free_syms,
    is_syntactic_zero,
    jet_sym,
    normalize,
    partial,
    render,
)

from spans import NullTracer

ALL_STAGES = frozenset({"equations", "analysis", "el", "oracle"})


def run_stages(text: str, seed: int, tr, stages=ALL_STAGES,
               kernel_samples: int = report.KERNEL_SAMPLES,
               oracle_pairs: Optional[Sequence[int]] = None) -> tuple[ProblemFile, dict]:
    """Parse a problem text and build its report as `run_problem` does.

    kernel_samples keeps the first kernel samples and oracle_pairs the listed
    oracle pairs (all when None); both are drawn from the same generators as
    in `run_problem`, so kept entries equal the corresponding full ones.
    """
    with tr.span("problem.parse"):
        problem = parse_problem(text)
    spec = problem.bundle
    with tr.span("jetmodel.build_catalog"):
        catalog = problem.catalog()
    tr.count("jetmodel.coords", len(catalog.coords))
    with tr.span("problem.parse"):
        L = problem.lagrangian(catalog)
        bindings = problem.field_bindings(catalog)

    with tr.span("report.header"):
        rep: dict = {
            "problem": {
                "m": spec.m, "n": spec.n, "k": spec.k,
                "lagrangian": render(normalize(L)),
                "fields": {name: {"depends": list(deps), "value": text_}
                           for name, (deps, text_) in sorted(problem.fields.items())},
                "seed": seed,
            },
            "catalog": catalog.names(),
            "flags": [],
        }
        if spec.k == 1 or spec.m == 1:
            rep["flags"].append("k=1 or m=1: further constraint steps beyond the "
                                "scalar-momentum level may be required")

    if "equations" in stages:
        with tr.span("report.equations"):
            rep["equations"] = _equations(catalog, L, tr)
    if "analysis" in stages:
        with tr.span("report.analysis"):
            rep["analysis"] = _analysis(problem, catalog, L, bindings, seed, tr, kernel_samples)
    if "el" in stages:
        with tr.span("report.el"):
            rep["euler_lagrange"] = _euler_lagrange(L, spec, tr).records()
        tr.count("eleuler.el_chars", sum(len(c) for c in rep["euler_lagrange"]))
    if "oracle" in stages:
        with tr.span("report.oracle"):
            rep["oracle"] = _oracle(problem, catalog, L, bindings, seed, tr, oracle_pairs)
    with tr.span("report.round"):
        rep = report._round_floats(rep)
    if not isinstance(tr, NullTracer):
        kernel_calls = len(rep.get("analysis", {}).get("omega2", {}).get("kernel_dims", []))
        _probes(L, spec, tr, kernel_calls)
    return problem, rep


def _equations(catalog, L, tr) -> dict:
    with tr.span("assembler.dynamical_equations"):
        eqs = assembler.dynamical_equations(catalog, L)
    with tr.span("assembler.constraints"):
        eqs.extend(assembler.w2_constraint(catalog, L))
        eqs.extend(assembler.tangency_equations(catalog, L))
    with tr.span("assembler.c_coefficients"):
        a_map, b_map = assembler.default_projector_assignments(catalog)
        cs = assembler.c_coefficients(catalog, L, a_map, b_map)
    for j, cexpr in enumerate(cs, start=1):
        eqs.add(Equation(Atom(aux_c(j)), cexpr, TAG_C, "d/dx[%d] of H0" % j))
    tr.count("assembler.equations", len(eqs))
    return {tag: [e.record() for e in eqs.by_tag(tag)] for tag in sorted(eqs.tags())}


def _analysis(problem, catalog, L, bindings, seed, tr, kernel_samples) -> dict:
    spec = problem.bundle
    fields = bindings or None
    out: dict = {}
    with tr.span("analysis.hessian"):
        hess = analysis.highest_hessian(L, spec)
        out["hessian"] = hess.records()
    hess_syms = set()
    for row in hess.entries:
        for e in row:
            hess_syms |= free_syms(e)

    rng = report._rng(seed, "regularity")
    samples = []
    points = []
    for _ in range(report.REGULARITY_SAMPLES):
        point = {s: rng.uniform(1.0, 2.0) for s in catalog.coords}
        for s in sorted(hess_syms):
            if s.kind == FIELD and s.name not in bindings:
                point[s] = rng.uniform(1.0, 2.0)
        points.append((point, {s.render(): point[s] for s in sorted(hess_syms) if s in point}))
    for point in problem.point_assignments(catalog):
        points.append((point, {s.render(): v for s, v in sorted(point.items())}))
    for point, shown in points:
        with tr.span("analysis.regularity"):
            regular = analysis.is_regular_at(L, spec, point, fields)
        tr.count("analysis.regularity_calls")
        samples.append({"point": shown, "regular": regular})
    out["regularity"] = {"seed": seed, "samples": samples,
                         "regular_all": all(s["regular"] for s in samples)}

    with tr.span("analysis.selection"):
        out["classification"] = analysis.classify_b_system(spec).record()
        if spec.m >= 2 and spec.k >= 2:
            sel = analysis.prop31_select(spec)
            rec = sel.record()
            verified, route = analysis.prop31_verify_detailed(sel)
            rec.update({"verified": verified, "route": route, "applicable": True})
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
        rng = report._rng(seed, "omega2")
        dims = []
        for _ in range(kernel_samples):
            with tr.span("analysis.constraint_point"):
                point = analysis.on_constraint_point(L, spec, rng, fields)
            with tr.span("analysis.kernel"):
                dims.append(analysis.omega2_kernel_dim_at(L, spec, point, fields))
            tr.count("analysis.kernel_calls")
        out["omega2"] = {"applicable": True, "seed": seed, "kernel_dims": dims}
    return out


def _euler_lagrange(L, spec, tr) -> eleuler.ELSystem:
    with tr.span("eleuler.el"):
        comps = []
        for alpha in range(1, spec.n + 1):
            parts = []
            with tr.span("eleuler.el_derive"):
                for J in mi.enumerate_up_to(spec.m, spec.k):
                    with tr.span("symexpr.partial"):
                        dl = partial(L, jet_sym(alpha, J))
                    if is_syntactic_zero(dl):
                        continue
                    term = eleuler.iterated_total_derivative(dl, J)
                    parts.append(term if J.order % 2 == 0 else eneg(term))
            with tr.span("symexpr.el_normalize"):
                comps.append(normalize(eadd(*parts)))
        return eleuler.ELSystem(spec, comps)


def _oracle(problem, catalog, L, bindings, seed, tr, keep) -> list[dict]:
    spec = problem.bundle
    fields = bindings or None
    if any(s.kind == FIELD and s.name not in bindings for s in free_syms(L)):
        return [{"skipped": "Lagrangian has unbound external fields"}]
    rng = report._rng(seed, "oracle")
    pairs = list(zip(problem.section_fns(catalog), problem.variation_fns(catalog)))
    while len(pairs) < report.ORACLE_PAIRS:
        pairs.append((report.random_section(spec, rng), report.random_variation(spec, rng)))
    grid = report.default_grid(spec)
    fine = 2 * grid - 1
    out = []
    for ix, (s, psi) in enumerate(pairs):
        if keep is not None and ix not in keep:
            continue
        entry: dict = {"section": [render(normalize(c)) for c in s.components],
                       "variation": [render(normalize(c)) for c in psi.components],
                       "grid": grid, "seed": seed}
        try:
            with tr.span("eleuler.action"):
                action = eleuler.action_value(L, spec, s, grid, fields=fields)
            eps = eleuler.default_eps(action)
            with tr.span("eleuler.oracle"):
                lhs, rhs = eleuler.gateaux_oracle(L, spec, s, psi, grid, eps, fields=fields)
            entry.update({"eps": eps, "lhs": lhs, "rhs": rhs,
                          "rel_err": eleuler.relative_gap(lhs, rhs)})
        except QuadratureError as exc:
            entry["diagnostic"] = str(exc)
        tr.count("eleuler.oracle_calls")
        tr.count("eleuler.grid_points",
                 3 * (grid ** spec.m + fine ** spec.m) + grid ** spec.m)
        out.append(entry)
    return out


def _probes(L, spec, tr, kernel_calls: int) -> None:
    """Extra measurements that the report does not need, under one "probe" span.

    They time `normalize` on every first partial of L and count the terms of
    the collected form that each kernel call evaluates; `trace.overhead_s`
    leaves their time out.
    """
    with tr.span("probe"):
        for alpha in range(1, spec.n + 1):
            for J in mi.enumerate_up_to(spec.m, spec.k):
                dl = partial(L, jet_sym(alpha, J))
                with tr.span("symexpr.normalize"):
                    normalize(dl)
        if kernel_calls:
            cat = build_catalog(spec)
            terms = len(collect(assembler.omega_h0(cat, L)))
            # tangent dimension: coordinates minus the independent W1 and H0 constraints
            dim_t = len(cat.coords) - spec.n * mi.count_indices(spec.m, spec.k) - 1
            tr.count("analysis.kernel_dets", kernel_calls * comb(dim_t, spec.m) * dim_t * terms)


def run_corpus(name: str, tr) -> tuple[dict, list[str]]:
    """`corpus.corpus_check` through the stage driver: report and golden diff."""
    seed = corpus.CORPUS_SEED
    text = corpus.CORPUS_PROBLEMS[name]
    if name == "first-as-second":
        _, first = run_stages(text.replace("k=2", "k=1"), seed, tr)
        problem, second = run_stages(text, seed, tr)
        with tr.span("corpus.replay"):
            replay = corpus.projectability_replay(problem)
        rep = report._round_floats({"first_order": first, "second_order": second,
                                    "replay": replay})
    else:
        _, rep = run_stages(text, seed, tr)
    with tr.span("corpus.diff"):
        diffs = corpus.diff_reports(corpus.load_golden(name), rep)
    return rep, diffs
