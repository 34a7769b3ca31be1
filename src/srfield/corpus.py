"""Built-in example problems with golden regression reports.

Five problems ship with the engine: a first-order field theory, a mechanical
system, the loaded clamped plate, the Camassa-Holm shallow-water Lagrangian,
and a first-order Lagrangian re-run through the second-order machinery with a
projectability reduction.  Each runs with a fixed seed and is diffed against a
stored golden report.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import multiindex as mi
from .equations import TAG_B_MIDDLE, TAG_B_TRACE, TAG_W1
from .errors import InternalConsistencyError, UsageError
from .jetmodel import BundleSpec, build_catalog
from .problem import ProblemFile, parse_problem
from .report import _round_floats, report_json, run_problem
from .symexpr import (
    Const,
    aux_b,
    eadd,
    eneg,
    equivalent,
    is_zero,
    jet_sym,
    normalize,
    partial,
    render,
    substitute,
)

CORPUS_SEED = 0
GOLDEN_DIR = Path(__file__).parent / "goldens"

CORPUS_PROBLEMS = {
    "first-order": """
# wave-type first-order field theory
m=2
n=1
k=1
lagrangian = 1/2*(u[1,0]^2 + u[0,1]^2) - u[0,0]^2
""",
    "mechanics": """
# one-dimensional mechanical system
m=1
n=1
k=1
lagrangian = u[1]^2/2 - u[0]^2
""",
    "plate": """
# loaded and clamped plate under a unit normal load
m=2
n=1
k=2
field q(x[1],x[2]) = 1
lagrangian = 1/2*(u[2,0]^2 + 2*u[1,1]^2 + u[0,2]^2 - 2*q*u[0,0])
""",
    "camassa-holm": """
# shallow-water equation in Lagrangian variables
m=2
n=1
k=2
lagrangian = u[1,0]*u[0,1]^2/2 + u[1,1]^2/(2*u[1,0])
""",
    "first-as-second": """
# first-order Lagrangian treated with the second-order machinery
m=2
n=1
k=2
lagrangian = u[1,0]^2/2
""",
}

CORPUS_NAMES = tuple(CORPUS_PROBLEMS)


def corpus_problem(name: str) -> ProblemFile:
    if name not in CORPUS_PROBLEMS:
        raise UsageError("unknown corpus problem %r (have: %s)"
                         % (name, ", ".join(CORPUS_NAMES)))
    return parse_problem(CORPUS_PROBLEMS[name])


def projectability_replay(problem: ProblemFile) -> dict:
    """Reduce the order-2 treatment of a first-order Lagrangian back to order 1.

    Imposing the projectability condition (vanishing trace of the order-1 B
    coefficients) must turn the middle momentum relations into the order-1
    top constraint, and the trace relation combined with the tangency of the
    new constraint must reproduce the first-order Euler-Lagrange expression.
    """
    from . import assembler, eleuler

    spec2 = problem.bundle
    if spec2.k != 2:
        raise UsageError("projectability replay expects a k=2 problem")
    spec1 = BundleSpec(spec2.m, spec2.n, 1)
    fields = {n: d for n, (d, _) in problem.fields.items()}
    cat2 = build_catalog(spec2, fields=fields)
    cat1 = build_catalog(spec1, fields=fields)
    L = problem.lagrangian(cat1)  # order-1 expression, shared by both treatments

    eqs2 = assembler.dynamical_equations(cat2, L)
    eqs1 = assembler.dynamical_equations(cat1, L)

    # top-order constraints of the k=2 run must have vanishing right sides
    w1_second = eqs2.by_tag(TAG_W1)
    if not all(is_zero(e.rhs) for e in w1_second):
        raise InternalConsistencyError("second-order top constraints should vanish "
                                       "for a first-order Lagrangian")

    # impose the projectability condition: trace of the order-1 B's is zero
    killed = {}
    for alpha in range(1, spec2.n + 1):
        for I in mi.enumerate_indices(spec2.m, 1):
            # represent sum_j B[I,j,alpha,j] = 0 by zeroing each diagonal entry
            for j in range(1, spec2.m + 1):
                killed[aux_b(I, j, alpha, j)] = Const(0)
    reduced = []
    for eq in eqs2.by_tag(TAG_B_MIDDLE):
        reduced.append((eq.lhs, normalize(substitute(eq.rhs, killed))))

    first_w1 = [(e.lhs, e.rhs) for e in eqs1.by_tag(TAG_W1)]
    w1_match = len(reduced) == len(first_w1) and all(
        render(a_l) == render(b_l) and equivalent(a_r, b_r)
        for (a_l, a_r), (b_l, b_r) in zip(reduced, first_w1))

    # new-constraint tangency: the order-0 B's become total derivatives of dL/du_i,
    # so the trace relation collapses to the first-order Euler-Lagrange expression
    replayed = []
    for alpha in range(1, spec2.n + 1):
        u0 = eqs1.by_tag(TAG_B_TRACE)[alpha - 1]
        parts = [u0.rhs]
        for j in range(1, spec2.m + 1):
            dl = partial(L, jet_sym(alpha, mi.unit(j, spec2.m)))
            parts.append(eneg(eleuler.total_derivative(dl, j, 2)))
        replayed.append(normalize(eadd(*parts)))

    el1 = eleuler.euler_lagrange(L, spec1)
    el_match = all(equivalent(a, b) for a, b in zip(replayed, el1.components))

    btrace_match = [render(e2.lhs) for e2 in eqs2.by_tag(TAG_B_TRACE)] == \
                   [render(e1.lhs) for e1 in eqs1.by_tag(TAG_B_TRACE)]

    return {
        "projectable_condition": "sum_j B[I;j;alpha;j] = 0 for |I| = 1",
        "reduced_middle_equations": [
            {"lhs": render(a), "rhs": render(b)} for a, b in reduced],
        "matches_first_order_top_constraints": w1_match,
        "trace_equations_match": btrace_match,
        "replayed_euler_lagrange": [render(c) for c in replayed],
        "matches_first_order_euler_lagrange": el_match,
    }


def run_corpus(name: str) -> dict:
    problem = corpus_problem(name)
    if name == "first-as-second":
        problem1 = parse_problem(CORPUS_PROBLEMS[name].replace("k=2", "k=1"))
        report = {
            "first_order": run_problem(problem1, CORPUS_SEED),
            "second_order": run_problem(problem, CORPUS_SEED),
            "replay": projectability_replay(problem),
        }
        return _round_floats(report)
    return run_problem(problem, CORPUS_SEED)


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / ("%s.json" % name)


def load_golden(name: str) -> dict:
    path = golden_path(name)
    if not path.exists():
        raise UsageError("no golden report stored for %r" % name)
    return json.loads(path.read_text(encoding="utf-8"))


def write_golden(name: str, report: dict) -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    golden_path(name).write_text(report_json(report), encoding="utf-8")


def diff_reports(golden, actual, path: str = "") -> list[str]:
    """Structural differences; floats compared at relative 1e-9."""
    diffs: list[str] = []
    if isinstance(golden, dict) and isinstance(actual, dict):
        for key in sorted(set(golden) | set(actual)):
            sub = "%s.%s" % (path, key) if path else str(key)
            if key not in golden:
                diffs.append("%s: only in actual" % sub)
            elif key not in actual:
                diffs.append("%s: only in golden" % sub)
            else:
                diffs.extend(diff_reports(golden[key], actual[key], sub))
        return diffs
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            diffs.append("%s: length %d vs %d" % (path, len(golden), len(actual)))
            return diffs
        for ix, (g, a) in enumerate(zip(golden, actual)):
            diffs.extend(diff_reports(g, a, "%s[%d]" % (path, ix)))
        return diffs
    if isinstance(golden, float) or isinstance(actual, float):
        try:
            gf, af = float(golden), float(actual)
        except (TypeError, ValueError):
            diffs.append("%s: %r vs %r" % (path, golden, actual))
            return diffs
        if abs(gf - af) > 1e-9 * max(abs(gf), abs(af), 1.0):
            diffs.append("%s: %r vs %r" % (path, golden, actual))
        return diffs
    if golden != actual:
        diffs.append("%s: %r vs %r" % (path, golden, actual))
    return diffs


def corpus_check(name: str) -> tuple[dict, list[str]]:
    """Run a corpus problem and diff against its stored golden report."""
    report = run_corpus(name)
    golden = load_golden(name)
    return report, diff_reports(golden, report)
