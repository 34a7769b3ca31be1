"""srfield benchmark: one workload, one process, results as a JSON line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the engine is imported from its
`src/` directory.  With --trace 0 the run measures set-up time, then repeats
untraced passes over the workload's problems until --seconds have passed, and
reports the end-to-end metrics.  With --trace 1 it runs each problem once
untraced and once traced and reports the per-layer metrics.  Both check the
engine's outputs.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted/failed count the checks.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ORACLE_BOUND = 1e-5
# rel_err below 1e-16 is rounding noise; it also stands in for the empty set.
MARGIN_CAP_DIGITS = math.log10(ORACLE_BOUND / 1e-16)
SETUP_SAMPLES = 7
TAIL_MIN_ABOVE = 10
TAIL_MIN_PROBLEMS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "problem_p50_s": "s",
    "problem_tail_s": "s",
    "peak_rss_mb": "MB",
    "oracle_margin_digits": "digits",
}

# The (3,1,2) ladder rung keeps the first kernel sample and the third oracle
# pair of `srfield run` on its text; the full rung takes about 100 s.
LADDER_312_KERNEL_SAMPLES = 1
LADDER_312_ORACLE_PAIRS = (2,)

ASSEMBLY_STAGES = frozenset({"equations", "el"})


def _import_engine():
    """Put the checkout's src/ first on the path and import the engine from it."""
    if not (SRC / "srfield" / "__init__.py").is_file():
        sys.exit("perfbench: no engine source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import srfield
    if Path(srfield.__file__).resolve().parent != SRC / "srfield":
        sys.exit("perfbench: imported srfield from %s, not %s" % (srfield.__file__, SRC))


# ---------------------------------------------------------------------------
# Checks


class Checks:
    """Counts checks.  `exact` failures mean a wrong output and make the run
    incorrect; `numeric` ones are threshold checks on measured accuracy and
    only count as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str, exact: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += exact
            self.messages.append(("FAIL " if exact else "BOUND ") + what)


def _rel_errs(rep: dict) -> list[float]:
    out = []
    for key in ("first_order", "second_order"):
        if key in rep:
            out.extend(_rel_errs(rep[key]))
    out.extend(e["rel_err"] for e in rep.get("oracle", []) if "rel_err" in e)
    return out


def _check_oracle(rep: dict, pid: str, checks: Checks) -> None:
    for key in ("first_order", "second_order"):
        if key in rep:
            _check_oracle(rep[key], pid, checks)
    for ix, entry in enumerate(rep.get("oracle", [])):
        if "skipped" in entry:
            continue
        what = "%s oracle[%d]" % (pid, ix)
        checks.check("diagnostic" not in entry,
                     "%s: %s" % (what, entry.get("diagnostic")), exact=False)
        if "rel_err" in entry:
            checks.check(entry["rel_err"] < ORACLE_BOUND,
                         "%s: rel_err %.3g >= %g" % (what, entry["rel_err"], ORACLE_BOUND),
                         exact=False)


def _expected_verdict(m: int, k: int) -> str:
    from srfield import analysis
    if k == 1 or m == 1:
        return analysis.OVERDETERMINED
    if k == 2 and m == 2:
        return analysis.EXACTLY_DETERMINED
    return analysis.UNDERDETERMINED


def _check_ladder(item, rep: dict, checks: Checks) -> None:
    import random

    from srfield import analysis
    from srfield.problem import parse_problem

    m, n, k = item.signature
    ana = rep["analysis"]
    checks.check(ana["classification"]["verdict"] == _expected_verdict(m, k),
                 "%s: classification verdict %s" % (item.pid, ana["classification"]["verdict"]))
    if ana["prop31"]["applicable"]:
        checks.check(ana["prop31"]["verified"], "%s: prop31 not verified" % item.pid)
    if ana["omega2"]["applicable"]:
        # Regenerate the kernel sample points to test "kernel trivial exactly
        # at regular points" where the kernel was computed.
        problem = parse_problem(item.text)
        L = problem.lagrangian()
        fields = problem.field_bindings() or None
        rng = random.Random("%d:omega2" % rep["problem"]["seed"])
        for ix, dim in enumerate(ana["omega2"]["kernel_dims"]):
            point = analysis.on_constraint_point(L, problem.bundle, rng, fields)
            regular = analysis.is_regular_at(L, problem.bundle, point, fields)
            checks.check((dim == 0) == regular,
                         "%s: kernel dim %d at %s point %d" % (
                             item.pid, dim, "regular" if regular else "singular", ix),
                         exact=False)
    _check_oracle(rep, item.pid, checks)


def _check_assembly(item, rep: dict, checks: Checks) -> None:
    from srfield.multiindex import count_indices

    m, n, k = item.signature
    lower = sum(count_indices(m, order) for order in range(k))
    middle = sum(count_indices(m, order) for order in range(1, k))
    expected = {"A": n * m * lower, "B_TRACE": n, "B_MIDDLE": n * middle,
                "W1": n * count_indices(m, k), "W2": 1, "C": m}
    got = {tag: len(rep["equations"].get(tag, [])) for tag in expected}
    checks.check(got == expected, "%s: equation counts %s, expected %s" % (item.pid, got, expected))
    if item.kind == "divergence":
        checks.check(all(c == "0" for c in rep["euler_lagrange"]),
                     "%s: divergence has Euler-Lagrange %s" % (item.pid, rep["euler_lagrange"]))


def check_output(item, out, checks: Checks) -> None:
    """Checks on one problem's output from the first pass."""
    if item.kind == "corpus":
        rep, diffs = out
        checks.check(not diffs, "%s: golden diff %s" % (item.pid, diffs[:3]))
        if "replay" in rep:
            for flag in ("matches_first_order_top_constraints", "trace_equations_match",
                         "matches_first_order_euler_lagrange"):
                checks.check(rep["replay"][flag], "%s: replay %s false" % (item.pid, flag))
        _check_oracle(rep, item.pid, checks)
    elif item.kind == "ladder":
        _check_ladder(item, out, checks)
    else:
        _check_assembly(item, out, checks)


def report_of(item, out) -> dict:
    return out[0] if item.kind == "corpus" else out


def digest(rep: dict) -> str:
    """Hash of the rendered equations and Euler-Lagrange expressions."""
    parts = {key: {"equations": rep[key].get("equations"),
                   "euler_lagrange": rep[key].get("euler_lagrange")}
             for key in ("first_order", "second_order") if key in rep}
    if not parts:
        parts = {"equations": rep.get("equations"), "euler_lagrange": rep.get("euler_lagrange")}
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# One problem, untraced and traced


def solve(item):
    """The engine's public entry point for one item, untraced."""
    from srfield import corpus
    from srfield.problem import parse_problem
    from srfield.report import run_problem

    import driver
    from spans import NullTracer

    if item.kind == "corpus":
        return corpus.corpus_check(item.pid)
    if item.pid == "ladder-312":
        return driver.run_stages(item.text, workloads.LADDER_SEED, NullTracer(),
                                 kernel_samples=LADDER_312_KERNEL_SAMPLES,
                                 oracle_pairs=LADDER_312_ORACLE_PAIRS)[1]
    if item.kind == "ladder":
        return run_problem(parse_problem(item.text), workloads.LADDER_SEED)
    return run_problem(parse_problem(item.text), 0, set(ASSEMBLY_STAGES))


def solve_traced(item, tr):
    """The same work through the stage driver, with every layer call in a span."""
    import driver

    if item.kind == "corpus":
        return driver.run_corpus(item.pid, tr)
    if item.pid == "ladder-312":
        return driver.run_stages(item.text, workloads.LADDER_SEED, tr,
                                 kernel_samples=LADDER_312_KERNEL_SAMPLES,
                                 oracle_pairs=LADDER_312_ORACLE_PAIRS)[1]
    if item.kind == "ladder":
        return driver.run_stages(item.text, workloads.LADDER_SEED, tr)[1]
    return driver.run_stages(item.text, 0, tr, stages=ASSEMBLY_STAGES)[1]


def timed(fn, item, checks: Checks):
    """(seconds, output) of fn(item).  An exception fails the problem's check
    and leaves None as its output."""
    t0 = time.perf_counter()
    try:
        out = fn(item)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    seconds = time.perf_counter() - t0
    checks.check(out is not None, "%s: raised" % item.pid)
    return seconds, out


def run_pass(items, checks: Checks):
    """One untraced pass; returns (wall seconds, per-problem seconds, outputs)."""
    start = time.perf_counter()
    results = [timed(solve, item, checks) for item in items]
    wall = time.perf_counter() - start
    return wall, [t for t, _ in results], [out for _, out in results]


# ---------------------------------------------------------------------------
# Set-up time in fresh processes

_SETUP_CODE = r"""
import json, sys, time
texts = json.load(sys.stdin)
t0 = time.perf_counter()
import srfield
from srfield.problem import parse_problem
for text in texts:
    problem = parse_problem(text)
    problem.lagrangian(problem.catalog())
print(repr(time.perf_counter() - t0))
"""


def problem_texts(items) -> list[str]:
    from srfield import corpus

    texts = []
    for item in items:
        if item.kind == "corpus":
            text = corpus.CORPUS_PROBLEMS[item.pid]
            texts.append(text)
            if item.pid == "first-as-second":
                texts.append(text.replace("k=2", "k=1"))
        else:
            texts.append(item.text)
    return texts


def setup_seconds(texts: list[str], samples: int = SETUP_SAMPLES) -> list[float]:
    """Import-and-parse time of fresh interpreters, after one warm-up run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps(texts)
    out = []
    for ix in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], input=payload, env=env,
                              cwd=str(ROOT), capture_output=True, text=True, timeout=120,
                              check=True)
        if ix:
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten values
    above it; with fewer than twenty values, the largest value (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_PROBLEMS:
        return ordered[-1], 100.0
    ix = n - TAIL_MIN_ABOVE - 1
    return ordered[ix], 100.0 * (ix + 1) / n


def margin_digits(rel_errs: list[float]) -> float:
    """Smallest log10(bound / rel_err) over the oracle pairs, capped at 11."""
    if not rel_errs:
        return MARGIN_CAP_DIGITS
    return min(math.log10(ORACLE_BOUND / max(r, 1e-16)) for r in rel_errs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None when not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args, n_problems: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "problems": n_problems,
    }


# ---------------------------------------------------------------------------
# The two kinds of run


def measure(items, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Untraced passes for `seconds`; returns (metrics, details)."""
    setup = setup_seconds(problem_texts(items))
    start = time.perf_counter()
    walls, per_problem = [], [[] for _ in items]
    first_outs = None
    while True:
        wall, times, outs = run_pass(items, checks)
        walls.append(wall)
        for acc, t in zip(per_problem, times):
            acc.append(t)
        if first_outs is None:
            first_outs = outs
            for item, out in zip(items, outs):
                if out is not None:
                    check_output(item, out, checks)
                    print("digest %s %s" % (item.pid, digest(report_of(item, out))))
        else:
            for item, a, b in zip(items, first_outs, outs):
                checks.check(a == b, "%s: output changed between passes" % item.pid)
        if time.perf_counter() - start >= seconds:
            break
    problem_s = [statistics.median(ts) for ts in per_problem]
    tail_s, tail_pct = tail(problem_s)
    rel_errs = [r for item, out in zip(items, first_outs) if out is not None
                for r in _rel_errs(report_of(item, out))]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "problem_p50_s": statistics.median(problem_s),
        "problem_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
        "oracle_margin_digits": margin_digits(rel_errs),
    }
    kind_s: dict = {}
    for item, t in zip(items, problem_s):
        kind_s[item.kind] = kind_s.get(item.kind, 0.0) + t
    details = {"pass_s": walls, "kind_s": kind_s, "problems": len(items),
               "tail_percentile": tail_pct,
               "oracle_pairs": len(rel_errs), "setup_samples": len(setup)}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, details


LAYER_SELF_TIMES = (
    "analysis.kernel", "analysis.constraint_point", "eleuler.oracle", "eleuler.action",
    "analysis.hessian", "analysis.regularity", "analysis.selection",
    "symexpr.partial", "symexpr.normalize", "eleuler.el_derive", "symexpr.el_normalize",
    "eleuler.el", "assembler.dynamical_equations", "assembler.constraints",
    "assembler.c_coefficients", "problem.parse", "jetmodel.build_catalog",
    "corpus.diff", "corpus.replay", "report.equations", "report.analysis", "report.el",
    "report.oracle",
)
LAYER_COUNTS = (
    "analysis.kernel_calls", "analysis.kernel_dets", "eleuler.oracle_calls",
    "eleuler.grid_points", "analysis.regularity_calls", "eleuler.el_chars",
    "assembler.equations", "jetmodel.coords",
)


def traced(items, checks: Checks) -> tuple[dict, dict]:
    """An untraced and a traced run of each problem; returns (per-layer metrics, details)."""
    from spans import Tracer

    tr = Tracer()

    def one(item):
        tr.problem = item.pid
        return solve_traced(item, tr)

    # Each problem runs untraced and traced back to back, alternating which
    # goes first, so that warm-up cost does not land on one side.
    wall_plain = wall_traced = 0.0
    for ix, item in enumerate(items):
        sides = {}
        for traced_side in ((False, True) if ix % 2 == 0 else (True, False)):
            sides[traced_side] = timed(one if traced_side else solve, item, checks)
        (t_plain, plain), (t_traced, out) = sides[False], sides[True]
        wall_plain += t_plain
        wall_traced += t_traced
        if plain is not None:
            check_output(item, plain, checks)
        checks.check(plain == out, "%s: traced report differs from the untraced one" % item.pid)

    self_s = tr.self_times()
    probe_s = tr.top_level_seconds("probe")
    metrics = {}
    for name in LAYER_SELF_TIMES:
        metrics[name + "_s"] = (self_s.get(name, 0.0), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (tr.counts.get(name, 0), "count")
    kernel_s = metrics["analysis.kernel_s"][0]
    metrics["analysis.kernel_dets_per_s"] = (
        metrics["analysis.kernel_dets"][0] / kernel_s if kernel_s else 0.0, "1/s")
    grid_s = metrics["eleuler.oracle_s"][0] + metrics["eleuler.action_s"][0]
    metrics["eleuler.grid_points_per_s"] = (
        metrics["eleuler.grid_points"][0] / grid_s if grid_s else 0.0, "1/s")
    metrics["trace.overhead_s"] = (wall_traced - probe_s - wall_plain, "s")
    metrics["trace.coverage"] = (tr.top_level_seconds() / wall_traced, "ratio")
    details = {"untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
               "probe_s": probe_s, "spans": len(tr.spans)}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_engine()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    items = workloads.generate(args.workload, args.seed)
    checks = Checks()
    if args.trace:
        metrics, details = traced(items, checks)
    else:
        metrics, details = measure(items, args.seconds, checks)

    print(json.dumps({"env": environment(args, len(items)), "details": details}))
    for msg in checks.messages:
        print(msg)
    for name, (value, unit) in metrics.items():
        print("metric %-34s %.6g %s" % (name, value, unit))
    print("metric %-34s %.6g ratio (%d of %d checks)" % (
        "failed_ratio", checks.failed / checks.attempted, checks.failed, checks.attempted))
    print(json.dumps({
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
