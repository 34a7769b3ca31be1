"""Random problem files through the command line.

The texts are built from the problem grammar's tokens: headers m, n, k from 0
to 3, a Lagrangian, fields with and without values (and with no base
dependence, `field q()`), point lines and
section/variation lines, in any order.  Most lines are well formed; each
token or line is out of place with a small probability, so a file is as
likely to run as to be rejected.  Every file must end with a documented exit
code (0, 2 or 3), never with an `internal error:` line, and within 5 s.
"""

import contextlib
import io
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srfield.cli import main

EXAMPLE_SECONDS = 5.0
FLAW = 0.04
JUNK = [")", "(", "^", "+", "u[", "]", "@", "=", "#", "1/0", "^40", "0.5", "1e3", "w"]


def flawed(rng):
    return rng.random() < FLAW


def jet(rng, m, n, k):
    slots = rng.choice([m - 1, m + 1]) if flawed(rng) else m
    comps = [0] * max(slots, 0)
    for _ in range(rng.randint(0, k + 1 if flawed(rng) else k)):
        if comps:
            comps[rng.randrange(len(comps))] += 1
    alpha = rng.choice([0, n + 1]) if flawed(rng) else rng.randint(1, max(n, 1))
    return "u[%s]%s" % (",".join(map(str, comps)), "" if alpha == 1 else "@%d" % alpha)


def base(rng, m):
    return "x[%d]" % (rng.choice([0, m + 1]) if flawed(rng) else rng.randint(1, max(m, 1)))


def leaf(rng, m, n, k, fields):
    if flawed(rng):
        return rng.choice(JUNK)
    roll = rng.random()
    if roll < 0.55:
        return jet(rng, m, n, k)
    if roll < 0.7:
        return base(rng, m)
    if roll < 0.8 and fields:
        return rng.choice(fields)
    return rng.choice(["1", "2", "3", "1/2", "3/7", "10"])


def expression(rng, make_leaf, depth):
    if depth == 0 or rng.random() < 0.3:
        return make_leaf()
    roll = rng.random()
    if roll < 0.6:
        return "%s %s %s" % (expression(rng, make_leaf, depth - 1), rng.choice("+-*/"),
                             expression(rng, make_leaf, depth - 1))
    if roll < 0.85:
        return "(%s)^%d" % (expression(rng, make_leaf, depth - 1), rng.randint(-2, 3))
    return "(-(%s))" % expression(rng, make_leaf, depth - 1)


def problem_text(rng, max_header):
    m, n, k = (0 if flawed(rng) else rng.randint(1, max_header) for _ in range(3))
    fields = rng.sample(["q", "r"], rng.randint(0, 2))
    lines = ["%s=%d" % (key, v) for key, v in zip("mnk", (m, n, k)) if not flawed(rng)]

    def any_leaf():
        return leaf(rng, m, n, k, fields)

    def in_base():
        return base(rng, m) if rng.random() < 0.6 else rng.choice(["1", "2", "1/2"])

    if not flawed(rng):
        lines.append("lagrangian = " + expression(rng, any_leaf, 2))
    for name in fields:
        deps = sorted(rng.sample(range(1, m + 1), rng.randint(0, m)) if m else [])
        if flawed(rng):
            deps.append(rng.choice([0, m + 1]))
        value = " = " + expression(rng, in_base, 2) if rng.random() < 0.6 else ""
        lines.append("field %s(%s)%s" % (name, ",".join("x[%d]" % d for d in deps), value))
    for _ in range(rng.choice([0, 0, 1])):
        names = [jet(rng, m, n, k) if rng.random() < 0.7 else base(rng, m)
                 for _ in range(rng.randint(1, 3))]
        values = ["x" if flawed(rng) else str(rng.choice([1.5, 2, -1])) for _ in names]
        lines.append("point = " + " ".join("%s=%s" % nv for nv in zip(names, values)))
    for _ in range(rng.choice([0, 0, 1])):
        for kind in ("section", "variation"):
            for alpha in range(1, n + 1):
                make = any_leaf if flawed(rng) else in_base
                lines.append("%s@%d = %s" % (kind, alpha, expression(rng, make, 1)))
    if flawed(rng):
        lines.append(rng.choice(JUNK))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def run_cli(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.prob"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (code, err.getvalue(), text)
    assert "internal error:" not in err.getvalue(), text
    assert elapsed < EXAMPLE_SECONDS, (elapsed, text)


FUZZ = settings(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=200)
@given(st.randoms(use_true_random=True))
def test_fuzz_el(rng):
    run_cli("el", problem_text(rng, 3))


@settings(FUZZ, max_examples=50)
@given(st.randoms(use_true_random=True))
def test_fuzz_run(rng):
    run_cli("run", problem_text(rng, 3))
