"""Shared fixtures and random-expression helpers for the test suite."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from srfield import symexpr as sx
from srfield.corpus import CORPUS_NAMES, corpus_problem
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.multiindex import MultiIndex
from srfield.problem import parse_problem


PLATE_SPEC = BundleSpec(2, 1, 2)
PLATE_L_TEXT = "1/2*(u[2,0]^2 + 2*u[1,1]^2 + u[0,2]^2 - 2*q*u[0,0])"
CH_L_TEXT = "u[1,0]*u[0,1]^2/2 + u[1,1]^2/(2*u[1,0])"


@pytest.fixture
def plate_catalog():
    return build_catalog(PLATE_SPEC, fields={"q": (1, 2)})


@pytest.fixture
def plate_L(plate_catalog):
    return sx.parse(PLATE_L_TEXT, plate_catalog)


@pytest.fixture
def ch_catalog():
    return build_catalog(PLATE_SPEC)


@pytest.fixture
def ch_L(ch_catalog):
    return sx.parse(CH_L_TEXT, ch_catalog)


def jet(alpha, *comps):
    return sx.jet_sym(alpha, MultiIndex(comps))


def mom(alpha, comps, i):
    return sx.mom_sym(alpha, MultiIndex(comps), i)


def random_poly(rng: random.Random, syms, max_terms=5, max_deg=2, coeff_range=4):
    """Random polynomial tree over the given symbols with small integer coefficients."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = [sx.Const(Fraction(rng.randint(-coeff_range, coeff_range)))]
        for _ in range(rng.randint(0, max_deg)):
            factors.append(sx.Atom(rng.choice(syms)))
        terms.append(sx.emul(*factors))
    return sx.eadd(*terms)


def random_rational(rng: random.Random, syms):
    """Random rational expression: polynomial over a nonzero monomial denominator."""
    num = random_poly(rng, syms)
    den_sym = rng.choice(syms)
    return sx.ediv(num, sx.eadd(sx.Atom(den_sym), sx.Const(rng.randint(1, 3))))


def bench_workloads():
    """The benchmark's own problem generator, perfbench/workloads.py, as a module."""
    name = "srfield_bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def bench_problems(seed: int = 5):
    """(id, catalog, Lagrangian) of every corpus, ladder and seeded assembly problem.

    The ladder and assembly texts come from the benchmark's own generator,
    perfbench/workloads.py, so these are the problems its workloads run.
    """
    workloads = bench_workloads()
    problems = [(n, corpus_problem(n)) for n in CORPUS_NAMES]
    problems += [(pid, parse_problem(text)) for pid, text in workloads.LADDER]
    problems += [(it.pid, parse_problem(it.text)) for it in workloads.generate("assembly", seed)]
    out = []
    for pid, problem in problems:
        catalog = problem.catalog()
        out.append((pid, catalog, problem.lagrangian(catalog)))
    return out
