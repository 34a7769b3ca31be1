"""The partials table: one expansion of L, derivations on expanded polynomials,
one reduction per side, checked against the tree route of routes_reference.py."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfield import assembler as asm
from srfield import eleuler as el
from srfield import symexpr as sx
from srfield.assembler import (
    c_coefficients,
    default_projector_assignments,
    dynamical_equations,
    tangency_equations,
    w2_constraint,
)
from srfield.corpus import CORPUS_NAMES, CORPUS_PROBLEMS
from srfield.equations import TAG_B_MIDDLE, TAG_B_TRACE, TAG_W1, Equation
from srfield.errors import EngineError, InternalConsistencyError
from srfield.jetmodel import BundleSpec, build_catalog
from srfield.problem import parse_problem
from srfield.report import run_problem

import routes_reference as rr
from conftest import bench_workloads
from test_cli_fuzz import FUZZ, problem_text

SPEC = BundleSpec(2, 1, 2)
# a field atom, x, a repeated factor and a second factor in the denominator
RATIONAL = "u[2,0]^2/((u[0,0]+1)^2*(u[1,0]+x[2])) + q*u[1,1]/(u[0,0]+1) + u[0,2]/(q + x[1])"


@pytest.fixture
def rational():
    catalog = build_catalog(SPEC, fields={"q": (1, 2)})
    return catalog, sx.parse(RATIONAL, catalog)


def _text(entry_pair) -> str:
    return sx.render(sx.canonical_quotient(*entry_pair))


def test_table_base_keeps_each_power_base_once(rational):
    catalog, L = rational
    table = sx.Partials(L)
    # (u[0,0]+1)^2 (u[1,0]+x[2]) (q+x[1]) with the power base u[0,0]+1 kept once:
    # b^2 is the least power den divides
    assert table.lagrangian()[1] == 2
    base = sx.expand(sx.parse("(u[0,0]+1)*(u[1,0]+x[2])*(q+x[1])", catalog))[0]
    assert sx._p_monic(table.base) == base
    assert sx.render(table.expr()) == sx.render(sx.normalize(L))


def test_table_base_is_found_without_a_gcd(rational, monkeypatch):
    """Only L's expansion takes gcds; the base comes from trial divisions."""
    catalog, L = rational
    table = sx.Partials(L)
    monkeypatch.setattr(sx, "_p_gcd", None)
    assert table.lagrangian()[1] == 2


def test_partial_matches_the_normalized_tree_partial(rational):
    catalog, L = rational
    table = sx.Partials(L)
    q = sx.field_sym("q", sx.zero(2), (1, 2))
    for s in catalog.jet_syms + (q,):
        assert _text(table.reduce(table.of(s))) == sx.render(sx.normalize(sx.partial(L, s))), s


def test_total_derivative_matches_the_tree_route(rational):
    catalog, L = rational
    table = sx.Partials(L)
    for i in (1, 2):
        d = sx.horizontal(i, lambda u: ((sx.jet_sym(u.alpha, u.index.bump(i)), 1),))
        got = _text(table.reduce(table.derive(table.lagrangian(), d)))
        assert got == sx.render(sx.normalize(el.total_derivative(L, i, SPEC.k + 1))), i
    # D_2 D_1: the second derivative sits over a higher power of the base
    d1, d2 = (sx.horizontal(i, lambda u, i=i: ((sx.jet_sym(u.alpha, u.index.bump(i)), 1),))
              for i in (1, 2))
    got = _text(table.reduce(table.derive(table.derive(table.lagrangian(), d1), d2)))
    twice = el.total_derivative(el.total_derivative(L, 1, SPEC.k + 1), 2, SPEC.k + 2)
    assert got == sx.render(sx.normalize(twice))


def test_rational_problem_matches_the_tree_route(rational):
    catalog, L = rational
    assert _routes(catalog, L, SPEC) == _tree_routes(catalog, L, SPEC)


def _routes(catalog, L, spec):
    """EL, W1 and B, tangency, C_j and W2 from the table, rendered."""
    families = {e.provenance: (e.record()["lhs"], e.record()["rhs"])
                for e in dynamical_equations(catalog, L)
                if e.tag in (TAG_B_TRACE, TAG_B_MIDDLE, TAG_W1)}
    return (el.euler_lagrange(L, spec).records(), families,
            [(e.record()["lhs"], e.record()["rhs"]) for e in tangency_equations(catalog, L)],
            [sx.render(c) for c in c_coefficients(catalog, L,
                                                  *default_projector_assignments(catalog))],
            w2_constraint(catalog, L)[0].record()["rhs"])


def _tree_routes(catalog, L, spec):
    return (rr.tree_euler_lagrange(L, spec), rr.tree_families(catalog, L),
            rr.tree_tangency(catalog, L), rr.tree_c_coefficients(catalog, L),
            rr.tree_w2(catalog, L))


def _outcome(route, *args):
    try:
        return route(*args)
    except EngineError as exc:
        return type(exc).__name__


@settings(FUZZ, max_examples=200)
@given(st.randoms(use_true_random=True))
def test_table_route_matches_the_tree_route(rng):
    """On the fuzz grammar's problems (rational Lagrangians, field atoms,
    m, n, k <= 3), every side and EL component from the table renders as the
    tree route's, or both routes raise the same error."""
    try:
        problem = parse_problem(problem_text(rng, 3))
        catalog = problem.catalog()
        L = problem.lagrangian(catalog)
    except EngineError:
        return
    spec = problem.bundle
    assert _outcome(_routes, catalog, L, spec) == _outcome(_tree_routes, catalog, L, spec)


def test_run_problem_expands_l_once(monkeypatch):
    """One report with the equations and el stages expands L into its table
    once, and a warm signature applies no lift to the pairing again."""
    problem = parse_problem(dict(bench_workloads().LADDER)["ladder-222"])
    L = problem.lagrangian()
    run_problem(problem, 0, {"equations", "el"})
    expanded, images = [], []

    def to_rat(e, _real=sx._to_rat):
        if e is L:
            expanded.append(e)
        return _real(e)

    def pairing_images(*args, _real=asm._pairing_images):
        images.append(args)
        return _real(*args)
    monkeypatch.setattr(sx, "_to_rat", to_rat)
    monkeypatch.setattr(asm, "_pairing_images", pairing_images)
    run_problem(problem, 0, {"equations", "el"})
    assert len(expanded) == 1 and images == []


def test_report_renders_sides_without_trees(monkeypatch):
    """A warm report with the equations and el stages renders every side and
    EL component from its canonical pair: it builds no tree.  A side read as a
    tree is built once, so the replay and the oracle never build one twice."""
    problems = [parse_problem(dict(bench_workloads().LADDER)["ladder-222"]),
                parse_problem(CORPUS_PROBLEMS["camassa-holm"])]
    for problem in problems:
        run_problem(problem, 0, {"equations", "el"})
    built = []

    def poly_to_expr(p, _real=sx._poly_to_expr):
        built.append(p)
        return _real(p)
    monkeypatch.setattr(sx, "_poly_to_expr", poly_to_expr)
    for problem in problems:
        run_problem(problem, 0, {"equations", "el"})
    assert built == []
    for problem in problems:
        catalog = problem.catalog()
        L = problem.lagrangian(catalog)
        eqs = list(dynamical_equations(catalog, L)) + list(tangency_equations(catalog, L))
        system = el.euler_lagrange(L, problem.bundle)
        sides, components = [(e.lhs, e.rhs) for e in eqs], system.components
        count = len(built)
        assert all(e.lhs is lhs and e.rhs is rhs for e, (lhs, rhs) in zip(eqs, sides))
        assert system.components is components
        assert len(built) == count > 0


def test_report_sides_are_built_canonical(monkeypatch):
    """Every equation side a report records renders as it does after a fresh
    reduction of its own expansion, so record only renders."""
    recorded = []

    def record(self, _real=Equation.record):
        for side in (self.lhs, self.rhs):
            fresh = sx._rat_to_expr(*sx._rat_reduce(*sx._to_rat(side)))
            assert sx.render(fresh) == sx.render(side), (self.provenance, sx.render(side))
        recorded.append(self)
        return _real(self)
    monkeypatch.setattr(Equation, "record", record)
    texts = [CORPUS_PROBLEMS[name] for name in CORPUS_NAMES]
    texts += [text for _, text in bench_workloads().LADDER]
    texts += [it.text for it in bench_workloads().generate("assembly", 5)[::7]]
    texts.append("m=2\nn=1\nk=2\nlagrangian = %s\n" % RATIONAL.replace("q", "x[1]"))
    for text in texts:
        run_problem(parse_problem(text), 0, {"equations"})
    assert len(recorded) > 500


def test_signature_record_takes_polynomials_only(rational):
    catalog, L = rational
    with pytest.raises(InternalConsistencyError, match="not a polynomial"):
        asm._polynomial(L)
