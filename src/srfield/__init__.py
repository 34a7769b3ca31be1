"""srfield: symbolic/numeric engine for higher-order Lagrangian field theory.

From a bundle signature (m, n, k) and a Lagrangian on the order-k jet space,
the engine builds the velocity-momentum space and its premultisymplectic
form, extracts the dynamical equation families mechanically, runs the
constraint and regularity analysis, and derives the higher-order
Euler-Lagrange equations, cross-checked by an independent numeric
first-variation oracle.

The exact stages import no numpy; the analysis and the oracle load it on first use.
"""

from importlib import import_module

from .errors import (
    EngineError,
    EvalDomainError,
    InternalConsistencyError,
    NormalizationError,
    ParseError,
    PreconditionError,
    QuadratureError,
    SelectionError,
    UsageError,
)
from .multiindex import MultiIndex
from .jetmodel import BundleSpec, CoordCatalog, SectionFn, build_catalog, dim_jet, prolong
from .symexpr import Expr, Sym, equivalent, evaluate, normalize, parse, partial, render
from .assembler import (
    c_coefficients,
    dynamical_equations,
    hamiltonian_h0,
    omega_h0,
    projector_template,
    tangency_equations,
    w2_constraint,
)
from .eleuler import euler_lagrange, iterated_total_derivative, total_derivative
from .problem import ProblemFile, load_problem, parse_problem
from .report import run_problem

__version__ = "0.1.0"

# the numeric re-exports, whose modules import numpy, loaded on first use (PEP 562)
_NUMERIC = {
    "classify_b_system": "analysis",
    "highest_hessian": "analysis",
    "is_regular_at": "analysis",
    "omega2_kernel_dim_at": "analysis",
    "prop31_select": "analysis",
    "prop31_verify": "analysis",
    "gateaux_oracle": "oracle",
    "residual_on_section": "oracle",
}


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _NUMERIC[name], __name__), name)

__all__ = [
    "BundleSpec",
    "CoordCatalog",
    "EngineError",
    "Expr",
    "MultiIndex",
    "ProblemFile",
    "SectionFn",
    "Sym",
    "build_catalog",
    "c_coefficients",
    "classify_b_system",
    "dim_jet",
    "dynamical_equations",
    "equivalent",
    "euler_lagrange",
    "evaluate",
    "gateaux_oracle",
    "hamiltonian_h0",
    "highest_hessian",
    "is_regular_at",
    "iterated_total_derivative",
    "load_problem",
    "normalize",
    "omega2_kernel_dim_at",
    "omega_h0",
    "parse",
    "parse_problem",
    "partial",
    "prolong",
    "prop31_select",
    "prop31_verify",
    "projector_template",
    "render",
    "residual_on_section",
    "run_problem",
    "tangency_equations",
    "total_derivative",
    "w2_constraint",
]
