"""srfield: symbolic/numeric engine for higher-order Lagrangian field theory.

From a bundle signature (m, n, k) and a Lagrangian on the order-k jet space,
the engine builds the velocity-momentum space and its premultisymplectic
form, extracts the dynamical equation families mechanically, runs the
constraint and regularity analysis, and derives the higher-order
Euler-Lagrange equations, cross-checked by an independent numeric
first-variation oracle.

`import srfield` loads no submodule: each exported name is read from its
module on first use (PEP 562), so an exact name loads no numpy and only the
analysis and oracle names do.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {name: module for module, names in (
    ("errors", """EngineError EvalDomainError InternalConsistencyError NormalizationError
        ParseError PreconditionError QuadratureError SelectionError UsageError"""),
    ("multiindex", "MultiIndex"),
    ("jetmodel", "BundleSpec CoordCatalog SectionFn build_catalog"),
    ("symexpr", "Expr Sym equivalent normalize parse partial render"),
    ("assembler", """c_coefficients dynamical_equations hamiltonian_h0 omega_h0
        projector_template tangency_equations w2_constraint"""),
    ("eleuler", "euler_lagrange iterated_total_derivative total_derivative"),
    ("problem", "ProblemFile load_problem parse_problem"),
    ("report", "run_problem"),
    ("analysis", """classify_b_system highest_hessian is_regular_at omega2_kernel_dim_at
        prop31_select"""),
    ("oracle", "gateaux_oracle"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _EXPORTS[name], __name__), name)
