"""Integrability analysis of Pfaffian forms on boxes in R^n.

The names of ``__all__`` load on first use (PEP 562): importing the package
imports none of its submodules, and ``pfaffian.classify`` or ``from pfaffian
import classify`` imports the module that defines the name; a submodule read
as an attribute (``pfaffian.catalog``) is imported the same way.  So the
command line (``pfaffian.cli``) loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# the exported names by the submodule that defines them
_EXPORTS = {
    "errors": (
        "AnalysisError",
        "ArityError",
        "EvalDomainError",
        "ExpressionError",
        "FormError",
        "OutOfDomainError",
        "ParseError",
        "PfaffianError",
        "SingularFormError",
        "UnknownIdentifierError",
    ),
    "expressions": (
        "differentiate",
        "parse_expression",
        "to_string",
    ),
    "forms": (
        "Box",
        "PfaffianForm",
        "Substitution",
        "coefficient_vector",
        "is_singular_at",
        "load_form",
        "make_form",
        "make_substitution",
        "parse_form_file",
        "pullback",
    ),
    "integrability": (
        "Verdict",
        "clairaut_component",
        "classify",
        "curl_triple_product",
        "exactness_defect",
        "invariance_check",
    ),
    "factor": (
        "FactorizationResult",
        "TransversalSpec",
        "build_potential_2var",
        "global_factorization",
        "solve_characteristic",
        "staircase_defect",
        "verify_factorization",
    ),
    "reach": (
        "ReachSample",
        "ReachabilityVerdict",
        "estimate_dimension",
        "explore",
        "surrounding_line_scan",
    ),
    # ``entry`` but not the function ``catalog``, which would shadow the
    # submodule ``pfaffian.catalog``
    "catalog": ("CatalogEntry", "entry"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# read as attributes of the package, as when it imported them all
_SUBMODULES = {*_EXPORTS, "cli", "ode", "reports", "sampling"}

__all__ = list(_OWNER)


def __getattr__(name):
    """The exported ``name``, imported from its submodule on first access,
    or the submodule ``name``."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{module}", __name__), name)
    return value
