"""Integrability analysis of Pfaffian forms on boxes in R^n."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AnalysisError,
    ArityError,
    EvalDomainError,
    ExpressionError,
    FormError,
    OutOfDomainError,
    ParseError,
    PfaffianError,
    SingularFormError,
    UnknownIdentifierError,
)
from .expressions import (  # noqa: F401
    differentiate,
    parse_expression,
    to_string,
)
from .forms import (  # noqa: F401
    Box,
    PfaffianForm,
    Substitution,
    coefficient_vector,
    is_singular_at,
    load_form,
    make_form,
    make_substitution,
    parse_form_file,
    pullback,
)
from .integrability import (  # noqa: F401
    Verdict,
    clairaut_component,
    classify,
    curl_triple_product,
    exactness_defect,
    invariance_check,
)
from .factor import (  # noqa: F401
    FactorizationResult,
    TransversalSpec,
    build_potential_2var,
    global_factorization,
    solve_characteristic,
    staircase_defect,
    verify_factorization,
)
from .reach import (  # noqa: F401
    ReachSample,
    ReachabilityVerdict,
    estimate_dimension,
    explore,
    surrounding_line_scan,
)
from .catalog import CatalogEntry, entry  # noqa: F401
