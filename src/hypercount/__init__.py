"""Finite-field character sums, hypergeometric series, and point counts.

Layers, bottom to top:

* :mod:`hypercount.ffield`     — odd-characteristic finite fields F_q with
  dense exp/log/trace tables.
* :mod:`hypercount.values`     — the two value backends: complex floats
  and an exact residue ring mod a prime ell = 1 (mod p(q-1)).
* :mod:`hypercount.characters` — multiplicative/additive characters,
  Gauss and Jacobi sums, and the normalized character binomial.
* :mod:`hypercount.hypergeom`  — finite-field hypergeometric series
  n+1_F_n built from character binomials.
* :mod:`hypercount.curvecount` — closed-form point counts for
  y² = x^d + ax + b and y² = x^d + ax^{d-1} + b, plus elliptic-curve
  Frobenius traces.
* :mod:`hypercount.oracle`     — brute-force counts and exhaustive
  identity checkers used to validate everything above.
* :mod:`hypercount.cli`        — the ``hypercount`` command.
"""

from .characters import (
    MultChar,
    binom,
    binom_column,
    char_of_order,
    eval_char,
    gauss_sum,
    jacobi_sum,
    quadratic_char,
    quadratic_sign,
    theta,
    trivial_char,
)
from .curvecount import (
    BRUTE_FORCE,
    COUNT_METHODS,
    FAMILY_A_EVEN,
    FAMILY_A_ODD,
    FAMILY_B_EVEN,
    FAMILY_B_ODD,
    CountResult,
    CurveParams,
    alpha_param,
    beta_param,
    count_points,
    cubic_discriminant_linear,
    cubic_discriminant_quadratic,
    even_family_characters,
    family_a_odd_characters,
    family_b_odd_characters,
    hasse_bound,
    required_congruence,
    trace_frobenius_linear,
    trace_frobenius_quadratic,
)
from .errors import (
    CongruenceViolated,
    ExactModulusTooLarge,
    FloatRangeExceeded,
    HypercountError,
    LogOfZero,
    MixedFieldContexts,
    NonIntegerResult,
    NotPrime,
    OrderDoesNotDivide,
    TableBudgetExceeded,
    ZeroCoefficient,
)
from .ffield import (
    DEFAULT_TABLE_BUDGET,
    FieldCtx,
    build_field,
    cache_info,
    dlog,
    trace_map,
)
from .hypergeom import (
    HgfSpec,
    coefficient_vector,
    evaluate_hgf,
    series_values,
)
from .oracle import (
    DecompositionReport,
    IdentityReport,
    brute_count,
    davenport_hasse_products,
    decompose_theta_sum,
    quad_component,
    rhs_table,
    theta_scaled_sum,
    verify_davenport_hasse,
    verify_lemmas,
)
from .values import (
    DEFAULT_TOLERANCE,
    CharValue,
    ComplexRing,
    ResidueRing,
    get_ring,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE",
    "COUNT_METHODS",
    "CharValue",
    "ComplexRing",
    "CongruenceViolated",
    "CountResult",
    "CurveParams",
    "DEFAULT_TABLE_BUDGET",
    "DEFAULT_TOLERANCE",
    "DecompositionReport",
    "ExactModulusTooLarge",
    "FAMILY_A_EVEN",
    "FAMILY_A_ODD",
    "FAMILY_B_EVEN",
    "FAMILY_B_ODD",
    "FieldCtx",
    "FloatRangeExceeded",
    "HgfSpec",
    "HypercountError",
    "IdentityReport",
    "LogOfZero",
    "MixedFieldContexts",
    "MultChar",
    "NonIntegerResult",
    "NotPrime",
    "OrderDoesNotDivide",
    "ResidueRing",
    "TableBudgetExceeded",
    "ZeroCoefficient",
    "alpha_param",
    "beta_param",
    "binom",
    "binom_column",
    "brute_count",
    "build_field",
    "cache_info",
    "char_of_order",
    "coefficient_vector",
    "count_points",
    "cubic_discriminant_linear",
    "cubic_discriminant_quadratic",
    "davenport_hasse_products",
    "decompose_theta_sum",
    "dlog",
    "eval_char",
    "evaluate_hgf",
    "even_family_characters",
    "family_a_odd_characters",
    "family_b_odd_characters",
    "gauss_sum",
    "get_ring",
    "hasse_bound",
    "jacobi_sum",
    "quad_component",
    "quadratic_char",
    "quadratic_sign",
    "required_congruence",
    "rhs_table",
    "series_values",
    "theta",
    "theta_scaled_sum",
    "trace_frobenius_linear",
    "trace_frobenius_quadratic",
    "trace_map",
    "trivial_char",
    "verify_davenport_hasse",
    "verify_lemmas",
    "__version__",
]
