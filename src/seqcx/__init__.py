"""seqcx: linear and expansion complexity of sequences over finite fields."""

from .field import Field
from .lincomp import (
    LinearFit,
    Periodicity,
    RationalForm,
    Sequence,
    berlekamp_massey,
    extend_by_recurrence,
    linear_fits,
    linear_profile,
    preperiod_from_rational,
    rational_form,
)
from .expcomp import (
    ExpansionProfile,
    ExpansionWitness,
    expansion_complexity,
    expansion_profile,
    kernel_degree_bound,
)
from .series import (
    BivariatePoly,
    Poly,
    TruncatedSeries,
    poly_gcd,
    poly_pow,
    rational_expand,
    series_mul,
    series_pow,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Sequence",
    "Periodicity",
    "LinearFit",
    "RationalForm",
    "berlekamp_massey",
    "linear_fits",
    "linear_profile",
    "rational_form",
    "preperiod_from_rational",
    "extend_by_recurrence",
    "ExpansionWitness",
    "ExpansionProfile",
    "expansion_complexity",
    "expansion_profile",
    "kernel_degree_bound",
    "Poly",
    "TruncatedSeries",
    "BivariatePoly",
    "poly_gcd",
    "poly_pow",
    "rational_expand",
    "series_mul",
    "series_pow",
    "substitute",
    "__version__",
]
