"""Search for and verify partition identities of Rogers-Ramanujan type.

The package turns configurable sum-side conditions on partitions into exact
generating-function prefixes, factors those prefixes into Euler products,
flags periodic product shapes as candidate identities, and verifies the
shipped identities to high order via polynomial recursions.
"""

from .partitions import (
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    SmallestPartRule,
    count_sum_side,
    enumerate_sum_side,
)
from .products import ProductShape, describe, detect_period, symmetry_classify
from .recursions import (
    BUILTIN_IDENTITIES,
    IdentitySpec,
    VerificationReport,
    capped_polynomial,
    coefficient_digest,
    initial_state,
    product_side,
    verify_identity,
)
from .search import CandidateHit, CandidateReport, SearchGrid, run_search
from .series import (
    ExponentSequence,
    IntegralityError,
    TruncatedSeries,
    euler_factorize,
    expand_product,
)

__all__ = [
    "BUILTIN_IDENTITIES",
    "CandidateHit",
    "CandidateReport",
    "ConditionSet",
    "CongruenceRule",
    "DiffDistRule",
    "ExponentSequence",
    "IdentitySpec",
    "IntegralityError",
    "ProductShape",
    "SearchGrid",
    "SmallestPartRule",
    "TruncatedSeries",
    "VerificationReport",
    "capped_polynomial",
    "coefficient_digest",
    "count_sum_side",
    "describe",
    "detect_period",
    "enumerate_sum_side",
    "euler_factorize",
    "expand_product",
    "initial_state",
    "product_side",
    "run_search",
    "symmetry_classify",
    "verify_identity",
]

__version__ = "0.1.0"
