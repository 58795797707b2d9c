"""The package's public names: a fixed list, so any growth is a test edit."""

import sumside

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(sumside.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in sumside.__all__:
        assert getattr(sumside, name) is not None, name
