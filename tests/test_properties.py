"""Property tests over generated condition sets (needs Hypothesis)."""

import pytest

import oracles
from sumside import (
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    SmallestPartRule,
    count_sum_side,
    enumerate_sum_side,
)

pytest.importorskip(
    "hypothesis", reason="Hypothesis is not installed; pip install -e '.[test]'"
)
from hypothesis import given, settings, strategies as st

smallest_rules = st.none() | st.builds(
    SmallestPartRule,
    st.integers(1, 3),
    st.none() | st.integers(1, 3),
)
diff_rules = st.builds(DiffDistRule, st.integers(1, 4), st.integers(0, 4))
congruence_rules = st.integers(2, 4).flatmap(
    lambda m: st.builds(
        CongruenceRule, st.integers(1, 3), st.integers(-2, 5), st.integers(0, m - 1), st.just(m)
    )
)
condition_sets = st.builds(
    ConditionSet,
    smallest_rules,
    st.lists(diff_rules, max_size=2),
    st.lists(congruence_rules, max_size=2),
)


def oracle_rules(cs: ConditionSet) -> dict:
    """cs in the oracle's plain-tuple vocabulary."""
    return {
        "min_part": cs.min_part,
        "max_mult": None if cs.smallest is None else cs.smallest.max_mult,
        "diffs": [(r.distance, r.min_diff) for r in cs.diffs],
        "congruences": [(r.span, r.gap, r.residue, r.modulus) for r in cs.congruences],
    }


@settings(derandomize=True, deadline=None, max_examples=200)
@given(condition_sets, st.integers(0, 14))
def test_listing_matches_oracle_and_count(cs, n):
    listed = enumerate_sum_side(cs, n)
    assert listed == oracles.oracle_partitions(n, **oracle_rules(cs))
    assert len(listed) == count_sum_side(cs, n)[n]
