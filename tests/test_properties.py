"""Property tests over generated condition sets, grids and series (needs Hypothesis)."""

import json

import pytest

import oracles
from sumside import (
    BUILTIN_IDENTITIES,
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    ProductShape,
    SearchGrid,
    SmallestPartRule,
    TruncatedSeries,
    capped_polynomial,
    count_sum_side,
    enumerate_sum_side,
    euler_factorize,
    expand_product,
)
from sumside.partitions import _open_rows
from sumside.recursions import FAMILIES
from sumside.series import _SEED, _factor, _mul, _period, _proposed, pack, unpack

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


rows = st.tuples(st.lists(diff_rules, max_size=2), st.lists(congruence_rules, max_size=2))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(smallest_rules, max_size=4), st.lists(rows, max_size=3), st.data())
def test_row_cache_gives_every_cell_the_closed_series(options, row_list, data):
    # a grid of smallest-part options by (diffs, congruences) rows, which
    # always holds a capped stop (m, c) with m, c <= 3, SmallestPartRule(1,
    # None), a min_part past n and a congruence with a negative gap; its
    # cells are counted in a drawn order
    n = data.draw(st.integers(0, 20))
    capped = SmallestPartRule(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    past_n = SmallestPartRule(n + 1, data.draw(st.none() | st.integers(1, 3)))
    options = [*options, capped, SmallestPartRule(1, None), past_n]
    row_list = [*row_list, ((), (CongruenceRule(1, data.draw(st.integers(-3, -1)), 0, 2),))]
    cells = data.draw(st.permutations(
        [ConditionSet(sm, diffs, congruences) for sm in options for diffs, congruences in row_list]
    ))
    closed = [count_sum_side(cs, n) for cs in cells]
    _open_rows(options)
    try:
        opened = [count_sum_side(cs, n) for cs in cells]
    finally:
        _open_rows(None)
    assert opened == closed


FAMILY_SPECS = sorted(
    (spec.recursion_family, spec) for spec in BUILTIN_IDENTITIES.values()
)


@st.composite
def family_caps(draw):
    """A recursion family, a cap it is defined at, and a truncation order."""
    family, spec = draw(st.sampled_from(FAMILY_SPECS))
    cap = draw(st.integers(FAMILIES[family].start, 130))
    return family, spec, cap, draw(st.integers(0, 120))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(family_caps())
def test_recursions_agree_with_the_sweep_on_generated_caps(case):
    family, spec, cap, order = case
    got = capped_polynomial(family, cap, order=order)[-1]
    assert got == count_sum_side(spec.conditions, order, cap=cap)


# rules over their whole valid range, for the JSON round trips
any_smallest = st.none() | st.builds(
    SmallestPartRule, st.integers(min_value=1), st.none() | st.integers(min_value=1)
)
any_diff = st.builds(DiffDistRule, st.integers(min_value=1), st.integers(min_value=0))
any_congruence = st.integers(2, 10**6).flatmap(
    lambda m: st.builds(
        CongruenceRule,
        st.integers(min_value=1),
        st.integers(),
        st.integers(0, m - 1),
        st.just(m),
    )
)
any_condition_set = st.builds(
    ConditionSet,
    any_smallest,
    st.lists(any_diff, max_size=3),
    st.lists(any_congruence, max_size=3),
)


@st.composite
def any_grid(draw):
    """Any valid grid: its order is min_repeats + k for some k >= 0."""
    min_repeats = draw(st.integers(min_value=1))
    return SearchGrid(
        draw(st.lists(any_smallest, min_size=1, max_size=3)),
        draw(st.lists(st.lists(any_diff, max_size=2).map(tuple), min_size=1, max_size=3)),
        draw(st.lists(st.lists(any_congruence, max_size=2).map(tuple), min_size=1, max_size=3)),
        order=min_repeats + draw(st.integers(min_value=0)),
        p_max=draw(st.integers(min_value=1)),
        min_repeats=min_repeats,
    )


def through_json_text(obj: dict) -> dict:
    return json.loads(json.dumps(obj))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(any_condition_set)
def test_condition_set_json_round_trip(cs):
    assert ConditionSet.from_json(through_json_text(cs.to_json())) == cs


@settings(derandomize=True, deadline=None, max_examples=100)
@given(any_grid())
def test_search_grid_json_round_trip(grid):
    assert SearchGrid.from_json(through_json_text(grid.to_json())) == grid


@st.composite
def packable(draw):
    """A bit width and coefficients that fit it under pack's margin bit."""
    bits = draw(st.integers(1, 70))
    coeffs = draw(st.lists(st.integers(0, (1 << (bits - 1)) - 1), min_size=1, max_size=30))
    return bits, coeffs


@settings(derandomize=True, deadline=None, max_examples=200)
@given(packable())
def test_pack_unpack_round_trip(case):
    bits, coeffs = case
    assert unpack(pack(coeffs, len(coeffs) - 1, bits), len(coeffs) - 1, bits) == TruncatedSeries(coeffs)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(packable(), st.data())
def test_right_shift_is_multiplication_by_a_power_of_q(case, data):
    bits, coeffs = case
    n = len(coeffs) - 1 + data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, n + 1))
    want = ([0] * k + coeffs + [0] * n)[: n + 1]
    assert unpack(pack(coeffs, n, bits) >> k * bits, n, bits) == TruncatedSeries(want)


signed_lists = st.lists(
    st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, -1]), min_size=1, max_size=25
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(signed_lists, signed_lists, st.integers(0, 55))
def test_mul_matches_naive_convolution(f, g, n):
    naive = [
        sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) for k in range(n + 1)
    ]
    assert _mul(f, g, n) == naive


@st.composite
def periodic_products(draw):
    """A product whose exponents repeat a profile of period 1..47 with
    exponents -3..3, at an order from 2*_SEED on, where the certified route
    starts, and maybe one coefficient past the 63-term prefix moved by +-1
    or +-2^32."""
    profile = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=47))
    order = draw(st.sampled_from([128, 129, 255, 256]) | st.integers(128, 264))
    b = list(expand_product(ProductShape(len(profile), profile).exponents(order)))
    if draw(st.booleans()):
        b[draw(st.integers(_SEED, order))] += draw(st.sampled_from([1, -1, 2**32, -(2**32)]))
    return b


@settings(derandomize=True, deadline=None, max_examples=150)
@given(periodic_products())
def test_certified_route_matches_general_route_and_oracle(b):
    got = list(euler_factorize(TruncatedSeries(b)))
    assert got == _factor(b)
    assert got[1:] == oracles.oracle_factorize(b)


@st.composite
def proposals(draw):
    """(b, head, limit): a product whose exponents repeat a profile of period
    1..40 at an order of 40..160, maybe with one coefficient moved by +-1,
    with its head a_0..a_k for some k <= the order and a limit below k."""
    profile = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=40))
    order = draw(st.integers(40, 160))
    b = list(expand_product(ProductShape(len(profile), profile).exponents(order)))
    if draw(st.booleans()):
        b[draw(st.integers(1, order))] += draw(st.sampled_from([1, -1]))
    k = draw(st.integers(2, order))
    return b, _factor(b[: k + 1]), draw(st.integers(1, k - 1))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(proposals())
def test_proposed_is_none_exactly_when_no_period_fits(case):
    b, head, limit = case
    got = _proposed(b, head, limit)
    if _period(head, limit) is None:
        assert got is None
    else:
        assert list(got)[1:] == oracles.oracle_factorize(b)
