"""Condition rules, JSON round-trips, and the counting walkers."""

import hashlib
import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracles
from sumside import (
    BUILTIN_IDENTITIES,
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    SearchGrid,
    SmallestPartRule,
    count_sum_side,
    enumerate_sum_side,
    euler_factorize,
)
from sumside import partitions
from sumside.partitions import (
    _add_large_parts,
    _listing_text,
    _open_rows,
    _repeat_bound,
    _split_cap,
    _window,
)
from sumside.series import _partition_numbers, _regular_count, packed_bits

I1 = ConditionSet(diffs=(DiffDistRule(2, 3),), congruences=(CongruenceRule(1, 1, 0, 3),))
I3 = ConditionSet(
    smallest=SmallestPartRule(3),
    diffs=(DiffDistRule(2, 3),),
    congruences=(CongruenceRule(1, 1, 0, 3),),
)
RR = ConditionSet(diffs=(DiffDistRule(1, 2),))


def conditions_from_rules(rules: dict) -> ConditionSet:
    """Build a ConditionSet from the oracle's plain-tuple vocabulary."""
    smallest = None
    if rules.get("min_part", 1) != 1 or rules.get("max_mult") is not None:
        smallest = SmallestPartRule(rules.get("min_part", 1), rules.get("max_mult"))
    return ConditionSet(
        smallest=smallest,
        diffs=tuple(DiffDistRule(k, d) for k, d in rules.get("diffs", ())),
        congruences=tuple(
            CongruenceRule(a, b, c, d) for a, b, c, d in rules.get("congruences", ())
        ),
    )


def random_rules(rng: random.Random) -> dict:
    """A rule set in the oracle's vocabulary, for the seeded oracle tests."""
    return {
        "min_part": rng.randrange(1, 3),
        "max_mult": rng.choice([None, 1, 3]),
        "diffs": [
            (rng.randrange(1, 4), rng.randrange(0, 4))
            for _ in range(rng.randrange(0, 3))
        ],
        "congruences": [
            (rng.randrange(1, 4), rng.randrange(0, 4), rng.randrange(0, mod), mod)
            for mod in (rng.randrange(2, 5),)
            for _ in range(rng.randrange(0, 2))
        ],
    }


def wide_case(rng: random.Random) -> tuple[dict, int | None]:
    """A wider rule set (longer windows, negative and large gaps, min_diff 0)
    and a cap on the largest part."""
    rules = {
        "min_part": rng.randrange(1, 4),
        "max_mult": rng.choice([None, 1, 2, 3]),
        "diffs": [
            (rng.randrange(1, 5), rng.randrange(0, 5))
            for _ in range(rng.randrange(0, 3))
        ],
        "congruences": [
            (rng.randrange(1, 5), rng.randrange(-2, 6), rng.randrange(0, mod), mod)
            for mod in (rng.randrange(2, 5),)
            for _ in range(rng.randrange(0, 3))
        ],
    }
    return rules, rng.choice([None, 0, 1, 5, 30])


def split_rules(rng: random.Random) -> dict:
    """A rule set for the split at _split_cap: often no diff rule, smallest
    parts up to 9, multiplicity caps, and congruence gaps from -1 to 3."""
    return {
        "min_part": rng.choice((1, 1, 1, 2, 2, 3, 4, 6, 9)),
        "max_mult": rng.choice([None, 1, 2, 3]),
        "diffs": [
            (rng.randrange(1, 4), rng.randrange(0, 5))
            for _ in range(rng.randrange(0, 3))
        ],
        "congruences": [
            (rng.randrange(1, 4), rng.randrange(-1, 4), rng.randrange(0, mod), mod)
            for mod in (rng.randrange(2, 5),)
            for _ in range(rng.randrange(0, 2))
        ],
    }


def as_text(listing: list[tuple[int, ...]]) -> str:
    """Partitions as the CLI lists them, one per line."""
    return "".join(("+".join(map(str, p)) if p else "0") + "\n" for p in listing)


class TestRuleValidation:
    def test_smallest_part_bounds(self):
        with pytest.raises(ValueError):
            SmallestPartRule(0)
        with pytest.raises(ValueError):
            SmallestPartRule(1, 0)
        assert SmallestPartRule(2).max_mult is None

    @pytest.mark.parametrize(
        "slots, message",
        [
            (dict(smallest=5), "smallest: expected a SmallestPartRule or None, got 5"),
            (
                dict(smallest=DiffDistRule(1, 1)),
                "smallest: expected a SmallestPartRule or None, "
                "got DiffDistRule(distance=1, min_diff=1)",
            ),
            (dict(diffs=(3,)), "diffs[0]: expected a DiffDistRule, got 3"),
            (dict(diffs=3), "diffs: expected a sequence of DiffDistRule, got 3"),
            (
                dict(congruences=(CongruenceRule(1, 1, 0, 3), SmallestPartRule(2))),
                "congruences[1]: expected a CongruenceRule, "
                "got SmallestPartRule(min_part=2, max_mult=None)",
            ),
        ],
    )
    def test_condition_set_slots_hold_their_rule_kind(self, slots, message):
        with pytest.raises(ValueError) as info:
            ConditionSet(**slots)
        assert str(info.value) == message

    def test_diff_dist_bounds(self):
        with pytest.raises(ValueError):
            DiffDistRule(0, 1)
        with pytest.raises(ValueError):
            DiffDistRule(1, -1)
        assert DiffDistRule(1, 0).min_diff == 0

    def test_congruence_bounds(self):
        with pytest.raises(ValueError):
            CongruenceRule(0, 1, 0, 3)
        with pytest.raises(ValueError):
            CongruenceRule(1, 1, 3, 3)
        with pytest.raises(ValueError):
            CongruenceRule(1, 1, 0, 1)
        assert CongruenceRule(1, -2, 0, 3).gap == -2

    def test_from_json_error_text_unchanged_for_bools(self):
        with pytest.raises(ValueError) as info:
            ConditionSet.from_json({"diffs": [{"distance": True, "min_diff": 2}]})
        assert str(info.value) == "diffs[0].distance: expected an integer, got true"


class TestJsonRoundTrip:
    def test_full_condition_set(self):
        cs = ConditionSet(
            smallest=SmallestPartRule(2, 1),
            diffs=(DiffDistRule(3, 3),),
            congruences=(CongruenceRule(2, 1, 2, 3),),
        )
        assert ConditionSet.from_json(json.loads(json.dumps(cs.to_json()))) == cs

    def test_unbounded_serialization(self):
        obj = SmallestPartRule(2).to_json()
        assert obj["max_mult"] == "unbounded"
        assert SmallestPartRule.from_json(obj) == SmallestPartRule(2)

    def test_missing_max_mult_means_unbounded(self):
        assert SmallestPartRule.from_json({"min_part": 3}) == SmallestPartRule(3)

    def test_empty_set(self):
        cs = ConditionSet()
        assert cs.to_json() == {"diffs": [], "congruences": []}
        assert ConditionSet.from_json({}) == cs

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ConditionSet.from_json({"diffs": [], "extras": 1})

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"smallest": {"min_part": 2, "max_mul": 1}},
                "smallest: unknown keys: ['max_mul']",
            ),
            (
                {"diffs": [{"distance": 1, "min_diff": 2}, {"distance": 1, "min": 2}]},
                "diffs[1]: unknown keys: ['min']",
            ),
            (
                {"congruences": [{"span": 1, "gap": 1, "residue": 0, "modulus": 3, "mod": 3}]},
                "congruences[0]: unknown keys: ['mod']",
            ),
        ],
        ids=["smallest", "diff", "congruence"],
    )
    def test_unknown_rule_keys_rejected_with_key_path(self, obj, message):
        # a misspelt max_mult must not load as an uncapped rule
        with pytest.raises(ValueError) as info:
            ConditionSet.from_json(obj)
        assert str(info.value) == message

    def test_every_classics_rule_round_trips(self):
        root = Path(__file__).resolve().parents[1]
        grid = SearchGrid.from_json(json.loads((root / "configs" / "classics.json").read_text()))
        rules = [r for r in grid.smallest if r is not None]
        rules += [r for combo in grid.diffs + grid.congruences for r in combo]
        assert {type(r) for r in rules} == {SmallestPartRule, DiffDistRule, CongruenceRule}
        for rule in rules:
            assert type(rule).from_json(rule.to_json()) == rule


def admitted(cs: ConditionSet, parts: tuple[int, ...]) -> bool:
    """Is the partition in the package's listing of its total?"""
    return parts in enumerate_sum_side(cs, sum(parts))


class TestSatisfies:
    def test_close_pair_summing_to_multiple_of_three(self):
        assert admitted(I1, (2, 1))

    def test_distance_two_violation(self):
        assert not admitted(I1, (1, 1, 1))

    def test_null_partition(self):
        assert admitted(I1, ())
        assert admitted(I3, ())

    def test_min_part_multiplicity_cap(self):
        cs = ConditionSet(smallest=SmallestPartRule(1, 1))
        assert admitted(cs, (3, 1))
        assert not admitted(cs, (3, 1, 1))
        # the cap never touches larger parts
        assert admitted(cs, (3, 3, 3))

    def test_congruence_vacuous_when_window_overruns(self):
        cs = ConditionSet(congruences=(CongruenceRule(2, 1, 1, 3),))
        assert admitted(cs, (5, 5))  # only two parts, span needs three


class TestCountSumSide:
    def test_rogers_ramanujan_at_four(self):
        assert count_sum_side(RR, 4)[4] == 2

    def test_i1_at_three(self):
        assert count_sum_side(I1, 3)[3] == 2

    def test_unrestricted_at_five(self):
        assert count_sum_side(ConditionSet(), 5)[5] == 7

    def test_null_partition_convention(self):
        for cs in (ConditionSet(), I1, I3):
            assert count_sum_side(cs, 0).coeffs == (1,)

    def test_i1_prefix_counts(self):
        # counts of 0..9 frozen from the brute-force oracle
        assert list(count_sum_side(I1, 9)) == [1, 1, 1, 2, 2, 2, 4, 4, 5, 7]

    def test_identity_fixtures_match_oracle(self):
        for name, rules in oracles.IDENTITY_RULES.items():
            cs = conditions_from_rules(rules)
            got = list(count_sum_side(cs, 16))
            want = oracles.oracle_counts(16, **rules)
            assert got == want, name

    def test_random_rule_sets_match_oracle(self):
        # each drawn rule set is checked uncapped, capped and listed; caps come
        # from their own generator so the rule-set draws stay as they were
        rng = random.Random(60322)
        caps = random.Random(60323)
        for _ in range(25):
            rules = random_rules(rng)
            cs = conditions_from_rules(rules)
            assert list(count_sum_side(cs, 13)) == oracles.oracle_counts(13, **rules), rules
            c = caps.randrange(0, 10)
            got = list(count_sum_side(cs, 13, cap=c))
            assert got == oracles.oracle_counts(13, cap=c, **rules), (rules, c)
            for n in range(31):
                want = oracles.oracle_partitions(n, **rules)
                assert enumerate_sum_side(cs, n) == want, (rules, n)

    def test_wide_rule_sets_match_oracle_and_listing(self):
        # wider windows, negative and large gaps, min_diff 0 and large caps:
        # the counts must match the oracle and, coefficient by coefficient,
        # the length of the listing restricted to the cap
        rng = random.Random(71129)
        for _ in range(100):
            rules, cap = wide_case(rng)
            cs = conditions_from_rules(rules)
            got = list(count_sum_side(cs, 16, cap=cap))
            assert got == oracles.oracle_counts(16, cap=cap, **rules), (rules, cap)
            for k, c in enumerate(got):
                listed = [
                    p for p in enumerate_sum_side(cs, k)
                    if cap is None or max(p, default=0) <= cap
                ]
                assert c == len(listed), (rules, cap, k)

    def test_rule_width_holds_the_seeded_rule_sets(self):
        # the rule sets of the two oracle tests above, counted further: every
        # coefficient is within the bound behind packed_bits (Glaisher's
        # b_(d+1)(n) for repeat bound d, else p(n)) and leaves the margin
        # bit clear; distinct parts reach b_2(n) itself
        n = 60
        rng, wide = random.Random(60322), random.Random(71129)
        cases = [random_rules(rng) for _ in range(25)]
        cases += [wide_case(wide)[0] for _ in range(100)]
        for rules in cases:
            cs = conditions_from_rules(rules)
            repeat = _repeat_bound(cs)
            bound = _partition_numbers(n)[n] if repeat is None else _regular_count(repeat + 1, n)
            top = max(count_sum_side(cs, n))
            assert top <= bound, rules
            assert top.bit_length() <= packed_bits(n, repeat) - 1, rules

    def test_repeat_bound_is_the_shortest_strict_diff_rule(self):
        def bound(*diffs):
            return _repeat_bound(ConditionSet(diffs=tuple(DiffDistRule(*d) for d in diffs)))

        assert bound() is None
        assert bound((1, 0), (2, 0)) is None  # min_diff 0 bounds nothing
        assert bound((3, 3), (2, 0)) == 3
        assert bound((3, 1), (2, 5), (4, 1)) == 2

    def test_monotone_under_added_rules(self):
        base = list(count_sum_side(I1, 14))
        tightened = ConditionSet(
            smallest=SmallestPartRule(2),
            diffs=I1.diffs,
            congruences=I1.congruences,
        )
        for b, t in zip(base, list(count_sum_side(tightened, 14))):
            assert t <= b

    def test_distinct_parts_factor_to_odd_residues(self):
        distinct = ConditionSet(diffs=(DiffDistRule(1, 1),))
        exps = euler_factorize(count_sum_side(distinct, 24))
        assert exps.coeffs == tuple(m % 2 for m in range(25))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            count_sum_side(I1, -1)


@contextmanager
def row_cache(smallest):
    """count_sum_side with the row cache open for these options, as search
    opens it for one sweep of a grid."""
    _open_rows(smallest)
    try:
        yield partitions._rows[1]
    finally:
        _open_rows(None)


class TestRowCache:
    # every stop the sweep reads: none, (1, None), the capped stops m <= 3
    # with c = 1..3 (one step at m on the states from before m), and
    # min_part past n, the constant series 1
    N = 13
    OPTIONS = (
        None,
        SmallestPartRule(1),
        *(SmallestPartRule(m, c) for m in (1, 2, 3) for c in (None, 1, 2, 3)),
        SmallestPartRule(N + 1),
        SmallestPartRule(N + 2, 1),
    )

    def test_every_stop_of_a_row_matches_the_oracle(self):
        # each row is swept once, for all its stops, and every cell read from
        # it must be the oracle's count; a stop read one value early or late
        # miscounts
        rng = random.Random(30417)
        with row_cache(self.OPTIONS) as rows:
            for _ in range(20):
                rules, _ = wide_case(rng)
                diffs = tuple(DiffDistRule(*r) for r in rules["diffs"])
                congruences = tuple(CongruenceRule(*r) for r in rules["congruences"])
                for sm in self.OPTIONS:
                    cs = ConditionSet(sm, diffs, congruences)
                    want = oracles.oracle_counts(
                        self.N,
                        min_part=cs.min_part,
                        max_mult=None if sm is None else sm.max_mult,
                        diffs=rules["diffs"],
                        congruences=rules["congruences"],
                    )
                    assert list(count_sum_side(cs, self.N)) == want, (rules, sm)
            assert 1 < len(rows) <= 20

    def test_closed_or_capped_counts_keep_out_of_the_cache(self):
        cells = [ConditionSet(sm, I1.diffs, I1.congruences) for sm in self.OPTIONS]
        closed = [count_sum_side(cs, 30) for cs in cells]
        with row_cache(self.OPTIONS[:3]) as rows:
            capped = [count_sum_side(cs, 30, cap=30) for cs in cells]
            assert not rows
            assert [count_sum_side(cs, 30) for cs in cells] == closed == capped
            assert len(rows) == 1
        assert partitions._rows is None


class TestEnumerateSumSide:
    def test_i1_at_three(self):
        assert enumerate_sum_side(I1, 3) == [(3,), (2, 1)]

    def test_null_partition(self):
        assert enumerate_sum_side(ConditionSet(), 0) == [()]

    def test_i3_at_three(self):
        assert enumerate_sum_side(I3, 3) == [(3,)]

    def test_lex_decreasing_order_and_validity(self):
        rng = random.Random(11)
        for _ in range(20):
            rules = {
                "min_part": rng.randrange(1, 3),
                "diffs": [(rng.randrange(1, 3), rng.randrange(0, 3))],
            }
            cs = conditions_from_rules(rules)
            n = rng.randrange(0, 12)
            got = enumerate_sum_side(cs, n)
            assert got == sorted(got, reverse=True)
            assert got == oracles.oracle_partitions(n, **rules)

    def test_length_matches_count(self):
        # the transfer sweep is an independent route that reaches past the
        # oracle's range
        for name in sorted(oracles.IDENTITY_RULES):
            cs = conditions_from_rules(oracles.IDENTITY_RULES[name])
            counts = count_sum_side(cs, 50)
            for n in range(51):
                assert _listing_text(cs, n).count("\n") == counts[n], (name, n)

    def test_seeded_rule_sets_past_the_oracle(self):
        # n = 30..40 is past the oracle's reach, so the count is the check:
        # these draws reuse states along many paths, loop a state into
        # itself by another copy of its last part, and track min_part
        # copies under max_mult
        rng = random.Random(4401)
        for k in range(40):
            rules = random_rules(rng) if k % 2 else wide_case(rng)[0]
            cs = conditions_from_rules(rules)
            n = rng.randrange(30, 41)
            text = _listing_text(cs, n)
            assert text.count("\n") == count_sum_side(cs, 40)[n], (rules, n)
            parts = [tuple(map(int, line.split("+"))) for line in text.splitlines()]
            assert all(a > b for a, b in zip(parts, parts[1:])), (rules, n)

    def test_benchmark_listings_are_pinned(self):
        # the listings the benchmark prints, byte for byte
        for name, n, lines, digest in (
            ("I5", 66, 56290, "d7de064273cbd031fa5d706b964b5a979ad7c5d35446a4a3b1fd0f808caa9368"),
            ("I1", 80, 35034, "7d8866374362b55557a51961afcb86a5c850bd7e565384e8c380137ff6770c1e"),
        ):
            text = _listing_text(BUILTIN_IDENTITIES[name].conditions, n)
            assert text.count("\n") == lines, name
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            enumerate_sum_side(I1, -1)

    def test_huge_multiplicity_cap_lists_small_n(self):
        # a cap far above n // min_part binds nothing: the lister's check
        # on min_part edges never fires
        cs = ConditionSet(smallest=SmallestPartRule(1, 10**9))
        assert len(enumerate_sum_side(cs, 5)) == 7

    def test_wide_window_with_large_gap_matches_oracle(self):
        # the window keeps six parts whatever their size; the states stay
        # few only because the kept parts of a partial partition sum to at
        # most n
        rules = {"congruences": [(6, 40, 0, 2)]}
        cs = conditions_from_rules(rules)
        for n in (0, 7, 30):
            want = oracles.oracle_partitions(n, **rules)
            assert enumerate_sum_side(cs, n) == want
            assert _listing_text(cs, n) == as_text(want)

    def test_random_rule_sets_match_oracle(self):
        # drawn as in the counting test, with negative and large gaps added
        rng = random.Random(90417)
        for _ in range(40):
            rules = {
                "min_part": rng.randrange(1, 4),
                "max_mult": rng.choice([None, 1, 2, 3]),
                "diffs": [
                    (rng.randrange(1, 4), rng.randrange(0, 4))
                    for _ in range(rng.randrange(0, 3))
                ],
                "congruences": [
                    (
                        rng.randrange(1, 5),
                        rng.choice([rng.randrange(-2, 6), rng.randrange(10, 50)]),
                        rng.randrange(0, mod),
                        mod,
                    )
                    for mod in (rng.randrange(2, 5),)
                    for _ in range(rng.randrange(0, 3))
                ],
            }
            cs = conditions_from_rules(rules)
            for n in range(21):
                want = oracles.oracle_partitions(n, **rules)
                assert _listing_text(cs, n) == as_text(want), (rules, n)
                assert enumerate_sum_side(cs, n) == want, (rules, n)


class TestCountWithCap:
    """count_sum_side with cap: the finitizations the recursions compute."""

    def test_cap_zero_is_constant_one(self):
        assert count_sum_side(I1, 6, cap=0).coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_sibling_fixture_caps(self):
        i2 = conditions_from_rules(oracles.IDENTITY_RULES["I2"])
        assert list(count_sum_side(i2, 6, cap=3)) == [1, 0, 1, 1, 0, 0, 1]
        assert list(count_sum_side(I3, 6, cap=3)) == [1, 0, 0, 1, 0, 0, 1]

    def test_first_family_cap_three(self):
        # enumeration puts the pair 3+3 at q^6; nothing reaches q^7 with
        # parts at most 3, so the top coefficient sits at q^6
        assert list(count_sum_side(I1, 7, cap=3)) == [1, 1, 1, 2, 1, 0, 1, 0]

    def test_agrees_with_uncapped_through_cap(self):
        for cap in range(0, 9):
            capped = count_sum_side(I1, 14, cap=cap)
            full = count_sum_side(I1, 14)
            for n in range(min(cap, 14) + 1):
                assert capped[n] == full[n]

    def test_matches_oracle_with_cap(self):
        rng = random.Random(314)
        for _ in range(15):
            rules = {
                "min_part": rng.randrange(1, 3),
                "diffs": [(rng.randrange(1, 4), rng.randrange(1, 4))],
                "congruences": [(1, 1, rng.randrange(0, 3), 3)],
            }
            cs = conditions_from_rules(rules)
            cap = rng.randrange(0, 7)
            got = list(count_sum_side(cs, 12, cap=cap))
            want = oracles.oracle_counts(12, cap=cap or None, **rules)
            if cap == 0:
                want = [1] + [0] * 12
            assert got == want, (rules, cap)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            count_sum_side(I1, 5, cap=-1)

    def test_large_parts_join_the_series_at_the_split_cap(self):
        # a part above _split_cap meets no other part of its partition, so
        # the series at that cap and one prefix sum give the full count
        rng = random.Random(8209)
        guarded = {"no reach": 0, "min_part above n/2": 0}
        for _ in range(400):
            rules = split_rules(rng)
            cs = conditions_from_rules(rules)
            reach = _window(cs)[1]
            for n in (0, 1, 2, 3, 5, 8, 13, 21, 30, 41):
                k = _split_cap(cs, n)
                assert 0 <= k <= n
                got = _add_large_parts(count_sum_side(cs, n, cap=k), k)
                assert got == count_sum_side(cs, n), (rules, n, k)
                guarded["no reach"] += reach < 0
                guarded["min_part above n/2"] += cs.min_part - 1 > (n + max(reach, 0)) // 2
        # both guards of the cap are exercised, not only the plain half
        assert min(guarded.values()) >= 200, guarded

    def test_split_cap_is_about_half_the_order(self):
        for name in ("I1", "I3", "I5"):
            cs = BUILTIN_IDENTITIES[name].conditions
            assert [_split_cap(cs, n) for n in (1, 2, 3, 4, 500, 2000)] == [
                1, 2, 2, 3, 251, 1001
            ], name
        assert _split_cap(ConditionSet(), 41) == 20
        assert _split_cap(conditions_from_rules({"min_part": 9}), 13) == 8
