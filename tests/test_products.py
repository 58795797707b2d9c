"""Periodic product shapes: detection, description, symmetry."""

import random
from itertools import product

import pytest

from sumside import (
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    ProductShape,
    TruncatedSeries,
    count_sum_side,
    describe,
    detect_period,
    euler_factorize,
    expand_product,
)


class TestProductShape:
    def test_profile_length_must_match_period(self):
        with pytest.raises(ValueError):
            ProductShape(period=3, exponent_profile=(1, 0))

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="period must be >= 1"):
            ProductShape(0, ())
        # a float or a bool period is refused, as a rule's fields are
        with pytest.raises(ValueError, match="period must be an integer"):
            ProductShape(2.0, (1, 0))
        with pytest.raises(ValueError, match="period must be an integer"):
            ProductShape(True, (1,))

    def test_profile_entries_must_be_integers(self):
        # exact arithmetic: 1.9 or "1" is never truncated or parsed to 1,
        # and True is not stored as 1; the entry is named by its index
        for bad in (1.9, 1.0, "1", True):
            message = rf"^exponent_profile\[1\] must be an integer, got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                ProductShape(2, (0, bad))
        assert ProductShape(2, [1, 0]).exponent_profile == (1, 0)

    def test_binary_and_residues(self):
        shape = ProductShape(period=5, exponent_profile=(1, 0, 0, 1, 0))
        assert shape.binary
        assert shape.residues == frozenset({1, 4})

    def test_residues_reject_non_binary(self):
        shape = ProductShape(period=2, exponent_profile=(2, 0))
        assert not shape.binary
        with pytest.raises(ValueError):
            shape.residues

    def test_from_residues(self):
        shape = ProductShape.from_residues(9, {1, 3, 6, 8})
        assert shape.exponent_profile == (1, 0, 1, 0, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            ProductShape.from_residues(9, {0})
        with pytest.raises(ValueError):
            ProductShape.from_residues(9, {10})
        # a residue that is not an integer is named, not left out
        for bad in (1.5, "1", True):
            message = rf"^residues\[0\] must be an integer, got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                ProductShape.from_residues(9, {bad})
        # the period is checked before the residues are held against it
        with pytest.raises(ValueError, match="period must be an integer, got 9.0"):
            ProductShape.from_residues(9.0, {1})
        with pytest.raises(ValueError, match="period must be >= 1"):
            ProductShape.from_residues(0, {1})

    def test_exponents_extend_periodically(self):
        shape = ProductShape.from_residues(5, {1, 4})
        exps = shape.exponents(12)
        # the exponent series: constant term 0, then a_1..a_12
        assert exps.coeffs == (0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0)

    def test_exponents_start_at_order_zero(self):
        # order 0 is the series 0, whose product is 1
        exps = ProductShape(1, (1,)).exponents(0)
        assert exps.coeffs == (0,)
        assert expand_product(exps).coeffs == (1,)
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            ProductShape(1, (1,)).exponents(-1)


class TestDetectPeriod:
    def test_rogers_ramanujan_pattern(self):
        profile = (1, 0, 0, 1, 0)
        exps = ProductShape(5, profile).exponents(30)
        shape = detect_period(exps)
        assert shape is not None
        assert shape.period == 5
        assert shape.residues == frozenset({1, 4})

    def test_all_zero_collapses_to_period_one(self):
        exps = ProductShape(3, (0, 0, 0)).exponents(30)
        shape = detect_period(exps)
        assert shape == ProductShape(1, (0,))

    def test_first_family_mod_nine(self):
        cs = ConditionSet(
            diffs=(DiffDistRule(2, 3),), congruences=(CongruenceRule(1, 1, 0, 3),)
        )
        shape = detect_period(euler_factorize(count_sum_side(cs, 30)))
        assert shape is not None
        assert shape.period == 9
        assert shape.residues == frozenset({1, 3, 6, 8})

    def test_reports_minimal_period(self):
        # period 3 repeated is also period 6; the smaller one must win
        exps = ProductShape(3, (1, 0, 2)).exponents(24)
        shape = detect_period(exps)
        assert shape.period == 3

    def test_planted_periods_recovered(self):
        rng = random.Random(90210)
        for _ in range(40):
            p = rng.randrange(1, 13)
            profile = tuple(rng.randrange(-2, 3) for _ in range(p))
            exps = ProductShape(p, profile).exponents(4 * p + rng.randrange(0, 9))
            shape = detect_period(exps)
            assert shape is not None
            # the found period divides the planted one
            assert p % shape.period == 0
            assert shape.exponents(exps.order) == exps

    def test_aperiodic_returns_none(self):
        # strictly increasing exponents a_m = m, so no period can hold
        exps = TruncatedSeries(range(31))
        assert detect_period(exps, p_max=10) is None

    def test_rejects_a_coefficient_series(self):
        # 1/(1-q) has coefficients 1, 1, 1, ... but exponents 0, 1, 0, 0, ...
        with pytest.raises(ValueError, match="^constant term must be 0, got 1$"):
            detect_period(TruncatedSeries([1] * 11))

    def test_min_repeats_limits_candidates(self):
        # period 4 pattern over order 7 cannot repeat twice
        exps = ProductShape(4, (1, 2, 3, 4)).exponents(7)
        assert detect_period(exps, min_repeats=2) is None

    def test_order_too_small_raises(self):
        exps = ProductShape(1, (1,)).exponents(1)
        with pytest.raises(ValueError):
            detect_period(exps, min_repeats=2)

    @pytest.mark.parametrize(
        "thresholds, message",
        [
            (dict(p_max=0), "p_max must be >= 1"),
            (dict(min_repeats=0), "min_repeats must be >= 1"),
            # the grid's message: a sequence shorter than min_repeats
            (
                dict(min_repeats=11),
                "^order 10 is below min_repeats 11, too short to certify any period$",
            ),
            # the grid's type check: range() would refuse them with a TypeError
            (dict(p_max=2.5), "^p_max must be an integer, got 2.5$"),
            (dict(min_repeats=True), "^min_repeats must be an integer, got True$"),
        ],
    )
    def test_thresholds_below_one_raise(self, thresholds, message):
        exps = ProductShape(1, (1,)).exponents(10)
        with pytest.raises(ValueError, match=message):
            detect_period(exps, **thresholds)


class TestDescribe:
    def test_residue_style(self):
        shape = ProductShape.from_residues(9, {2, 3, 5, 8})
        assert describe(shape) == "parts ≡ 2, 3, 5, 8 (mod 9)"

    def test_all_parts(self):
        shape = ProductShape.from_residues(2, {1, 2})
        assert describe(shape) == "all parts allowed"

    def test_no_parts(self):
        shape = ProductShape(1, (0,))
        assert describe(shape) == "no parts allowed"

    def test_non_binary_flagged(self):
        shape = ProductShape(2, (2, 0))
        assert "non-partition-style" in describe(shape)


class TestSymmetryClassify:
    """ProductShape.symmetric: the residue set closed under r -> p - r."""

    def test_symmetric_residue_set(self):
        assert ProductShape.from_residues(9, {1, 3, 6, 8}).symmetric is True

    def test_asymmetric_residue_set(self):
        assert ProductShape.from_residues(9, {2, 3, 5, 8}).symmetric is False

    def test_empty_set_is_symmetric(self):
        assert ProductShape(4, (0, 0, 0, 0)).symmetric is True

    def test_residue_equal_to_period_self_mirrors(self):
        assert ProductShape.from_residues(4, {2, 4}).symmetric is True

    def test_every_binary_profile_follows_the_mirror_rule(self):
        # r mirrors to p - r, and the class 0 (residue p) to itself
        for p in range(1, 11):
            for profile in product((0, 1), repeat=p):
                shape = ProductShape(p, profile)
                rs = shape.residues
                mirrored = {p - r if r < p else p for r in rs}
                assert shape.symmetric is (mirrored == rs), shape

    def test_non_binary_raises(self):
        with pytest.raises(ValueError, match="only defined for binary profiles"):
            ProductShape(2, (2, 0)).symmetric
