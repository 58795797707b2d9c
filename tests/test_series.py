"""Truncated series, the packed series kernel, and Euler factorization."""

import random

import pytest

from sumside import (
    ExponentSequence,
    IntegralityError,
    TruncatedSeries,
    euler_factorize,
    expand_product,
    prefix_stability_check,
)
from sumside.series import check_packed, pack, packed_bits, unpack


class TestTruncatedSeries:
    def test_pads_to_order(self):
        s = TruncatedSeries([1, 2], order=4)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert s.order == 4

    def test_rejects_overflowing_order(self):
        with pytest.raises(ValueError, match="truncate"):
            TruncatedSeries([1, 2, 3], order=1)

    def test_rejects_empty_without_order(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1], order=-1)

    def test_indexing_and_iteration(self):
        s = TruncatedSeries([3, 1, 4])
        assert s[0] == 3 and s[2] == 4
        assert list(s) == [3, 1, 4]
        assert len(s) == 3

    def test_equality_and_hash(self):
        assert TruncatedSeries([1, 2]) == TruncatedSeries([1, 2])
        assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])
        assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))

    def test_truncate(self):
        s = TruncatedSeries([1, 2, 3, 4])
        assert s.truncate(1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            s.truncate(4)


class TestPackedKernel:
    def test_round_trip_seeded_sample(self):
        rng = random.Random(20261018)
        for _ in range(60):
            n = rng.randrange(0, 40)
            bits = packed_bits(n)
            top = (1 << (bits - 1)) - 1
            coeffs = [
                rng.choice((0, 1, top, rng.randrange(top + 1))) for _ in range(n + 1)
            ]
            coeffs[rng.randrange(n + 1)] = top
            x = pack(coeffs, bits)
            check_packed(x, n, bits)
            assert unpack(x, n, bits) == TruncatedSeries(coeffs)

    def test_bits_bound_partition_counts(self):
        # p(n) for n = 0, 10, 100, 200 fits below the margin bit
        for n, p in ((0, 1), (10, 42), (100, 190569292), (200, 3972999029388)):
            assert p < 1 << (packed_bits(n) - 1)

    def test_check_packed_rejects_bad_ints(self):
        n, bits = 4, packed_bits(4)
        good = pack([1, 2, 3, 4, 5], bits)
        with pytest.raises(IntegralityError):
            check_packed(-good, n, bits)
        with pytest.raises(IntegralityError):
            check_packed(good | 1 << (2 * bits + bits - 1), n, bits)
        with pytest.raises(IntegralityError):
            check_packed(good | 1 << (n + 1) * bits, n, bits)
        with pytest.raises(IntegralityError):
            unpack(good - (6 << bits), n, bits)

    def test_pack_rejects_out_of_range_coefficients(self):
        bits = packed_bits(4)
        with pytest.raises(IntegralityError):
            pack([1, -1, 0], bits)
        with pytest.raises(IntegralityError):
            pack([1, 1 << (bits - 1), 0], bits)


class TestExponentSequence:
    def test_one_based_indexing(self):
        a = ExponentSequence([5, 6, 7])
        assert a[1] == 5 and a[3] == 7
        assert a.order == 3
        with pytest.raises(IndexError):
            a[0]
        with pytest.raises(IndexError):
            a[4]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExponentSequence([])

    def test_truncate(self):
        a = ExponentSequence([1, 2, 3])
        assert a.truncate(2).exps == (1, 2)
        with pytest.raises(ValueError):
            a.truncate(0)

    def test_equality(self):
        assert ExponentSequence([1, 0]) == ExponentSequence([1, 0])
        assert ExponentSequence([1, 0]) != ExponentSequence([1, 1])


class TestEulerFactorize:
    def test_geometric_series_is_single_factor(self):
        # 1/(1-q) has every coefficient 1
        b = TruncatedSeries([1] * 11)
        assert euler_factorize(b).exps == (1,) + (0,) * 9

    def test_one_plus_q(self):
        # 1+q = (1-q^2)/(1-q)
        b = TruncatedSeries([1, 1] + [0] * 9)
        assert euler_factorize(b).exps == (1, -1) + (0,) * 8

    def test_rogers_ramanujan_prefix(self):
        # partitions with parts differing by >= 2; counts of 0..20 computed
        # by brute force, factor to parts congruent to 1, 4 mod 5
        counts = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14, 17, 19, 23, 26, 31]
        exps = euler_factorize(TruncatedSeries(counts))
        assert exps.exps == tuple(
            1 if m % 5 in (1, 4) else 0 for m in range(1, 21)
        )

    def test_rejects_wrong_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            euler_factorize(TruncatedSeries([2, 1, 1]))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order"):
            euler_factorize(TruncatedSeries([1]))

    def test_integrality_error_is_arithmetic_error(self):
        assert issubclass(IntegralityError, ArithmeticError)


class TestExpandProduct:
    def test_single_factor(self):
        a = ExponentSequence([1] + [0] * 9)
        assert expand_product(a).coeffs == (1,) * 11

    def test_residue_pattern_coefficient(self):
        # parts from {1, 3} below order 4: partitions of 3 are {3} and {1,1,1}
        a = ExponentSequence([1 if m % 9 in (1, 3, 6, 8) else 0 for m in (1, 2, 3)])
        assert expand_product(a)[3] == 2

    def test_negative_exponent(self):
        # (1-q)^2 / (1-q) = 1 - q
        a = ExponentSequence([-1, 0, 0])
        assert expand_product(a).coeffs == (1, -1, 0, 0)

    def test_round_trip_seeded_sample(self):
        rng = random.Random(1729)
        for _ in range(60):
            order = rng.randrange(1, 24)
            exps = [rng.randrange(-3, 4) for _ in range(order)]
            a = ExponentSequence(exps)
            assert euler_factorize(expand_product(a)) == a


class TestPrefixStability:
    def test_always_true_on_random_series(self):
        rng = random.Random(9)
        for _ in range(25):
            order = rng.randrange(2, 16)
            coeffs = [1] + [rng.randrange(-5, 6) for _ in range(order)]
            b = TruncatedSeries(coeffs)
            for k in range(1, order + 1):
                assert prefix_stability_check(b, k)

    def test_rogers_ramanujan_prefix_at_ten(self):
        counts = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14, 17, 19, 23, 26, 31]
        assert prefix_stability_check(TruncatedSeries(counts), 10)

    def test_tail_perturbation_leaves_prefix_exponents(self):
        rng = random.Random(77)
        for _ in range(20):
            order = rng.randrange(3, 14)
            coeffs = [1] + [rng.randrange(-4, 5) for _ in range(order)]
            b = TruncatedSeries(coeffs)
            perturbed = list(coeffs)
            perturbed[-1] += rng.randrange(1, 5)
            b2 = TruncatedSeries(perturbed)
            full = euler_factorize(b)
            other = euler_factorize(b2)
            assert full.exps[: order - 1] == other.exps[: order - 1]
            assert full.exps[order - 1] != other.exps[order - 1]

    def test_rejects_out_of_range_k(self):
        b = TruncatedSeries([1, 1, 1])
        with pytest.raises(ValueError):
            prefix_stability_check(b, 0)
        with pytest.raises(ValueError):
            prefix_stability_check(b, 3)
