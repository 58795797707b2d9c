"""Truncated series, the packed series kernel, and Euler factorization."""

import random

import oracles
import pytest

from sumside import (
    IntegralityError,
    ProductShape,
    TruncatedSeries,
    detect_period,
    euler_factorize,
    expand_product,
)
import sumside.series
from sumside.series import (
    _SEED,
    _certified,
    _factor,
    _mul,
    _period,
    _proposed,
    _regular_count,
    check_packed,
    pack,
    packed_bits,
    unpack,
)


class TestTruncatedSeries:
    def test_rejects_empty_without_order(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_rejects_non_integral_coefficients(self):
        # exact arithmetic: a float or a string is never converted
        for bad in (1.9, 1.0, "3"):
            with pytest.raises(TypeError):
                TruncatedSeries([1, bad])
        assert [type(c) for c in TruncatedSeries([True, 2]).coeffs] == [int, int]

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
            x = pack(coeffs, n, bits)
            check_packed(x, n, bits)
            assert unpack(x, n, bits) == TruncatedSeries(coeffs)

    def test_layout_puts_the_constant_term_in_the_top_digit(self):
        # coefficient s of a series through q^n sits at bits (n - s) * bits
        assert pack([1, 2, 3], 2, 4) == 1 << 8 | 2 << 4 | 3
        assert pack([1], 3, 4) == 1 << 12

    def test_right_shift_multiplies_by_a_power_of_q(self):
        rng = random.Random(20261019)
        for _ in range(60):
            n = rng.randrange(0, 40)
            bits = packed_bits(n)
            top = (1 << (bits - 1)) - 1
            coeffs = [rng.choice((0, 1, top, rng.randrange(top + 1))) for _ in range(n + 1)]
            x = pack(coeffs, n, bits)
            for k in range(n + 2):
                want = ([0] * k + coeffs)[: n + 1]
                assert unpack(x >> k * bits, n, bits) == TruncatedSeries(want), (n, k)

    def test_short_series_round_trips_with_zeros_on_top(self):
        for n in (0, 1, 5, 33):
            bits = packed_bits(n)
            for m in range(1, n + 2):
                coeffs = list(range(1, m + 1))
                x = pack(coeffs, n, bits)
                check_packed(x, n, bits)
                assert unpack(x, n, bits) == TruncatedSeries(coeffs + [0] * (n + 1 - m))

    def test_pack_rejects_more_terms_than_the_order(self):
        with pytest.raises(ValueError):
            pack([1, 2, 3], 1, packed_bits(1))

    def test_bits_bound_partition_counts(self):
        # p(n) for n = 0, 10, 100, 200 fits below the margin bit
        for n, p in ((0, 1), (10, 42), (100, 190569292), (200, 3972999029388)):
            assert p < 1 << (packed_bits(n) - 1)

    def test_width_without_a_repeat_bound_is_the_p_n_width(self):
        widths = {0: 2, 1: 5, 2: 7, 3: 8, 10: 13, 40: 25, 100: 39, 500: 84,
                  1000: 119, 2000: 167, 4000: 236}
        assert {n: packed_bits(n) for n in widths} == widths

    def test_width_with_a_repeat_bound(self):
        # b_3 and b_4 through q^500 and q^2000, plus the margin bit
        assert [packed_bits(500, 2), packed_bits(500, 3)] == [60, 64]
        assert [packed_bits(2000, 2), packed_bits(2000, 3)] == [126, 134]
        assert packed_bits(0, 1) == 2 and packed_bits(3, 2) == 3
        for n in (1, 10, 100, 1000):
            for d in (1, 2, 3, 5):
                assert packed_bits(n, d) <= packed_bits(n)

    def test_regular_counts_match_brute_force(self):
        # b_k(n) counts partitions with no part divisible by k, and by
        # Glaisher's theorem also those with no part repeated k or more times
        for n in range(31):
            parts = list(oracles.iter_partitions(n))
            for k in range(2, 6):
                no_multiple = sum(all(x % k for x in p) for p in parts)
                few_copies = sum(all(p.count(x) < k for x in p) for p in parts)
                assert _regular_count(k, n) == no_multiple == few_copies, (k, n)

    def test_check_packed_rejects_bad_ints(self):
        n, bits = 4, packed_bits(4)
        good = pack([1, 2, 3, 4, 5], n, bits)
        with pytest.raises(IntegralityError):
            check_packed(-good, n, bits)
        with pytest.raises(IntegralityError):
            check_packed(good | 1 << (2 * bits + bits - 1), n, bits)
        with pytest.raises(IntegralityError):
            check_packed(good | 1 << (n + 1) * bits, n, bits)
        with pytest.raises(IntegralityError):
            unpack(good - (6 << bits), n, bits)
        with pytest.raises(IntegralityError):
            # the constant term, in the top digit, wraps to 0 and carries out
            check_packed(good + (((1 << bits) - 1) << n * bits), n, bits)

    def test_check_packed_margins_follow_n_and_bits(self):
        # the margin mask is cached per (n, bits); each pair needs its own
        for n in (4, 5, 9):
            for bits in (packed_bits(n), packed_bits(n) + 3):
                good = pack(range(1, n + 2), n, bits)
                check_packed(good, n, bits)
                with pytest.raises(IntegralityError):
                    check_packed(good | 1 << (n * bits + bits - 1), n, bits)

    def test_pack_rejects_out_of_range_coefficients(self):
        bits = packed_bits(4)
        with pytest.raises(IntegralityError):
            pack([1, -1, 0], 2, bits)
        with pytest.raises(IntegralityError):
            pack([1, 1 << (bits - 1), 0], 2, bits)


class TestExponentSeries:
    """Euler exponents a_1..a_N travel as the series a_1 q + ... + a_N q^N,
    constant term 0, so a[m] is the exponent of the (1 - q^m) factor."""

    def test_index_m_is_a_m(self):
        # 1/((1-q)^5 (1-q^2)^6 (1-q^3)^7)
        a = euler_factorize(expand_product(TruncatedSeries([0, 5, 6, 7])))
        assert a[0] == 0
        assert a[1] == 5 and a[2] == 6 and a[3] == 7
        assert a.order == 3
        with pytest.raises(IndexError):
            a[4]

    def test_expand_rejects_a_nonzero_constant_term(self):
        # a coefficient series (constant term 1) is not an exponent series
        with pytest.raises(ValueError, match="constant term must be 0, got 1"):
            expand_product(TruncatedSeries([1, 1]))

    def test_truncate(self):
        a = TruncatedSeries([0, 1, 2, 3])
        assert a.truncate(2).coeffs == (0, 1, 2)
        assert euler_factorize(expand_product(a).truncate(2)) == a.truncate(2)
        with pytest.raises(ValueError):
            a.truncate(4)

    def test_equality(self):
        assert euler_factorize(TruncatedSeries([1, 1])) == TruncatedSeries([0, 1])
        assert TruncatedSeries([0, 1, 0]) != TruncatedSeries([0, 1, 1])


class TestEulerFactorize:
    def test_geometric_series_is_single_factor(self):
        # 1/(1-q) has every coefficient 1
        b = TruncatedSeries([1] * 11)
        assert euler_factorize(b).coeffs == (0, 1) + (0,) * 9

    def test_one_plus_q(self):
        # 1+q = (1-q^2)/(1-q)
        b = TruncatedSeries([1, 1] + [0] * 9)
        assert euler_factorize(b).coeffs == (0, 1, -1) + (0,) * 8

    def test_rogers_ramanujan_prefix(self):
        # partitions with parts differing by >= 2; counts of 0..20 computed
        # by brute force, factor to parts congruent to 1, 4 mod 5
        counts = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14, 17, 19, 23, 26, 31]
        exps = euler_factorize(TruncatedSeries(counts))
        assert exps.coeffs == tuple(1 if m % 5 in (1, 4) else 0 for m in range(21))

    def test_rejects_wrong_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            euler_factorize(TruncatedSeries([2, 1, 1]))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order"):
            euler_factorize(TruncatedSeries([1]))

    def test_integrality_error_is_arithmetic_error(self):
        assert issubclass(IntegralityError, ArithmeticError)

    def test_non_integral_exponent_raises(self, monkeypatch):
        # a log-derivative that leaves a remainder after the sieve peels the
        # divisors off c_3: 0 - 1*a_1 = -1 is not a multiple of 3
        monkeypatch.setattr(sumside.series, "_divide", lambda y, b, n: [0, 1, 1, 0])
        with pytest.raises(IntegralityError, match=r"exponent a_3 came out non-integral \(-1/3\)"):
            euler_factorize(TruncatedSeries([1, 1, 2, 3]))


def _naive_product(f, g, n):
    return [
        sum(f[i] * g[k - i] for i in range(max(0, k - len(g) + 1), min(k, len(f) - 1) + 1))
        for k in range(n + 1)
    ]


class TestSignedProduct:
    def test_products_at_the_width_bound(self):
        # Equal coefficients of equal sign make the middle product coefficient
        # reach the width bound min(len f, len g)*max|f|*max|g| exactly, so a
        # narrower digit or a missing sign bit corrupts it.  The magnitudes
        # put that bound's bit length on every residue mod 16: a slot is whole
        # bytes, and B, half a slot (X = 2^B), need not be.
        residues = set()
        for k in range(0, 48):
            for m in ((1 << k) - 1, 1 << k):
                for lf, lg in ((1, 1), (2, 3), (7, 7), (33, 12)):
                    residues.add((min(lf, lg) * max(m, 1) * (m + 1)).bit_length() % 16)
                    for sf, sg in ((1, 1), (1, -1), (-1, -1)):
                        f, g = [sf * m] * lf, [sg * (m + 1)] * lg
                        n = lf + lg - 2
                        assert _mul(f, g, n) == _naive_product(f, g, n)
        assert residues == set(range(16))

    def test_operands_with_empty_or_single_odd_half(self):
        # length 1 has no odd coefficient, length 2 one: X*F_o is 0 or one slot
        rng = random.Random(12)
        for lf in (1, 2):
            for lg in (1, 2, 3, 8):
                for mag in (1, 2**8 - 1, 2**31, 10**40):
                    f = [rng.choice((-mag, mag, rng.randrange(-mag, mag + 1))) for _ in range(lf)]
                    g = [rng.randrange(-mag, mag + 1) for _ in range(lg)]
                    for n in range(lf + lg + 2):
                        assert _mul(f, g, n) == _naive_product(f, g, n)
                        assert _mul(g, f, n) == _naive_product(g, f, n)

    def test_every_order_to_past_the_product(self):
        # odd and even n leave the odd half one slot shorter or equal
        rng = random.Random(2009)
        for lf, lg in ((3, 4), (5, 5), (16, 9), (40, 41)):
            for mag in (1, 10**6, 10**30):
                f = [rng.randrange(-mag, mag + 1) for _ in range(lf)]
                g = [rng.randrange(-mag, mag + 1) for _ in range(lg)]
                for n in range(lf + lg + 3):
                    assert _mul(f, g, n) == _naive_product(f, g, n), (lf, lg, n)

    @pytest.mark.parametrize("n", [128, 129, 500, 2001])
    def test_certificate_accepts_the_product_and_rejects_a_moved_term(self, n):
        # b dense in its head and sparse after, with terms at the split h
        # and at the end, so that y = b*x is cheap to form exactly
        rng = random.Random(n)
        h = n // 2
        b = [1] + [
            rng.randrange(-9, 10) if j < 64 or rng.random() < 0.02 else 0 for j in range(1, n)
        ]
        b[h - 1], b[h], b[n - 1] = 3, -5, 7
        x = [rng.randrange(-(2**70), 2**70) for _ in range(n)]
        y = [0] * n
        for j, bj in enumerate(b):
            if bj:
                for k in range(n - j):
                    y[j + k] += bj * x[k]
        assert _certified(y, b, x)
        for pos in (0, 1, h - 1, h, n - 2, n - 1):
            for d in (1, -1):
                moved = list(y)
                moved[pos] += d
                assert not _certified(moved, b, x), (pos, d)

    def test_zero_operand(self):
        big = 10**40
        assert _mul([big, -big, big], [0, 0], 4) == [0] * 5
        assert _mul([0], [-big, big], 1) == [0, 0]

    def test_seeded_signed_products(self):
        rng = random.Random(5150)
        for _ in range(200):
            lf, lg = rng.randrange(1, 40), rng.randrange(1, 40)
            mag = 10 ** rng.randrange(0, 41)
            f = [rng.randrange(-mag, mag + 1) for _ in range(lf)]
            g = [rng.choice((0, 1, -1, mag, -mag, rng.randrange(-mag, mag + 1))) for _ in range(lg)]
            n = rng.randrange(0, lf + lg + 3)
            assert _mul(f, g, n) == _naive_product(f, g, n)


def _single_factor(a1, order):
    """(1 - q)^(-a1) through q^order: every c_n, n >= 1, equals a1."""
    return expand_product(TruncatedSeries([0, a1] + [0] * (order - 1)))


def _periodic_product(profile, order):
    """The product with exponents profile repeated out to a_order."""
    return expand_product(ProductShape(len(profile), profile).exponents(order))


class TestFactorizeAgainstOracle:
    """Every route (the certified period and Newton's division) against the
    O(N^2) recurrence they replaced."""

    def test_every_order_to_140(self):
        # crosses the direct-recurrence size (64 terms), the first Newton
        # doublings (65..128 and 129..140 terms) and the certified route's
        # start (order 128)
        rng = random.Random(140)
        for order in range(1, 141):
            counts = [1] + [rng.randrange(0, 2 + order) for _ in range(order)]
            signed = [1] + [rng.randrange(-6, 7) for _ in range(order)]
            for coeffs in (counts, signed):
                got = euler_factorize(TruncatedSeries(coeffs))
                assert list(got)[1:] == oracles.oracle_factorize(coeffs), order

    def test_forty_digit_signed_coefficients(self):
        rng = random.Random(1040)
        big = 10**40
        cases = [
            [1] + [rng.randrange(-big, big + 1) for _ in range(order)]
            for order in (1, 2, 3, 40, 64, 65, 100)
        ] + [
            [1] + [rng.choice((0, 1, -1, 2, big, -big)) for _ in range(order)]
            for order in (63, 64, 65, 128, 129, 140)
        ]
        for coeffs in cases:
            got = euler_factorize(TruncatedSeries(coeffs))
            assert list(got)[1:] == oracles.oracle_factorize(coeffs), len(coeffs)

    def test_periodic_profile_round_trips_at_order_2000(self):
        profile = [2, -1, 0, 1, 1, 0, -1, 2, 0, 1, 0, 2]
        a = TruncatedSeries([0] + [profile[(m - 1) % len(profile)] for m in range(1, 2001)])
        assert euler_factorize(expand_product(a)) == a

    def test_exponent_2_to_the_32_plus_5(self):
        # every c_n is 2^32 + 5, past any 32-bit word
        b = _single_factor(2**32 + 5, 100)
        got = list(euler_factorize(b))
        assert got == [0, 2**32 + 5] + [0] * 99
        assert got[1:] == oracles.oracle_factorize(list(b))

    def test_exponents_near_2_to_the_31(self):
        for a1 in (2**31 - 2**29 - 1, 2**31 - 2**29, -(2**31) + 2**29, -(2**31) + 2**29 - 1):
            b = _single_factor(a1, 70)
            got = list(euler_factorize(b))
            assert got == [0, a1] + [0] * 69, a1
            assert got[1:] == oracles.oracle_factorize(list(b)), a1

    def test_wide_quotients(self):
        # c_n = a_1 + 2*a_2 on even n: past 2^29 on every n, and past 2^31
        # or a multiple of 2^32 plus a small number on the even ones
        heads = ([2**31 - 2**28, 1], [2**30, 2**30 + 3], [-(2**40), 7], [1] + [0] * 58 + [2**32])
        for head in heads:
            a = TruncatedSeries([0] + head + [0] * (100 - len(head)))
            b = expand_product(a)
            assert euler_factorize(b) == a, head[:2]
            assert list(a)[1:] == oracles.oracle_factorize(list(b)), head[:2]

    def test_aperiodic_small_exponents(self):
        rng = random.Random(500)
        a = TruncatedSeries([0] + [rng.randint(-3, 3) for _ in range(500)])
        b = expand_product(a)
        assert euler_factorize(b) == a
        assert list(a)[1:] == oracles.oracle_factorize(list(b))

    @pytest.mark.parametrize("order", [65, 66, 127, 128, 2000])
    def test_seeded_periodic_profiles(self, order):
        rng = random.Random(order)
        for _ in range(2):
            period = rng.randint(6, 24)
            profile = [rng.randint(-1, 2) for _ in range(period)]
            b = _periodic_product(profile, order)
            got = euler_factorize(b)
            assert got == ProductShape(period, profile).exponents(order)
            assert list(got)[1:] == oracles.oracle_factorize(list(b))


@pytest.fixture
def factor_calls(monkeypatch):
    """The order of every _factor call: the certified route's head (order
    _SEED - 1) and the general route, which factors the whole series."""
    calls = []
    real = sumside.series._factor
    monkeypatch.setattr(
        sumside.series, "_factor", lambda b: calls.append(len(b) - 1) or real(b)
    )
    return calls


class TestCertifiedRoute:
    """From order 2*_SEED on, a period that fits a_1..a_63 with at least 16
    checks is repeated out and certified by one exact product; anything the
    product does not prove takes the general route, whose results these
    match."""

    @pytest.mark.parametrize("order", [128, 129, 255, 256, 500])
    def test_periods_1_to_47_are_certified(self, order, factor_calls):
        rng = random.Random(order)
        for period in range(1, 48):
            profile = [rng.randint(-3, 3) for _ in range(period)]
            b = _periodic_product(profile, order)
            factor_calls.clear()
            got = euler_factorize(b)
            assert factor_calls == [_SEED - 1], period  # the head; no general route
            assert got == TruncatedSeries(_factor(b.coeffs)), period
            assert list(got)[1:] == oracles.oracle_factorize(list(b)), period

    @pytest.mark.parametrize("order", [64, 127])
    def test_below_twice_the_seed_the_general_route_runs(self, order, factor_calls):
        # no head is factored: the whole series goes to the division, with
        # the same exponents the certificate would give from 2*_SEED on
        rng = random.Random(order)
        for period in range(1, 48):
            profile = [rng.randint(-3, 3) for _ in range(period)]
            b = _periodic_product(profile, order)
            factor_calls.clear()
            got = euler_factorize(b)
            assert factor_calls == [order], period
            assert got == ProductShape(period, profile).exponents(order), period
            assert list(got)[1:] == oracles.oracle_factorize(list(b)), period

    def test_periods_at_order_2000(self, factor_calls):
        rng = random.Random(2000)
        for period in (1, 2, 12, 31, 47):
            profile = [rng.randint(-3, 3) for _ in range(period)]
            b = _periodic_product(profile, 2000)
            got = euler_factorize(b)
            assert got == TruncatedSeries(_factor(b.coeffs)), period
            if period == 47:
                assert list(got)[1:] == oracles.oracle_factorize(list(b))
        assert factor_calls == [_SEED - 1] * 5  # the heads only

    def test_period_48_is_not_proposed(self, factor_calls):
        # 63 - 48 = 15 checks are too few, so the general route runs
        profile = [0] * 47 + [1]
        b = _periodic_product(profile, 300)
        assert list(euler_factorize(b))[1:] == oracles.oracle_factorize(list(b))
        assert factor_calls == [_SEED - 1, 300]

    @pytest.mark.parametrize("delta", [1, -1, 2**32, -(2**32)])
    @pytest.mark.parametrize("order", [128, 500])
    def test_near_misses_fall_back(self, order, delta, factor_calls):
        # one coefficient past the prefix off by delta, in either half of
        # the certificate: the head still proposes the period, and the
        # product must refuse it
        rng = random.Random(order + delta)
        profile = [rng.randint(-3, 3) for _ in range(rng.randint(1, 47))]
        b = list(_periodic_product(profile, order))
        for j in (_SEED, _SEED + 1, order // 2, order // 2 + 1, order - 1, order):
            changed = list(b)
            changed[j] += delta
            factor_calls.clear()
            got = list(euler_factorize(TruncatedSeries(changed)))
            assert factor_calls == [_SEED - 1, order], j
            assert got[1:] == oracles.oracle_factorize(changed), j
            assert got == _factor(changed), j

    def test_near_miss_at_order_2000(self):
        b = list(_periodic_product([1, 0, -1, 2, 0, 1, 1, -1, 0, 2, 0, 1], 2000))
        b[1999] -= 1
        assert list(euler_factorize(TruncatedSeries(b)))[1:] == oracles.oracle_factorize(b)


class TestProposed:
    """The proposal step on its own, with the search's 80-term head and
    limit 64 at order 200: None when no period p <= limit fits the head,
    else b's exponents through its order, by the certificate or, when that
    fails, by the general route."""

    @staticmethod
    def proposal(b, limit=64):
        """_proposed(b, head, limit) for b's 80-term head a_0..a_80, which
        this module's own _factor computes, so that factor_calls records
        only the calls that _proposed makes."""
        return _proposed(b, _factor(b[:81]), limit)

    def test_none_when_no_period_fits(self, factor_calls):
        rng = random.Random(30)
        profile = [rng.randint(-3, 3) for _ in range(30)]
        periodic = list(_periodic_product(profile, 200))
        exponents = TruncatedSeries([0] + [rng.randint(-3, 3) for _ in range(200)])
        aperiodic = list(expand_product(exponents))
        assert _period(_factor(periodic[:81]), 64) == 30
        assert self.proposal(periodic, 29) is None
        assert self.proposal(aperiodic) is None
        assert factor_calls == []

    def test_a_passing_certificate_returns_the_repetition(self, factor_calls):
        rng = random.Random(64)
        for period in (1, 7, 30, 64):
            profile = [rng.randint(-3, 3) for _ in range(period)]
            b = list(_periodic_product(profile, 200))
            factor_calls.clear()
            got = self.proposal(b)
            assert factor_calls == [], period  # no division
            assert got == ProductShape(period, profile).exponents(200), period

    @pytest.mark.parametrize("delta", [1, -1])
    def test_a_near_miss_returns_the_exact_exponents(self, delta, factor_calls):
        # one coefficient past the head moved: the head still proposes the
        # period, the certificate refuses it, and the division answers
        rng = random.Random(delta)
        profile = [rng.randint(-3, 3) for _ in range(12)]
        b = list(_periodic_product(profile, 200))
        for j in (81, 100, 101, 199, 200):
            changed = list(b)
            changed[j] += delta
            factor_calls.clear()
            got = self.proposal(changed)
            assert factor_calls == [200], j
            assert list(got)[1:] == oracles.oracle_factorize(changed), j

    def test_a_longer_period_behind_a_failed_certificate(self, factor_calls):
        # period 64 with a_1..a_17 all equal to a_64, so that the head's
        # a_1..a_80 also fit period 63; two periods p < P can both fit them
        # only when p + P - gcd(p, P) > 80 (Fine and Wilf, "Uniqueness
        # theorems for periodic functions", Proc. AMS 16, 1965), as here.
        # The repetition of 63 fails its certificate, yet the series' true
        # period 64 <= limit must come back
        rng = random.Random(0)
        profile = [1] * 17 + [rng.randint(-3, 3) for _ in range(46)] + [1]
        b = list(_periodic_product(profile, 200))
        assert _period(_factor(b[:81]), 64) < 64
        factor_calls.clear()
        got = self.proposal(b)
        assert factor_calls == [200]
        assert got == ProductShape(64, profile).exponents(200)
        assert list(got)[1:] == oracles.oracle_factorize(b)
        assert detect_period(got, p_max=64, min_repeats=2).period == 64



class TestExpandProduct:
    def test_single_factor(self):
        a = TruncatedSeries([0, 1] + [0] * 9)
        assert expand_product(a).coeffs == (1,) * 11

    def test_residue_pattern_coefficient(self):
        # parts from {1, 3} below order 4: partitions of 3 are {3} and {1,1,1}
        a = TruncatedSeries([0] + [1 if m % 9 in (1, 3, 6, 8) else 0 for m in (1, 2, 3)])
        assert expand_product(a)[3] == 2

    def test_negative_exponent(self):
        # (1-q)^2 / (1-q) = 1 - q
        a = TruncatedSeries([0, -1, 0, 0])
        assert expand_product(a).coeffs == (1, -1, 0, 0)

    def test_matches_stride_oracle_at_every_order_to_300(self):
        # b_0..b_N depend on a_1..a_N alone, so one oracle expansion to 300
        # checks every shorter order; the orders cross the leaf size (32 terms)
        # and every split point of the divide and conquer
        rng = random.Random(300)
        for weights in ((1,) * 7, (1, 1, 1, 9, 1, 1, 1)):  # the second mostly 0
            exps = rng.choices(range(-3, 4), weights=weights, k=300)
            want = oracles.oracle_expand_product(exps)
            for order in range(1, 301):
                got = expand_product(TruncatedSeries([0] + exps[:order]))
                assert list(got) == want[: order + 1], order

    def test_matches_stride_oracle_on_fresh_sequences(self):
        rng = random.Random(301)
        for order in (1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200):
            exps = [rng.randrange(-3, 4) for _ in range(order)]
            got = expand_product(TruncatedSeries([0] + exps))
            assert list(got) == oracles.oracle_expand_product(exps), order

    def test_round_trip_seeded_exponents_at_order_2000(self):
        rng = random.Random(2000)
        a = TruncatedSeries([0] + [rng.randrange(-3, 4) for _ in range(2000)])
        assert euler_factorize(expand_product(a)) == a

    def test_inexact_division_raises(self, monkeypatch):
        # a block product that is off by one leaves a remainder at the first
        # index it feeds, which must raise rather than round
        real = sumside.series._mul

        def off_by_one(f, g, n):
            return [t + 1 for t in real(f, g, n)]

        monkeypatch.setattr(sumside.series, "_mul", off_by_one)
        with pytest.raises(IntegralityError, match="non-integral"):
            expand_product(TruncatedSeries([0] + [1] * 100))

    def test_round_trip_seeded_sample(self):
        rng = random.Random(1729)
        for _ in range(60):
            order = rng.randrange(1, 24)
            exps = [rng.randrange(-3, 4) for _ in range(order)]
            a = TruncatedSeries([0] + exps)
            assert euler_factorize(expand_product(a)) == a


class TestPrefixStability:
    def test_always_true_on_random_series(self):
        rng = random.Random(9)
        for _ in range(25):
            order = rng.randrange(2, 16)
            coeffs = [1] + [rng.randrange(-5, 6) for _ in range(order)]
            b = TruncatedSeries(coeffs)
            full = euler_factorize(b)
            for k in range(1, order + 1):
                assert euler_factorize(b.truncate(k)) == full.truncate(k)

    def test_rogers_ramanujan_prefix_at_ten(self):
        counts = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14, 17, 19, 23, 26, 31]
        b = TruncatedSeries(counts)
        assert euler_factorize(b.truncate(10)) == euler_factorize(b).truncate(10)

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
            assert full.coeffs[:order] == other.coeffs[:order]
            assert full[order] != other[order]

