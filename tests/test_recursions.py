"""Recursion families against direct enumeration, and identity verification."""

import hashlib
import itertools
import warnings

import pytest

import oracles
import sumside.recursions
from sumside import (
    BUILTIN_IDENTITIES,
    ConditionSet,
    IdentitySpec,
    IntegralityError,
    ProductShape,
    SmallestPartRule,
    TruncatedSeries,
    capped_polynomial,
    coefficient_digest,
    count_sum_side,
    expand_product,
    initial_state,
    verify_identity,
)
from sumside._record import replace
from sumside.partitions import _add_large_parts, _repeat_bound, _split_cap
from sumside.recursions import FAMILIES, _Family, _first_mismatch, _Term
from sumside.series import _regular_count, packed_bits, unpack

FAMILY_IDENTITY = {
    spec.recursion_family: spec for spec in BUILTIN_IDENTITIES.values()
}


def combine(order, *terms) -> list[int]:
    """Coefficients through q^order of sum(sign * q^shift * f) over the
    (f, shift, sign) terms, worked out on coefficient lists."""
    out = [0] * (order + 1)
    for f, shift, sign in terms:
        for i, c in enumerate(f):
            if i + shift <= order:
                out[i + shift] += sign * c
    return out


def first_step(name: str) -> int:
    return FAMILIES[name].start + len(FAMILIES[name].initial)


def direct_report(spec: IdentitySpec, order: int, method: str = "recursion") -> dict:
    """The report's fields but elapsed_ms by the direct route: the family
    stepped to cap order, the product expanded, and every series compared
    coefficientwise.  The sweep is the module's count_sum_side, so a test
    that patches it patches this route too."""
    family = spec.recursion_family
    sums = []
    if family is not None:
        sums.append(capped_polynomial(family, order, order=order)[-1])
    if family is None or method == "both":
        sums.append(sumside.recursions.count_sum_side(spec.conditions, order))
    product = expand_product(spec.shape.exponents(order))
    mismatch = _first_mismatch(product, *sums)
    split = _first_mismatch(*sums) if method == "both" else None
    return {
        "identity": spec.name,
        "order": order,
        "method": method if family is not None else "enumeration",
        "match": mismatch is None,
        "first_mismatch": mismatch,
        "sum_digest": coefficient_digest(sums[0]),
        "product_digest": coefficient_digest(product),
        "warnings": () if split is None else (
            f"recursion and enumeration sum sides disagree first at q^{split}",
        ),
    }


def report_fields(spec: IdentitySpec, order: int, method: str = "recursion") -> dict:
    """verify_identity's report as a dict, every field but elapsed_ms."""
    fields = dict(verify_identity(spec, order, method).__dict__)
    del fields["elapsed_ms"]
    return fields


def trim(series: TruncatedSeries) -> list[int]:
    coeffs = list(series)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class TestFamilyGeometry:
    def test_registry(self):
        # (phases, registers, window, first step), all derived from the data
        geometry = {
            name: (
                len(fam.tables),
                len(fam.initial[0]),
                len(fam.initial),
                first_step(name),
            )
            for name, fam in FAMILIES.items()
        }
        assert geometry == {
            "P1": (3, 1, 4, 4),
            "P2": (3, 1, 4, 4),
            "P3": (3, 1, 4, 4),
            "Q": (3, 1, 4, 4),
            "R": (1, 2, 4, 5),
            "S": (1, 2, 3, 4),
        }

    def test_every_family_is_wired_to_an_identity(self):
        assert set(FAMILY_IDENTITY) == set(FAMILIES)

    def test_initial_state_truncates(self):
        state = initial_state("P1", 3)
        assert state.index == 3
        assert unpack(state.registers[-1][0], state.order, state.bits).coeffs == (1, 1, 1, 2)

    def test_initial_state_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            initial_state("P1", -1)

    @pytest.mark.parametrize(
        "defect",
        ["initial-width", "phase-width", "register", "exponent", "empty"],
    )
    def test_check_tables_rejects_inconsistent_families(self, defect):
        # the window, register count and first step are derived from the
        # data, so a family must hold the data to them when it is built
        fam = FAMILIES["S"]
        ((reg0, reg1),) = fam.tables
        change, message = {
            "initial-width": ({"initial": (((1,),),) + fam.initial[1:]}, "register counts"),
            "phase-width": ({"tables": ((reg0,),)}, "register counts"),
            "register": (
                {"tables": ((reg0 + (replace(reg0[0], register=2),), reg1),)},
                "register 2",
            ),
            "exponent": (
                {"tables": ((reg0 + (replace(reg0[0], exponent=(2, 0)),), reg1),)},
                "factored exponent",
            ),
            "empty": ({"initial": ()}, "at least one initial entry"),
        }[defect]
        with pytest.raises(ValueError, match=message):
            replace(fam, **change)


class TestStepGuards:
    def test_first_step_index_per_family(self):
        assert initial_state("P1", 10).index + 1 == first_step("P1") == 4
        assert initial_state("Q", 10).index + 1 == first_step("Q") == 4
        assert initial_state("R", 10).index + 1 == first_step("R") == 5
        assert initial_state("S", 10).index + 1 == first_step("S") == 4

    def test_step_below_first_index(self):
        with pytest.raises(ValueError, match="defined from cap 1"):
            capped_polynomial("R", 0)

    def test_step_with_short_window(self):
        # S keeps three indices; a term reaching back four is refused
        fam = FAMILIES["S"]
        ((reg0, reg1),) = fam.tables
        far = reg0 + (replace(reg0[0], back=4),)
        with pytest.raises(ValueError, match="back-reference 4"):
            replace(fam, tables=((far, reg1),))

    def test_negative_minus_term_raises(self, monkeypatch):
        # R's register 0 at index 5 subtracts q^15 times its cap 1 value;
        # inflating that value drives the q^15 coefficient to 3 - 5 < 0
        fam = FAMILIES["R"]
        bad = replace(fam, initial=(((5, 1), (1, 1)),) + fam.initial[1:])
        monkeypatch.setitem(FAMILIES, "R", bad)
        with pytest.raises(IntegralityError):
            capped_polynomial("R", 5, order=20)

    def test_negative_register_before_the_last_step_raises(self, monkeypatch):
        # reg_k = reg_(k-1) - reg_(k-2) from 1, 1 runs 0, -1, -1, 0: index 3
        # is negative, yet the register at cap 5 is a valid (zero) series, so
        # only the check of every stepped register can raise
        term = _Term(back=1, register=0, sign=1, factors=(), exponent=(0, 0))
        minus = replace(term, back=2, sign=-1)
        family = _Family(tables=(((term, minus),),), start=0, initial=(((1,),), ((1,),)))
        monkeypatch.setitem(FAMILIES, "P1", family)
        with pytest.raises(IntegralityError):
            capped_polynomial("P1", 5, order=3)


class TestInitialPolynomials:
    def test_single_register_families_match_capped_counts(self):
        for name in ("P1", "P2", "P3", "Q"):
            conds, fam = FAMILY_IDENTITY[name].conditions, FAMILIES[name]
            for cap, (coeffs,) in enumerate(fam.initial, fam.start):
                deg = len(coeffs) - 1
                assert list(count_sum_side(conds, deg, cap=cap)) == list(coeffs), (name, cap)

    def test_two_register_families_match_oracle(self):
        for name, rules_key in (("R", "I5"), ("S", "I6")):
            rules, fam = oracles.IDENTITY_RULES[rules_key], FAMILIES[name]
            for cap, registers in enumerate(fam.initial, fam.start):
                for mult, coeffs in zip((1, 2), registers):
                    deg = len(coeffs) - 1
                    got = oracles.oracle_counts(deg, cap=cap, mult_of_cap=mult, **rules)
                    assert got == list(coeffs), (name, cap, mult)


class TestRecursionVsEnumeration:
    def test_single_register_families(self):
        for name in ("P1", "P2", "P3", "Q"):
            conds = FAMILY_IDENTITY[name].conditions
            for cap in range(4, 13):
                poly = capped_polynomial(name, cap)[0]
                assert poly == count_sum_side(conds, poly.order, cap=cap), (name, cap)

    def test_two_register_sum_register(self):
        for name in ("R", "S"):
            conds = FAMILY_IDENTITY[name].conditions
            for cap in range(first_step(name), 11):
                poly = capped_polynomial(name, cap)[1]
                assert poly == count_sum_side(conds, poly.order, cap=cap), (name, cap)

    def test_two_register_restricted_register(self):
        # register 0 admits the largest part at most once
        for name, rules_key in (("R", "I5"), ("S", "I6")):
            rules = oracles.IDENTITY_RULES[rules_key]
            for cap in range(first_step(name), 9):
                poly = capped_polynomial(name, cap)[0]
                want = oracles.oracle_counts(24, cap=cap, mult_of_cap=1, **rules)
                assert list(poly.truncate(24)) == want, (name, cap)

    def test_register_domination(self):
        # allowing the largest part twice can only add partitions
        for name in ("R", "S"):
            for cap in range(first_step(name), 11):
                once, twice = capped_polynomial(name, cap)
                assert all(a <= b for a, b in zip(once, twice)), (name, cap)

    def test_stabilization(self):
        # coefficients below the cap are settled and never move again
        for name in FAMILIES:
            prev = None
            for cap in range(first_step(name), 14):
                cur = capped_polynomial(name, cap, order=20)[-1]
                if prev is not None:
                    k = min(cap - 1, 20)
                    assert prev.truncate(k) == cur.truncate(k), (name, cap)
                prev = cur

    def test_truncated_advance_matches_exact(self):
        for name in FAMILIES:
            small = capped_polynomial(name, 10, order=15)
            exact = capped_polynomial(name, 10)
            assert small == tuple(reg.truncate(15) for reg in exact), name

    def test_every_cap_from_the_first_initial_index(self):
        # caps below the first step are the initial polynomials themselves
        for name, fam in FAMILIES.items():
            spec = FAMILY_IDENTITY[name]
            for cap in range(fam.start, 13):
                registers = capped_polynomial(name, cap, order=30)
                want = count_sum_side(spec.conditions, 30, cap=cap)
                assert registers[-1] == want, (name, cap)
                if len(registers) == 2:
                    rules = oracles.IDENTITY_RULES[spec.name]
                    want = oracles.oracle_counts(30, cap=cap, mult_of_cap=1, **rules)
                    assert list(registers[0]) == want, (name, cap)


class TestFrozenPolynomials:
    def test_first_family_cap_four(self):
        assert trim(capped_polynomial("P1", 4)[0]) == [1, 1, 1, 2, 2, 1, 2, 1]

    def test_q_family_cap_five(self):
        assert trim(capped_polynomial("Q", 5)[0]) == [1, 0, 1, 1, 1, 2, 1, 1, 2, 0, 1]

    def test_r_family_cap_five_register_zero(self):
        assert trim(capped_polynomial("R", 5)[0]) == [
            1, 1, 1, 2, 3, 3, 4, 5, 5, 5, 5, 5, 4, 3, 2, 2, 1,
        ]

    def test_phase_two_step_combines_two_predecessors(self):
        # at index 5 the new polynomial is built from indices 4 and 3 only
        order = 40
        q5, q4, q3 = (capped_polynomial("Q", cap, order=order)[0] for cap in (5, 4, 3))
        assert q5 == TruncatedSeries(combine(order, (q4, 0, +1), (q3, 5, +1)))

    def test_minus_term_step(self):
        # register 0 at index 5 subtracts a q^15 multiple of the cap 1 value
        order = 40
        r42 = capped_polynomial("R", 4, order=order)[1]
        r11 = FAMILIES["R"].initial[0][0]
        want = combine(order, (r42, 0, +1), (r42, 5, +1), (r11, 15, -1))
        assert capped_polynomial("R", 5, order=order)[0] == TruncatedSeries(want)


class TestSumSideViaRecursion:
    def test_matches_direct_count(self):
        # the family at cap 25 carries the full sum side through q^25
        for name in FAMILIES:
            conds = FAMILY_IDENTITY[name].conditions
            poly = capped_polynomial(name, 25, order=25)[-1]
            assert poly == count_sum_side(conds, 25), name

    def test_matches_direct_count_at_order_1000(self):
        # both engines, each pinned to the digest of the full sum side
        digests = {
            "I1": "f3fc4560f6f44e56c5fd64a1294c9dc8c5351b596b0918f94b8419bdf6ac3775",
            "I2": "8d19e653090132f1206245aab79cf7109844cf92fc8b6a6aa45e163372dc8a2a",
            "I3": "c745db0b669c66f6334dca7a7c73ff70ba8b1cd6c7edbf6f94692dc452157a41",
            "I4": "2eb7ff2e1226de762561a98655d2964a1fcbf8d481fe8227877b835180482605",
            "I5": "7ef37c7ff1ee31e49ad8aa69279e1a668c325171bec97c65ba4b0a0b031beebf",
            "I6": "1e54754f7fa9fff3e67343d35e11704e46cf12922c5815ffc6081d56e746342b",
        }
        for name, spec in BUILTIN_IDENTITIES.items():
            poly = capped_polynomial(spec.recursion_family, 1000, order=1000)[-1]
            swept = count_sum_side(spec.conditions, 1000)
            assert poly == swept, name
            assert coefficient_digest(poly) == coefficient_digest(swept) == digests[name], name


# linear parts (d, e) of oracles.oracle_double_sum that give I1-I4's sum sides
DOUBLE_SUM_PARTS = {"I1": (0, 0), "I2": (1, 3), "I3": (2, 3), "I4": (1, 2)}


class TestDoubleSums:
    """A third sum-side route for I1-I4: a double sum in plain ints, which
    reads no rule and no recursion table."""

    @pytest.mark.parametrize("name", sorted(DOUBLE_SUM_PARTS))
    def test_brute_force_oracle_at_order_20(self, name):
        want = oracles.oracle_counts(20, **oracles.IDENTITY_RULES[name])
        assert oracles.oracle_double_sum(*DOUBLE_SUM_PARTS[name], 20) == want

    @pytest.mark.parametrize("name", sorted(DOUBLE_SUM_PARTS))
    def test_sweep_and_family_at_order_1000(self, name):
        spec, order = BUILTIN_IDENTITIES[name], 1000
        family = spec.recursion_family
        k = max(FAMILIES[family].start, _split_cap(spec.conditions, order))
        routes = {
            "sweep": count_sum_side(spec.conditions, order),
            "family": _add_large_parts(capped_polynomial(family, k, order=order)[-1], k),
        }
        want = oracles.oracle_double_sum(*DOUBLE_SUM_PARTS[name], order)
        for route, got in routes.items():
            assert list(got) == want, route

    def test_wrong_linear_part_differs(self):
        # I2's quadratic form with I4's linear part is not I2's sum side
        got = oracles.oracle_double_sum(*DOUBLE_SUM_PARTS["I4"], 200)
        assert got != list(count_sum_side(BUILTIN_IDENTITIES["I2"].conditions, 200))


def assert_within_rule_width(series, order, repeat, bits):
    """Every coefficient is at most b_(repeat+1)(order), Glaisher's bound,
    and leaves the margin bit of a bits-wide digit clear."""
    top = max(series)
    assert min(series) >= 0
    assert top <= _regular_count(repeat + 1, order)
    assert top.bit_length() <= bits - 1


class TestRuleWidth:
    def test_each_family_takes_the_repeat_bound_of_its_identity(self):
        bounds = {name: _repeat_bound(FAMILY_IDENTITY[name].conditions) for name in FAMILIES}
        assert bounds == {"P1": 2, "P2": 2, "P3": 2, "Q": 2, "R": 3, "S": 3}
        widths = {name: initial_state(name, 500).bits for name in FAMILIES}
        assert widths == {"P1": 60, "P2": 60, "P3": 60, "Q": 60, "R": 64, "S": 64}

    def test_every_register_at_cap_and_order_1000(self):
        for name in FAMILIES:
            bits = initial_state(name, 1000).bits
            repeat = _repeat_bound(FAMILY_IDENTITY[name].conditions)
            for register in capped_polynomial(name, 1000, order=1000):
                assert_within_rule_width(register, 1000, repeat, bits)

    def test_product_sides_to_order_2000(self):
        for spec in BUILTIN_IDENTITIES.values():
            repeat = _repeat_bound(spec.conditions)
            bits = packed_bits(2000, repeat)
            product = expand_product(spec.shape.exponents(2000))
            assert_within_rule_width(product, 2000, repeat, bits)


class TestIdentitySpecs:
    def test_builtin_registry(self):
        assert sorted(BUILTIN_IDENTITIES) == ["I1", "I2", "I3", "I4", "I5", "I6"]
        for key, spec in BUILTIN_IDENTITIES.items():
            assert spec.name == key
        assert BUILTIN_IDENTITIES["I1"].shape.period == 9
        assert BUILTIN_IDENTITIES["I1"].shape.residues == frozenset({1, 3, 6, 8})
        assert BUILTIN_IDENTITIES["I5"].shape.period == 12
        assert BUILTIN_IDENTITIES["I6"].shape.residues == frozenset({2, 3, 5, 6, 7, 8, 11})

    def test_residue_validation(self):
        def spec(conditions, modulus, residues):
            return IdentitySpec("X", conditions, ProductShape.from_residues(modulus, residues))

        with pytest.raises(ValueError):
            spec(ConditionSet(), 9, frozenset({0}))
        with pytest.raises(ValueError):
            spec(ConditionSet(), 9, frozenset({10}))
        with pytest.raises(ValueError, match="period must be >= 1"):
            spec(ConditionSet(), 0, frozenset())
        # a residue that is not an integer is refused, not left out; a set's
        # entry is named by its place in the set's iteration order
        with pytest.raises(ValueError, match=r"^residues\[\d\] must be an integer, got 7\.5$"):
            spec(BUILTIN_IDENTITIES["I1"].conditions, 9, {1, 3, 6, 7.5})
        # a bad modulus is named as such, before any residue is checked
        with pytest.raises(ValueError, match="period must be an integer, got 9.0"):
            spec(BUILTIN_IDENTITIES["I1"].conditions, 9.0, {1})
        with pytest.raises(ValueError, match="period must be >= 1"):
            spec(BUILTIN_IDENTITIES["I1"].conditions, 0, {1})
        # the product side is a shape, never a modulus or a residue set
        for bad in (9, frozenset({1, 3, 6, 8}), (1, 0, 1, 0, 0, 1, 0, 1, 0)):
            with pytest.raises(ValueError) as info:
                IdentitySpec("X", ConditionSet(), bad)
            assert str(info.value) == f"shape: expected a ProductShape, got {bad!r}"
        # the sum side is a condition set, never a spec or a bare value
        for bad in (3, None, BUILTIN_IDENTITIES["I1"]):
            with pytest.raises(ValueError) as info:
                IdentitySpec("X", bad, ProductShape(1, (1,)))
            assert str(info.value) == f"conditions: expected a ConditionSet, got {bad!r}"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown recursion family 'nope'"):
            IdentitySpec("X", ConditionSet(), ProductShape.from_residues(9, {1}), "nope")
        # the public steppers look a family up the same way, with no KeyError
        for step in (capped_polynomial, initial_state):
            with pytest.raises(ValueError) as info:
                step("Z", 3)
            assert str(info.value) == "unknown recursion family 'Z'"


class TestProductSide:
    def test_small_coefficients(self):
        assert expand_product(BUILTIN_IDENTITIES["I1"].shape.exponents(3))[3] == 2
        assert expand_product(BUILTIN_IDENTITIES["I4"].shape.exponents(5))[5] == 2
        assert expand_product(BUILTIN_IDENTITIES["I3"].shape.exponents(2))[2] == 0

    def test_constant_term(self):
        for spec in BUILTIN_IDENTITIES.values():
            assert expand_product(spec.shape.exponents(10))[0] == 1

    def test_non_binary_shape(self):
        # exponent 2 on every part: partitions into parts of two colours
        spec = IdentitySpec("two-colour", ConditionSet(), ProductShape(1, (2,)))
        assert list(expand_product(spec.shape.exponents(6))) == [1, 2, 5, 10, 20, 36, 65]


class TestVerifyIdentity:
    def test_match_with_both_methods(self):
        report = verify_identity(BUILTIN_IDENTITIES["I1"], 30, method="both")
        assert report.match
        assert report.first_mismatch is None
        assert report.method == "both"
        assert report.sum_digest == report.product_digest
        assert report.warnings == ()

    def test_match_hashes_the_one_series_once(self, monkeypatch):
        # on a match the product is the sum side, so its digest is reused
        hashed = []
        digest = sumside.recursions.coefficient_digest
        monkeypatch.setattr(
            sumside.recursions, "coefficient_digest", lambda s: hashed.append(s) or digest(s)
        )
        report = verify_identity(BUILTIN_IDENTITIES["I1"], 200)
        assert report.match and report.product_digest == report.sum_digest
        assert len(hashed) == 1

    def test_both_methods_flag_disagreeing_routes(self, monkeypatch):
        # perturb only the enumeration route; the recursion route still
        # equals the product, so the mismatch is the enumeration's
        def perturbed(conditions, n, cap=None):
            coeffs = list(count_sum_side(conditions, n, cap=cap))
            coeffs[11] += 1
            return TruncatedSeries(coeffs)

        monkeypatch.setattr(sumside.recursions, "count_sum_side", perturbed)
        report = verify_identity(BUILTIN_IDENTITIES["I1"], 30, method="both")
        assert not report.match
        assert report.first_mismatch == 11
        assert any("disagree first at q^11" in w for w in report.warnings)
        # with a wrong shape too, the mismatch is the earlier of the two
        spec = BUILTIN_IDENTITIES["I1"]
        profile = spec.shape.exponent_profile * 2
        late = replace(spec, shape=ProductShape(18, profile[:17] + (1,)))
        for s in [spec, late] + other_shapes(spec):
            assert report_fields(s, 30, "both") == direct_report(s, 30, "both"), s
        assert report_fields(late, 30, "both")["first_mismatch"] == 11
        assert report_fields(late, 30)["first_mismatch"] == 18

    def test_mismatch_is_reported_not_raised(self):
        wrong = IdentitySpec(
            "I1-wrong",
            BUILTIN_IDENTITIES["I1"].conditions,
            ProductShape.from_residues(9, {1, 3, 6, 7}),
            "P1",
        )
        # under "both" the two sum sides agree with each other, not the product
        for method in ("recursion", "both"):
            report = verify_identity(wrong, 30, method)
            assert not report.match
            assert report.first_mismatch == 7
            assert report.sum_digest != report.product_digest
            assert report.warnings == ()
            assert report_fields(wrong, 30, method) == direct_report(wrong, 30, method)

    def test_spec_without_family_verifies_by_the_sweep(self):
        spec = replace(BUILTIN_IDENTITIES["I1"], name="bare", recursion_family=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_identity(spec, 20)
        assert report.method == "enumeration"
        assert report.match
        assert report.warnings == ()
        assert report.sum_digest == coefficient_digest(count_sum_side(spec.conditions, 20))

    def test_both_needs_a_family_to_check_the_sweep_against(self):
        spec = replace(BUILTIN_IDENTITIES["I1"], name="bare", recursion_family=None)
        with pytest.raises(ValueError, match="bare has no recursion family"):
            verify_identity(spec, 20, method="both")

    def test_rejects_bad_arguments(self):
        spec = BUILTIN_IDENTITIES["I1"]
        with pytest.raises(ValueError):
            verify_identity(spec, 0)
        for method in ("guess", "enumeration"):
            with pytest.raises(ValueError, match=f"unknown method '{method}'"):
                verify_identity(spec, 10, method=method)

    @pytest.mark.parametrize("order", [True, 2.5])
    def test_non_integer_order_rejected_up_front(self, order):
        # True used to give a report whose to_json wrote "order": true, and
        # 2.5 a TypeError from deep inside the sum side
        with pytest.raises(ValueError, match=f"^order must be an integer, got {order!r}$"):
            verify_identity(BUILTIN_IDENTITIES["I1"], order)

    def test_report_json_fields(self):
        report = verify_identity(BUILTIN_IDENTITIES["I2"], 20)
        assert set(report.to_json()) == {
            "identity",
            "order",
            "method",
            "match",
            "first_mismatch",
            "sum_digest",
            "product_digest",
            "elapsed_ms",
        }

    def test_digest_definition(self):
        series = TruncatedSeries([1, 1])
        assert coefficient_digest(series) == hashlib.sha256(b"1,1").hexdigest()


def other_shapes(spec: IdentitySpec) -> list[IdentitySpec]:
    """spec with every other builtin identity's shape, and with one
    non-binary shape, each of which the sum side fails at some power."""
    shapes = [s.shape for s in BUILTIN_IDENTITIES.values() if s.shape != spec.shape]
    shapes.append(ProductShape(12, (1, 0, -1, 2, 0, 1, 1, -1, 0, 2, 0, 1)))
    return [replace(spec, name=f"{spec.name}-wrong{i}", shape=s) for i, s in enumerate(shapes)]


class TestVerifyMatchesTheDirectRoute:
    """verify_identity steps each family to _split_cap and compares Euler
    exponents; every report field but elapsed_ms must equal the direct
    route's (direct_report)."""

    def test_every_identity_at_every_order_to_120(self):
        for spec in BUILTIN_IDENTITIES.values():
            for order in range(1, 121):
                assert report_fields(spec, order) == direct_report(spec, order), (spec.name, order)

    @pytest.mark.parametrize("order", [500, 1000])
    def test_every_identity_at_high_order(self, order):
        for spec in BUILTIN_IDENTITIES.values():
            assert report_fields(spec, order) == direct_report(spec, order), spec.name

    @pytest.mark.parametrize("method", ["recursion", "both"])
    def test_wrong_shapes(self, method):
        for spec in BUILTIN_IDENTITIES.values():
            for wrong in other_shapes(spec):
                for order in (1, 2, 5, 13, 40):
                    got = report_fields(wrong, order, method)
                    assert got == direct_report(wrong, order, method), (wrong, order)
        wrong = other_shapes(BUILTIN_IDENTITIES["I5"])[0]
        got = report_fields(wrong, 200, method)
        assert got == direct_report(wrong, 200, method)
        assert (got["first_mismatch"], got["warnings"]) == (4, ())

    @pytest.mark.parametrize("method", ["recursion", "both"])
    def test_family_under_other_rules(self, method):
        # the family counts its own identity's partitions, so it is split
        # by that identity's rules, not by the spec's
        for spec, rules in itertools.product(
            BUILTIN_IDENTITIES.values(), (ConditionSet(), ConditionSet(SmallestPartRule(9)))
        ):
            mixed = replace(spec, conditions=rules)
            for order in (1, 5, 17, 30):
                got = report_fields(mixed, order, method)
                assert got == direct_report(mixed, order, method), (mixed, order)

    def test_specs_without_a_family(self):
        for spec in BUILTIN_IDENTITIES.values():
            bare = replace(spec, recursion_family=None)
            for s in [bare] + other_shapes(bare)[:2]:
                for order in (1, 2, 7, 30, 60):
                    assert report_fields(s, order) == direct_report(s, order), (s, order)

    def test_product_is_expanded_only_on_a_mismatch(self, monkeypatch):
        calls = {"expand": 0, "caps": []}
        expand, step = sumside.recursions.expand_product, sumside.recursions.capped_polynomial

        def counted_expand(a):
            calls["expand"] += 1
            return expand(a)

        def recorded_step(family, cap, order=None):
            calls["caps"].append(cap)
            return step(family, cap, order=order)

        monkeypatch.setattr(sumside.recursions, "expand_product", counted_expand)
        monkeypatch.setattr(sumside.recursions, "capped_polynomial", recorded_step)
        for spec in BUILTIN_IDENTITIES.values():
            for method in ("recursion", "both"):
                assert verify_identity(spec, 500, method).match
        assert calls["expand"] == 0
        # every family stops near half the order
        assert calls["caps"] == [251] * 12
        wrong = other_shapes(BUILTIN_IDENTITIES["I1"])[0]
        assert not verify_identity(wrong, 500).match
        assert calls["expand"] == 1
