"""Acceptance gate: one test per shipped guarantee.

Every comparison here is exact integer equality; there is no tolerance
anywhere.  Each test prints a single ACCEPTANCE line directly to the real
stdout (bypassing capture) so the run log shows one pass/fail verdict per
criterion alongside the pytest result.
"""

import json
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracles
import sumside.cli as cli
from sumside import (
    BUILTIN_IDENTITIES,
    ConditionSet,
    DiffDistRule,
    SmallestPartRule,
    TruncatedSeries,
    capped_polynomial,
    count_sum_side,
    euler_factorize,
    expand_product,
    verify_identity,
)
from sumside.recursions import FAMILIES

ROOT = Path(__file__).resolve().parents[1]
FAMILY_IDENTITY = {
    spec.recursion_family: spec for spec in BUILTIN_IDENTITIES.values()
}

@pytest.fixture
def criterion(capfd):
    """Context manager that prints one uncaptured verdict line per criterion."""

    @contextmanager
    def run(num: int, desc: str):
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"\nACCEPTANCE {num}: FAIL - {desc}", flush=True)
            raise
        dt = time.perf_counter() - t0
        with capfd.disabled():
            print(f"\nACCEPTANCE {num}: PASS - {desc} ({dt:.1f}s)", flush=True)

    return run


def test_criterion_1_rogers_ramanujan_products(criterion):
    with criterion(1, "gap-2 partitions factor to the mod 5 products at order 100"):
        t0 = time.perf_counter()
        first = ConditionSet(diffs=(DiffDistRule(1, 2),))
        exps = euler_factorize(count_sum_side(first, 100))
        assert exps.coeffs == tuple(
            1 if m % 5 in (1, 4) else 0 for m in range(101)
        )
        second = ConditionSet(
            smallest=SmallestPartRule(2), diffs=(DiffDistRule(1, 2),)
        )
        exps = euler_factorize(count_sum_side(second, 100))
        assert exps.coeffs == tuple(
            1 if m % 5 in (2, 3) else 0 for m in range(101)
        )
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_identities_by_enumeration(criterion):
    with criterion(2, "all six identities: swept sum-side counts equal the product to q^500"):
        t0 = time.perf_counter()
        for name in sorted(BUILTIN_IDENTITIES):
            spec = BUILTIN_IDENTITIES[name]
            product = expand_product(spec.shape.exponents(500))
            assert count_sum_side(spec.conditions, 500) == product, name
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_identities_by_recursion_to_500(criterion):
    with criterion(3, "all six identities verified through q^500 via recursions"):
        t0 = time.perf_counter()
        for name in sorted(BUILTIN_IDENTITIES):
            report = verify_identity(BUILTIN_IDENTITIES[name], 500, method="recursion")
            assert report.match, (name, report.first_mismatch)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_initial_polynomials_against_enumeration(criterion):
    with criterion(4, "every recursion initial polynomial equals direct enumeration"):
        for name in ("P1", "P2", "P3", "Q"):
            conds, fam = FAMILY_IDENTITY[name].conditions, FAMILIES[name]
            for cap, (coeffs,) in enumerate(fam.initial, fam.start):
                got = count_sum_side(conds, len(coeffs) - 1, cap=cap)
                assert list(got) == list(coeffs), (name, cap)
        for name, key in (("R", "I5"), ("S", "I6")):
            rules, fam = oracles.IDENTITY_RULES[key], FAMILIES[name]
            for cap, registers in enumerate(fam.initial, fam.start):
                for mult, coeffs in zip((1, 2), registers):
                    got = oracles.oracle_counts(
                        len(coeffs) - 1, cap=cap, mult_of_cap=mult, **rules
                    )
                    assert got == list(coeffs), (name, cap, mult)


def test_criterion_5_recursion_polynomials_match_capped_enumeration(criterion):
    with criterion(
        5,
        "recursion-built capped polynomials equal the swept counts in full, "
        "caps up to 25, and the brute-force oracle to q^29, caps up to 8",
    ):
        for name, fam in FAMILIES.items():
            spec = FAMILY_IDENTITY[name]
            for cap in range(fam.start + len(fam.initial), 26):
                poly = capped_polynomial(name, cap)[-1]
                got = count_sum_side(spec.conditions, poly.order, cap=cap)
                assert got == poly, (name, cap)
                if cap <= 8:
                    n = min(29, poly.order)
                    want = oracles.oracle_counts(
                        n, cap=cap, **oracles.IDENTITY_RULES[spec.name]
                    )
                    assert list(poly.truncate(n)) == want, (name, cap)


def test_criterion_6_factorization_round_trips(criterion):
    with criterion(6, "1000 random product round-trips, exponents in [-3, 3]"):
        rng = random.Random(500500)
        for trial in range(1000):
            order = rng.randrange(1, 65)
            exps = TruncatedSeries(
                [0] + [rng.randint(-3, 3) for _ in range(order)]
            )
            series = expand_product(exps)
            assert series[0] == 1
            back = euler_factorize(series)
            assert back == exps, trial


def test_criterion_7_prefix_stability(criterion):
    with criterion(7, "prefix stability of Euler exponents for 100 random series"):
        rng = random.Random(77007)
        for trial in range(100):
            order = rng.randrange(2, 25)
            coeffs = [1] + [rng.randint(-6, 6) for _ in range(order)]
            series = TruncatedSeries(coeffs)
            full = euler_factorize(series)
            for k in range(1, order + 1):
                assert euler_factorize(series.truncate(k)) == full.truncate(k), (trial, k)


def test_criterion_8_search_reports_are_deterministic(tmp_path, criterion):
    with criterion(8, "classics sweep: byte-identical reports across runs and --jobs"):
        config = str(ROOT / "configs" / "classics.json")
        outputs = []
        for i, jobs in enumerate(("1", "1", "2", "3")):
            out = tmp_path / f"report{i}.json"
            rc = cli.main(
                ["search", "--config", config, "--jobs", jobs, "--out", str(out)]
            )
            assert rc == 0
            text = out.read_text()
            outputs.append(re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', text))
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]
        assert outputs[0] == outputs[3]
        # the sweep must actually find the shipped identities
        report = json.loads(outputs[0])
        residue_sets = {
            (h["period"], tuple(h["residues"] or ()))
            for h in report["hits"]
        }
        assert (5, (1, 4)) in residue_sets
        assert (5, (2, 3)) in residue_sets
        assert (2, (1,)) in residue_sets
        assert (12, (2, 3, 9, 10)) in residue_sets
        profiles = {(h["period"], tuple(h["profile"])) for h in report["hits"]}
        for spec in BUILTIN_IDENTITIES.values():
            assert (spec.shape.period, spec.shape.exponent_profile) in profiles
        assert report["failures"] == []
