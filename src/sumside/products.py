"""Periodic structure in Euler exponents.

A sum side whose factorization has purely periodic exponents is a candidate
identity: binary profiles (all exponents 0 or 1) say "partitions into parts
in these congruence classes", the classical product-side shape.  This module
finds the smallest certified period, renders shapes as congruence statements,
and tells whether a residue set is symmetric under r -> p - r.
"""

from __future__ import annotations

from ._record import Record, check_int
from .series import TruncatedSeries, _period


class ProductShape(Record):
    """Periodic exponent pattern of a product prod (1 - q^m)^(-a_m).

    exponent_profile[i] is the exponent shared by all m with m mod period equal
    to i+1 (the last slot, index period-1, covers m divisible by period).
    """

    period: int
    exponent_profile: tuple[int, ...]

    def __post_init__(self):
        check_int("period", self.period, 1)
        profile = tuple(self.exponent_profile)
        for i, e in enumerate(profile):
            check_int(f"exponent_profile[{i}]", e)
        object.__setattr__(self, "exponent_profile", profile)
        if len(self.exponent_profile) != self.period:
            raise ValueError(
                f"profile length {len(self.exponent_profile)} != period {self.period}"
            )

    @property
    def binary(self) -> bool:
        return all(e in (0, 1) for e in self.exponent_profile)

    @property
    def residues(self) -> frozenset[int]:
        """Residue classes (1..period, with period standing for 0) whose parts
        appear, for binary shapes.  Raises on non-binary profiles, where
        "which parts appear" is not the right question.
        """
        if not self.binary:
            raise ValueError("residue set is only defined for binary profiles")
        return frozenset(
            r for r in range(1, self.period + 1) if self.exponent_profile[r - 1] == 1
        )

    @property
    def symmetric(self) -> bool:
        """Whether the residue set is closed under r -> period - r, the
        residue period (class 0) being its own mirror.  Raises on non-binary
        profiles, as residues does."""
        p, rs = self.period, self.residues
        return all((p - r or p) in rs for r in rs)

    @classmethod
    def from_residues(cls, period: int, residues) -> "ProductShape":
        check_int("period", period, 1)
        rs = set(residues)
        bad = [r for r in rs if type(r) is not int or not 1 <= r <= period]
        if bad:
            raise ValueError(f"residues {sorted(bad, key=repr)} outside integers 1..{period}")
        return cls(period, tuple(1 if r in rs else 0 for r in range(1, period + 1)))

    def exponents(self, order: int) -> TruncatedSeries:
        """The profile repeated out to a_1..a_order, as the exponent series
        a_1 q + ... + a_order q^order (constant term 0), 0 at order 0."""
        check_int("order", order, 0)
        prof, p = self.exponent_profile, self.period
        return TruncatedSeries((0,) + prof * (order // p) + prof[: order % p])


def _period_limit(order: int, p_max: int, min_repeats: int) -> int:
    """The largest period that order can certify: min(p_max, order //
    min_repeats), so that min_repeats full copies fit in the window.  Raises
    when one of the three is not an int (bool included), a threshold is
    below 1, or order is too short for any period."""
    check_int("order", order)
    check_int("p_max", p_max, 1)
    check_int("min_repeats", min_repeats, 1)
    if order < min_repeats:
        raise ValueError(
            f"order {order} is below min_repeats {min_repeats}, "
            "too short to certify any period"
        )
    return min(p_max, order // min_repeats)


def detect_period(
    a: TruncatedSeries, p_max: int = 64, min_repeats: int = 2
) -> ProductShape | None:
    """Smallest pure period of an exponent series a_1 q + ... + a_N q^N, as
    euler_factorize returns it, or None; ValueError unless a[0] == 0.

    A period p is certified only when the window holds min_repeats full
    copies of the profile (p * min_repeats <= order) and a_m == a_{m+p} for
    every m with both indices in range; no preperiod is allowed.  Candidate
    periods therefore run up to _period_limit.  Returning the smallest such p
    also rules out reporting a proper multiple of the true period.
    """
    exps = a.coeffs
    if exps[0] != 0:
        raise ValueError(f"constant term must be 0, got {exps[0]}")
    p = _period(exps, _period_limit(a.order, p_max, min_repeats))
    return None if p is None else ProductShape(p, exps[1 : p + 1])


def describe(shape: ProductShape) -> str:
    """Human-readable statement of what the product counts."""
    if not shape.binary:
        profile = ", ".join(str(e) for e in shape.exponent_profile)
        return (
            f"exponent profile ({profile}) repeating mod {shape.period} "
            "[non-partition-style]"
        )
    rs = sorted(shape.residues)
    if len(rs) == shape.period:
        return "all parts allowed"
    if not rs:
        return "no parts allowed"
    return f"parts ≡ {', '.join(str(r) for r in rs)} (mod {shape.period})"
