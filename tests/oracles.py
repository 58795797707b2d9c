"""Brute-force oracles, independent of the package under test.

Everything here regenerates expected values from first principles: partitions
are produced by a plain recursive generator (each (n, cap) once per session)
and rules are checked by direct quantifier evaluation over complete part
lists; Euler factorization runs the plain O(N^2) recurrence, and product
expansion multiplies by one factor (1 - q^m)^(+-1) at a time.  Nothing imports
from the package, so agreement between these oracles and the package's
counting, recursion or factorization paths is evidence, not circularity.  Only
practical for small totals; the frozen literals in the test modules were
produced by these functions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence


def iter_partitions(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts <= cap, weakly decreasing, in
    lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    largest = n if cap is None else min(cap, n)

    def gen(remaining: int, bound: int):
        if remaining == 0:
            yield ()
            return
        for v in range(min(bound, remaining), 0, -1):
            for rest in gen(remaining - v, v):
                yield (v,) + rest

    yield from gen(n, largest)


@lru_cache(maxsize=None)
def _partitions(n: int, cap: int | None) -> tuple[tuple[int, ...], ...]:
    """iter_partitions(n, cap) as a tuple, generated once per session."""
    return tuple(iter_partitions(n, cap))


def rules_hold(
    parts: Sequence[int],
    min_part: int = 1,
    max_mult: int | None = None,
    diffs: Sequence[tuple[int, int]] = (),
    congruences: Sequence[tuple[int, int, int, int]] = (),
) -> bool:
    """Direct evaluation of the three rule kinds over a complete partition.

    diffs entries are (distance, min_diff); congruences entries are
    (span, gap, residue, modulus).  max_mult bounds how many parts may equal
    min_part exactly.
    """
    m = len(parts)
    for p in parts:
        if p < min_part:
            return False
    if max_mult is not None:
        count = 0
        for p in parts:
            if p == min_part:
                count += 1
        if count > max_mult:
            return False
    for distance, min_diff in diffs:
        for j in range(m):
            if j + distance < m and parts[j] - parts[j + distance] < min_diff:
                return False
    for span, gap, residue, modulus in congruences:
        for j in range(m):
            if j + span < m and parts[j] <= parts[j + span] + gap:
                if sum(parts[j : j + span + 1]) % modulus != residue:
                    return False
    return True


def oracle_counts(
    n_max: int,
    cap: int | None = None,
    mult_of_cap: int | None = None,
    min_part: int = 1,
    max_mult: int | None = None,
    diffs: Sequence[tuple[int, int]] = (),
    congruences: Sequence[tuple[int, int, int, int]] = (),
) -> list[int]:
    """Counts for totals 0..n_max under the rules, optionally with every part
    <= cap and at most mult_of_cap parts equal to cap itself (the extra bound
    the two-register recursion families track)."""
    out = []
    for n in range(n_max + 1):
        count = 0
        for parts in _partitions(n, cap):
            if not rules_hold(parts, min_part, max_mult, diffs, congruences):
                continue
            if mult_of_cap is not None and parts.count(cap) > mult_of_cap:
                continue
            count += 1
        out.append(count)
    return out


def oracle_partitions(
    n: int,
    min_part: int = 1,
    max_mult: int | None = None,
    diffs: Sequence[tuple[int, int]] = (),
    congruences: Sequence[tuple[int, int, int, int]] = (),
) -> list[tuple[int, ...]]:
    """The partitions of exactly n passing the rules, lex-decreasing."""
    return [
        parts
        for parts in _partitions(n, None)
        if rules_hold(parts, min_part, max_mult, diffs, congruences)
    ]


# Rule parameter sets for the six shipped identities, in oracle vocabulary.
IDENTITY_RULES = {
    "I1": dict(diffs=[(2, 3)], congruences=[(1, 1, 0, 3)]),
    "I2": dict(min_part=2, diffs=[(2, 3)], congruences=[(1, 1, 0, 3)]),
    "I3": dict(min_part=3, diffs=[(2, 3)], congruences=[(1, 1, 0, 3)]),
    "I4": dict(min_part=2, diffs=[(2, 3)], congruences=[(1, 1, 2, 3)]),
    "I5": dict(min_part=1, max_mult=1, diffs=[(3, 3)], congruences=[(2, 1, 1, 3)]),
    "I6": dict(min_part=2, max_mult=1, diffs=[(3, 3)], congruences=[(2, 1, 2, 3)]),
}


def oracle_factorize(coeffs: Sequence[int]) -> list[int]:
    """Exponents a_1..a_N with prod (1 - q^m)^(-a_m) equal to the series
    coeffs (constant term 1) mod q^(N+1), from the recurrence

        n*b_n = n*a_n + sum_{d|n, d<n} d*a_d + sum_{j=1}^{n-1} sigma_a(j)*b_{n-j}

    with sigma_a(j) = sum_{d|j} d*a_d, kept as a running table that is
    updated on the multiples of each new index: O(N^2) integer operations.
    """
    n_max = len(coeffs) - 1
    bc = coeffs
    a = [0] * (n_max + 1)
    sigma = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        # sigma[n] currently holds sum over proper divisors only: a_n itself
        # has not been folded in yet.
        total = n * bc[n] - sigma[n]
        total -= sum(sigma[j] * bc[n - j] for j in range(1, n))
        a_n, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"exponent a_{n} came out non-integral ({total}/{n})")
        a[n] = a_n
        if a_n:
            na = n * a_n
            for j in range(n, n_max + 1, n):
                sigma[j] += na
    return a[1:]


def oracle_expand_product(exps: Sequence[int]) -> list[int]:
    """Coefficients of prod_{m=1..N} (1 - q^m)^(-a_m) modulo q^(N+1), for
    exps = a_1..a_N.

    Each positive exponent is applied as a truncated multiplication by the
    geometric series 1/(1 - q^m) (an in-place prefix sum with stride m);
    negative exponents multiply by (1 - q^m).
    """
    n_max = len(exps)
    c = [0] * (n_max + 1)
    c[0] = 1
    for m in range(1, n_max + 1):
        e = exps[m - 1]
        for _ in range(e):
            for i in range(m, n_max + 1):
                c[i] += c[i - m]
        for _ in range(-e):
            for i in range(n_max, m - 1, -1):
                c[i] -= c[i - m]
    return c


def oracle_double_sum(d: int, e: int, n: int) -> list[int]:
    """Coefficients through q^n of the double sum

        sum_{i,j >= 0} q^(i^2 + 3ij + 3j^2 + d*i + e*j) / ((q;q)_i (q^3;q^3)_j),

    for linear parts d, e >= 0: an Andrews-Gordon type series of the kind
    Kursungoz gives for the Kanade-Russell mod 9 conjectures (Ann. Comb. 23,
    2019), not claimed to be the published forms.  It reads no rule and no
    recursion, so it is a third route to the sum sides of I1-I4, whose
    linear parts the tests name.  Each 1/(1 - q^m) is a prefix sum with stride
    m: 1/(q;q)_i is built one factor at a time, and each j's sum over i is
    divided by (q^3;q^3)_j the same way.
    """
    if d < 0 or e < 0:
        raise ValueError("the linear parts must be >= 0")

    def divide(c: list[int], m: int) -> None:  # c / (1 - q^m) in place
        for k in range(m, n + 1):
            c[k] += c[k - m]

    inverse = [[1] + [0] * n]  # inverse[i] is 1/(q;q)_i through q^n
    total = [0] * (n + 1)
    j = 0
    while 3 * j * j + e * j <= n:
        inner = [0] * (n + 1)
        i = 0
        while (power := i * i + 3 * i * j + 3 * j * j + d * i + e * j) <= n:
            if i == len(inverse):
                inverse.append(inverse[-1][:])
                divide(inverse[-1], i)
            for k in range(power, n + 1):
                inner[k] += inverse[i][k - power]
            i += 1
        for m in range(1, j + 1):
            divide(inner, 3 * m)
        for k in range(n + 1):
            total[k] += inner[k]
        j += 1
    return total
