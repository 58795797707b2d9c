"""Exact arithmetic on truncated formal power series, plus Euler's algorithm
for turning a series into an infinite-product representation.

A series f(q) = c_0 + c_1 q + ... + c_N q^N is held as N+1 arbitrary-precision
integers together with its truncation order N.  All operations are exact; there
is no floating-point mode.  Partition counts overflow 64-bit machine words long
before the orders this package verifies at (p(500) is about 2.3e21), so Python
ints are the coefficient type throughout.

Euler's algorithm writes any integer series with constant term 1 as

    f(q) = prod_{m>=1} (1 - q^m)^(-a_m)

with integer exponents a_m, computed from the recurrence

    n*b_n = n*a_n + sum_{d|n, d<n} d*a_d + sum_{j=1}^{n-1} sigma_a(j) * b_{n-j}

where sigma_a(j) = sum_{d|j} d*a_d.  The key property exploited downstream is
that a_1..a_k depend only on b_1..b_k, so a polynomial prefix of a generating
function pins down the leading product factors exactly.

Inside the package, series of partition counts are also carried packed into
one int, B bits per coefficient (Kronecker substitution): multiplying by q^k
and truncating at q^N is one shift and one mask, and adding two series is one
big-int addition.  packed_bits, pack, check_packed and unpack are that kernel;
TruncatedSeries stays the type at every module boundary.
"""

from __future__ import annotations

import math
from typing import Iterable


class IntegralityError(ArithmeticError):
    """An exactness postcondition failed: a division that is provably exact
    over integer input left a remainder, or a packed coefficient outgrew its
    bit width.  Signals a bug, not bad input."""


class TruncatedSeries:
    """Immutable integer power series truncated at q^order (inclusive).

    Coefficients are never dropped implicitly; use ``truncate`` for explicit
    shortening.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        cs = tuple(int(c) for c in coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                raise ValueError(
                    f"{len(cs)} coefficients exceed order {order}; "
                    "use truncate() to drop terms deliberately"
                )
            cs = cs + (0,) * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("a series needs at least the constant term")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def truncate(self, k: int) -> "TruncatedSeries":
        """The same series modulo q^(k+1)."""
        if not 0 <= k <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {k}")
        return TruncatedSeries(self.coeffs[: k + 1])

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


def packed_bits(n: int) -> int:
    """Bits per coefficient for packing partition counts through q^n.

    Every coefficient counts a set of partitions of some s <= n, so it is at
    most p(n) < exp(pi*sqrt(2n/3)); one more bit is the margin that
    check_packed requires to stay clear.
    """
    return int(math.pi * math.sqrt(2 * n / 3) / math.log(2)) + 2


def pack(series: Iterable[int], bits: int) -> int:
    """The coefficients packed into one int, the constant term lowest."""
    x = 0
    for c in reversed(tuple(series)):
        if not 0 <= c < 1 << (bits - 1):
            raise IntegralityError(f"coefficient {c} outside 0..2^{bits - 1}-1")
        x = x << bits | c
    return x


def check_packed(x: int, n: int, bits: int) -> None:
    """Raise IntegralityError unless x is a valid packed series through q^n.

    Each coefficient must lie in 0..2^(bits-1)-1; one that leaves that range
    by less than 2^(bits-1) sets its margin bit (a negative one borrows from
    the one above), and a negative top coefficient makes x negative.
    """
    width = (n + 1) * bits
    margins = ((1 << width) - 1) // ((1 << bits) - 1) << (bits - 1)
    if x < 0 or x >> width or x & margins:
        raise IntegralityError("packed series coefficient left its bit width")


def unpack(x: int, n: int, bits: int) -> TruncatedSeries:
    """The series through q^n that x packs, checked first."""
    check_packed(x, n, bits)
    digit = (1 << bits) - 1
    return TruncatedSeries((x >> (s * bits)) & digit for s in range(n + 1))


class ExponentSequence:
    """Integer exponents a_1..a_N of a product prod (1 - q^m)^(-a_m).

    Indexing is 1-based to match the q-power each exponent belongs to;
    ``a[m]`` is the exponent of the (1 - q^m) factor.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        self.exps = tuple(int(e) for e in exps)
        if not self.exps:
            raise ValueError("an exponent sequence needs order >= 1")

    @property
    def order(self) -> int:
        return len(self.exps)

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= len(self.exps):
            raise IndexError(f"exponent index {m} outside 1..{len(self.exps)}")
        return self.exps[m - 1]

    def __len__(self) -> int:
        return len(self.exps)

    def __iter__(self):
        return iter(self.exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentSequence):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def truncate(self, k: int) -> "ExponentSequence":
        if not 1 <= k <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} exponents to {k}")
        return ExponentSequence(self.exps[:k])

    def __repr__(self) -> str:
        head = ", ".join(str(e) for e in self.exps[:10])
        tail = ", ..." if len(self.exps) > 10 else ""
        return f"ExponentSequence([{head}{tail}], order={self.order})"


def euler_factorize(b: TruncatedSeries) -> ExponentSequence:
    """Exponents a_1..a_N with b(q) = prod (1 - q^m)^(-a_m) mod q^(N+1).

    Runs the recurrence solved for a_n, keeping a running table
    sigma[j] = sum_{d|j, a_d known} d*a_d that is updated on the multiples of
    each new index, so the whole factorization is O(N^2) integer operations.

    Raises ValueError unless b has constant term 1, and IntegralityError if
    the division by n is ever inexact (it cannot be, for integer input).
    """
    if b.order < 1:
        raise ValueError("factorization needs order >= 1")
    if b.coeffs[0] != 1:
        raise ValueError(f"constant term must be 1, got {b.coeffs[0]}")
    n_max = b.order
    bc = b.coeffs
    a = [0] * (n_max + 1)
    sigma = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        # sigma[n] currently holds sum over proper divisors only: a_n itself
        # has not been folded in yet.
        total = n * bc[n] - sigma[n]
        total -= sum(sigma[j] * bc[n - j] for j in range(1, n))
        a_n, rem = divmod(total, n)
        if rem:
            raise IntegralityError(
                f"exponent a_{n} came out non-integral ({total}/{n})"
            )
        a[n] = a_n
        if a_n:
            na = n * a_n
            for j in range(n, n_max + 1, n):
                sigma[j] += na
    return ExponentSequence(a[1:])


def expand_product(a: ExponentSequence) -> TruncatedSeries:
    """Coefficients of prod_{m=1..N} (1 - q^m)^(-a_m) modulo q^(N+1).

    Inverse of ``euler_factorize``.  Each positive exponent is applied as a
    truncated multiplication by the geometric series 1/(1 - q^m) (an in-place
    prefix sum with stride m); negative exponents multiply by (1 - q^m).
    """
    n_max = a.order
    c = [0] * (n_max + 1)
    c[0] = 1
    for m in range(1, n_max + 1):
        e = a[m]
        for _ in range(e):
            for i in range(m, n_max + 1):
                c[i] += c[i - m]
        for _ in range(-e):
            for i in range(n_max, m - 1, -1):
                c[i] -= c[i - m]
    return TruncatedSeries(c)


def prefix_stability_check(b: TruncatedSeries, k: int) -> bool:
    """True iff factoring the k-prefix of b matches the first k exponents of
    factoring all of b.

    This holds identically (a_n depends only on b_1..b_n), so a False return
    would expose a defect in the factorization itself; the check exists as a
    cheap self-test hook, not as a filter.
    """
    if not 1 <= k <= b.order:
        raise ValueError(f"prefix index {k} outside 1..{b.order}")
    full = euler_factorize(b)
    prefix = euler_factorize(b.truncate(k))
    return prefix.exps == full.exps[:k]
