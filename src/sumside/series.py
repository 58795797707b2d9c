"""Exact arithmetic on truncated formal power series, Euler's algorithm for
turning a series into an infinite-product representation, and the periodic
shapes of those products.

A series f(q) = c_0 + c_1 q + ... + c_N q^N is held as its N+1
arbitrary-precision integers; its truncation order N is their count less one.
All operations are exact; there is no floating-point mode.  Partition counts
overflow 64-bit machine words long before the orders this package verifies at
(p(500) is about 2.3e21), so Python ints are the coefficient type throughout.

Euler's algorithm writes any integer series with constant term 1 as

    b(q) = prod_{m>=1} (1 - q^m)^(-a_m)

with integer exponents a_m, carried as the series a(q) = a_1 q + a_2 q^2 +
..., whose constant term is 0, so that a[m] is a_m.  Taking q*d/dq of the
logarithm gives

    c(q) = q*b'(q)/b(q),   c_n = sum_{d|n} d*a_d,

so euler_factorize divides q*b' by b and then peels each c_n's proper
divisors off with a sieve over multiples.  The key property exploited
throughout is that a_1..a_k depend only on b_1..b_k, so a polynomial prefix
of a generating function pins down the leading product factors exactly.

That makes a short prefix a proposal, as in the paper's conjecture-then-check
loop: _proposed takes the proposal step, and states why it is sound, for
euler_factorize's head from order 2*_SEED on and for the search's prefix.
A sum side whose exponents are purely periodic is a candidate identity:
binary profiles (all exponents 0 or 1) say "partitions into parts in these
congruence classes", the classical product-side shape.  detect_period finds
the smallest certified period as a ProductShape, which tells whether its
residue set is symmetric under r -> p - r; describe states it in words.

The general route divides: Newton steps double the precision of 1/b, seeded
by the direct recurrence for the first few terms, and each step is a few
products of whole series at the width of b.
expand_product runs the identity the other way: it sieves c from the
exponents and solves n*b_n = sum c_k*b_(n-k) by divide and conquer, one
whole-block product per split, not by a prefix sum per factor.

Inside the package, series are also carried packed into one int, B bits per
coefficient (Kronecker substitution).  Partition counts (packed_bits, pack,
check_packed, unpack) are packed top degree first: coefficient s of a series
through q^N sits at bits (N-s)*B, so the constant term is the most
significant digit (the reversed packing of Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009).  Then multiplying by q^k and truncating at q^N is one right shift
by k*B bits: it touches only the (N+1-k)*B bits that survive, needs no mask,
and a term pushed past q^N costs nothing.  Adding two series is one big-int
addition.  B comes from a bound on the counts: p(N) in general, or, when the
rules let no part repeat more than d times, the smaller count b_(d+1)(N) of
Glaisher's theorem (packed_bits with repeat=d).  For the signed series of the
factorization and the expansion (_mul), multiplying two series is two big-int
multiplications at half width, by the same paper's KS2: each operand is
evaluated at X and at -X, X = 2^(D/2) for digits of D bits, and the half sum
and half difference of the two products hold the even and the odd product
coefficients, a whole digit each.  Python multiplies big ints by Karatsuba,
so the two half-width products cost about 2/3 of one at full width.
TruncatedSeries stays the type at every module boundary.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul
from typing import Iterable, Sequence

from ._record import Record, check_int, check_ints

# Series divisions up to this many terms run the direct recurrence, longer
# ones Newton steps: on partition counts the two tie from 64 to 81 terms (a
# search's longest prefix), and Newton wins at 128.  From order 2*_SEED on, a
# factorization first proposes a period from its first _SEED - 1 exponents.
_SEED = 64

# A period proposed from a prefix a_1..a_k must pass at least this many
# checks a_m = a_(m+p), m = 1..k-p, so that a prefix seldom fits one by
# chance: a failed certificate costs one product on top of the division.
_MARGIN = 16

# Blocks of expand_product's solve up to this many terms take the direct sum.
_LEAF = 32


class IntegralityError(ArithmeticError):
    """An exactness postcondition failed: a division that is provably exact
    over integer input left a remainder, or a packed coefficient outgrew its
    bit width.  Signals a bug, not bad input."""


class TruncatedSeries(Record):
    """Integer power series truncated at q^order (inclusive), a frozen record.

    The order is len(coeffs) - 1: coefficients are never padded or dropped
    implicitly, so use ``truncate`` for explicit shortening.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", check_ints("coeffs", self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def truncate(self, k: int) -> "TruncatedSeries":
        """The same series modulo q^(k+1)."""
        check_int("k", k)
        if not 0 <= k <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {k}")
        return TruncatedSeries(self.coeffs[: k + 1])

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


def packed_bits(n: int, repeat: int | None = None) -> int:
    """Bits per coefficient for packing partition counts through q^n.

    Every coefficient counts a set of partitions of some s <= n, so it is at
    most p(s) <= p(n), and the width is p(n)'s exact bit length plus the
    margin bit that check_packed requires to stay clear.

    With repeat = d, the partitions counted are ones in which no part
    appears more than d times (a diff rule of distance d and min_diff >= 1
    forbids d + 1 equal parts in a row).  By Glaisher's theorem there are
    b_(d+1)(s) of those, the partitions of s with no part divisible by d + 1.
    For k >= 2, b_k is nondecreasing: adding a part 1, which k does not
    divide, maps the partitions of s one-to-one into those of s + 1.  So
    b_(d+1)(n) bounds every coefficient through q^n, and takes p(n)'s place.
    """
    count = _partition_numbers(n)[n] if repeat is None else _regular_count(repeat + 1, n)
    return count.bit_length() + 1


@lru_cache(maxsize=4)
def _partition_numbers(n: int) -> tuple[int, ...]:
    """p(0..n), by Euler's pentagonal recurrence
    p(m) = sum_{j>=1} (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)).
    Cached: the widths for two repeat values at one n share it."""
    p = [1]
    for m in range(1, n + 1):
        total, j, g = 0, 1, 1
        while g <= m:
            term = p[m - g] + (p[m - g - j] if g + j <= m else 0)
            total += term if j & 1 else -term
            j += 1
            g = j * (3 * j - 1) // 2
        p.append(total)
    return tuple(p)


@lru_cache(maxsize=64)
def _regular_count(k: int, n: int) -> int:
    """b_k(n), the partitions of n with no part divisible by k:
    prod (1 - q^(km)) / (1 - q^m) gives b_k(n) = sum_j (-1)^j p(n - k*j(3j-1)/2)
    over all integers j, by Euler's pentagonal number theorem."""
    p = _partition_numbers(n)
    total, j, g = p[n], 1, k
    while g <= n:
        term = p[n - g] + (p[n - g - k * j] if g + k * j <= n else 0)
        total += -term if j & 1 else term
        j += 1
        g = k * j * (3 * j - 1) // 2
    return total


def pack(series: Iterable[int], n: int, bits: int) -> int:
    """The series through q^n packed into one int, coefficient s at bits
    (n-s)*bits.  A series shorter than n+1 terms is padded with zero terms
    of high degree, which is one shift of its digits."""
    cs = tuple(series)
    if len(cs) > n + 1:
        raise ValueError(f"{len(cs)} coefficients exceed order {n}")
    top = 1 << (bits - 1)
    for c in cs:
        if not 0 <= c < top:
            raise IntegralityError(f"coefficient {c} outside 0..2^{bits - 1}-1")
    digits = "".join(format(c, f"0{bits}b") for c in cs)
    return int(digits, 2) << (n + 1 - len(cs)) * bits


def check_packed(x: int, n: int, bits: int) -> None:
    """Raise IntegralityError unless x is a valid packed series through q^n.

    Each coefficient must lie in 0..2^(bits-1)-1; one that leaves that range
    by less than 2^(bits-1) sets its margin bit (a negative one borrows from
    the digit above it, the next lower degree), a constant term that carries
    sets a bit past the width, and a negative constant term makes x negative.
    """
    width = (n + 1) * bits
    if x < 0 or x >> width or x & _margins(n, bits):
        raise IntegralityError("packed series coefficient left its bit width")


@lru_cache(maxsize=16)
def _margins(n: int, bits: int) -> int:
    """The margin bit of every coefficient through q^n.  Cached: recursion
    stepping checks every register against one (n, bits), and this division
    costs more than the check."""
    return ((1 << (n + 1) * bits) - 1) // ((1 << bits) - 1) << (bits - 1)


def unpack(x: int, n: int, bits: int) -> TruncatedSeries:
    """The series through q^n that x packs, checked first.  One conversion
    to binary digits, read constant term first: linear in n."""
    check_packed(x, n, bits)
    digits = format(x, "b").zfill((n + 1) * bits)
    return TruncatedSeries(int(digits[i : i + bits], 2) for i in range(0, len(digits), bits))


def _packed(p: Sequence[int], size: int) -> int:
    """sum p_i*2^(8*size*i), for |p_i| < 2^(8*size-1).  Digits are stored
    offset by 2^(8*size-1), so they are never negative; the offset pattern
    comes off after packing."""
    digits = bytearray()
    half = 1 << (8 * size - 1)
    for x in p:
        digits += (x + half).to_bytes(size, "little")
    return int.from_bytes(digits, "little") - _offsets(len(p), size)


def _offsets(n: int, size: int) -> int:
    """2^(8*size-1) in each of n digits of size bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _mul(f: Sequence[int], g: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of f*g, for signed integer coefficient lists.

    Two big-int multiplications at half width, by Harvey's KS2 (Kronecker
    substitution at X and -X; "Faster polynomial multiplication via
    multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009).  A
    slot is the bit length of the exact bound min(len f, len g)*max|f|*max|g|
    on a product coefficient plus a sign bit, rounded up to whole bytes; a
    maximum of 0 counts as 1 in the bound, which then also covers every
    operand coefficient.  Each operand's even and odd coefficients are packed
    (_packed) one slot apiece, so that F_e + X*F_o at X = 2^B, B half a slot,
    is f(X), and F_e - X*F_o is f(-X).  With P+- = f(+-X)*g(+-X),
    (P+ + P-)/2 packs the even product coefficients one slot apiece and
    (P+ - P-)/(2X) the odd ones; the offset pattern goes back on before each
    is unpacked.
    """
    f, g = f[: n + 1], g[: n + 1]
    bound = min(len(f), len(g)) * (max(map(abs, f)) or 1) * (max(map(abs, g)) or 1)
    size = bound.bit_length() // 8 + 1
    half, b = 1 << (8 * size - 1), 4 * size
    fe, fo = _packed(f[::2], size), _packed(f[1::2], size) << b
    ge, go = _packed(g[::2], size), _packed(g[1::2], size) << b
    plus, minus = (fe + fo) * (ge + go), (fe - fo) * (ge - go)
    out = [0] * (n + 1)
    for k, h in enumerate(((plus + minus) >> 1, (plus - minus) >> (b + 1))):
        m = (n - k) // 2 + 1  # product coefficients k, k + 2, ..., through n
        width = size * m
        h = ((h + _offsets(m, size)) & (1 << 8 * width) - 1).to_bytes(width, "little")
        out[k::2] = [int.from_bytes(h[i : i + size], "little") - half for i in range(0, width, size)]
    return out


def _divide(y: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Terms 0..n-1 of y/b, for b_0 = 1; y may stop short (missing terms 0).

    Up to _SEED terms, by the direct recurrence
    x_k = y_k - sum_{j=1..k} b_j x_(k-j).  Above that, by one Newton step
    from g = 1/b and x = y/b to p = ceil(n/2) terms: b*x - y = q^p*e mod q^n,
    so y/b = x - q^p*g*e mod q^n.  The recursion halves n each time, so the
    work is a constant number of products of the full size.
    """
    if n <= _SEED:
        x: list[int] = []
        for k in range(n):
            x.append((y[k] if k < len(y) else 0) - sum(map(mul, b[k:0:-1], x)))
        return x
    p = (n + 1) // 2
    g = _divide((1,), b, p)
    x = g if y == (1,) else _mul(y, g, p - 1)
    e = _mul(b, x, n - 1)
    e = [e[k] - (y[k] if k < len(y) else 0) for k in range(p, n)]
    return x + [-t for t in _mul(g, e, n - p - 1)]


def _certified(y: Sequence[int], b: Sequence[int], x: Sequence[int]) -> bool:
    """Whether b*x = y through q^(n-1), n = len(y), for b_0 = 1, which
    forces x = y/b there.  One exact product, with b's low and high halves
    multiplied separately, each at its own width."""
    n = len(y)
    h = n // 2
    lo, hi = _mul(b[:h], x, n - 1), _mul(b[h:], x, n - h - 1)
    return lo[:h] == y[:h] and list(map(add, lo[h:], hi)) == y[h:]


def _log_derivative(a: Sequence[int]) -> list[int]:
    """c_n = sum_{d|n} d*a_d for n < len(a), by a sieve over multiples; c_0
    is 0, and a_0 must be 0."""
    n = len(a)
    c = [0] * n
    for d, e in enumerate(a):
        if e:  # never d = 0: a_0 is 0
            de = d * e
            for j in range(d, n, d):
                c[j] += de
    return c


def _period(a: Sequence[int], p_max: int) -> int | None:
    """The smallest p in 1..p_max with a_m = a_(m+p) wherever both indices
    lie in 1..len(a)-1, or None."""
    for p in range(1, p_max + 1):
        if all(a[m] == a[m + p] for m in range(1, len(a) - p)):
            return p
    return None


class ProductShape(Record):
    """Periodic exponent pattern of a product prod (1 - q^m)^(-a_m).

    exponent_profile[i] is the exponent shared by all m with m mod period equal
    to i+1 (the last slot, index period-1, covers m divisible by period).
    """

    period: int
    exponent_profile: tuple[int, ...]

    def __post_init__(self):
        check_int("period", self.period, 1)
        profile = check_ints("exponent_profile", self.exponent_profile)
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
        rs = set(check_ints("residues", residues))
        bad = [r for r in rs if not 1 <= r <= period]
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


def _proposed(b: Sequence[int], head: Sequence[int], limit: int) -> TruncatedSeries | None:
    """b's exponents through its order N (b_0 = 1), proposed by its leading
    exponents head = [0, a_1, ..., a_k]; None when no period p <= limit fits
    a_1..a_k.

    a_1..a_k depend only on b_1..b_k, so head holds b's own exponents, and
    a period p <= limit of a_1..a_N fits them too: None proves that b's
    exponents have none.  Otherwise the smallest p that fits (_period) is
    repeated out to N, and its log derivative c is tested by c*b = q*b'
    through q^N, one exact product (_certified).  As b_0 = 1, that has one
    solution c mod q^(N+1), and c_n = sum_{d|n} d*a_d one solution a, so a
    pass proves the repetition.  A failure proves only that p is not the
    period: a longer P <= limit still may be, since a_1..a_k can fit both
    when p + P - gcd(p, P) > k (Fine and Wilf, "Uniqueness theorems for
    periodic functions", Proc. AMS 16, 1965), so b is then divided in full.
    """
    p = _period(head, limit)
    if p is None:
        return None
    n = len(b)
    ext = [0, *(head[1 : p + 1] * (n // p + 1))[: n - 1]]
    y = [k * x for k, x in enumerate(b)]
    return TruncatedSeries(ext if _certified(y, b, _log_derivative(ext)) else _factor(b))


def euler_factorize(b: TruncatedSeries) -> TruncatedSeries:
    """Exponents a_1..a_N with b(q) = prod (1 - q^m)^(-a_m) mod q^(N+1), as
    the series a(q) = a_1 q + ... + a_N q^N: a[m] is a_m, and a[0] is 0.

    From order 2*_SEED on, a_1..a_63 come first, by the direct recurrence,
    and propose a period p <= 63 - _MARGIN (_proposed).  When none fits
    them, and below 2*_SEED, the general route (_factor) divides.

    Raises ValueError unless b has constant term 1, and IntegralityError if
    the division by n is ever inexact (it cannot be, for integer input).
    """
    if b.order < 1:
        raise ValueError("factorization needs order >= 1")
    bc = b.coeffs
    if bc[0] != 1:
        raise ValueError(f"constant term must be 1, got {bc[0]}")
    if b.order >= 2 * _SEED:
        a = _proposed(bc, _factor(bc[:_SEED]), _SEED - 1 - _MARGIN)
        if a is not None:
            return a
    return TruncatedSeries(_factor(bc))


def _factor(b: Sequence[int]) -> list[int]:
    """euler_factorize's general route, for b_0 = 1: [0, a_1, ..., a_N].

    Takes the logarithmic derivative: c = q*b'/b has c_n = sum_{d|n} d*a_d,
    which _divide computes with O(log N) big-int products at the width of b.
    A sieve over multiples then peels the proper divisors off each c_n in
    O(N log N), leaving a_n in c's slot n; c_0 = 0 already, as y_0 = 0*b_0.
    """
    n_max = len(b) - 1
    c = _divide([n * x for n, x in enumerate(b)], b, n_max + 1)
    for n in range(1, n_max + 1):
        a_n, rem = divmod(c[n], n)
        if rem:
            raise IntegralityError(
                f"exponent a_{n} came out non-integral ({c[n]}/{n})"
            )
        c[n] = a_n
        if a_n:
            na = n * a_n
            for j in range(2 * n, n_max + 1, n):
                c[j] -= na
    return c


def expand_product(a: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of prod_{m=1..N} (1 - q^m)^(-a_m) modulo q^(N+1), for
    the exponent series a(q) = a_1 q + ... + a_N q^N; ValueError unless a's
    constant term is 0.

    Inverse of ``euler_factorize``, through the same logarithmic derivative:
    a sieve over multiples gives c_n = sum_{d|n} d*a_d, and b = prod then
    solves q*b' = c*b, that is n*b_n = sum_{k=1..n} c_k*b_(n-k).  The
    solve is divide and conquer (relaxed multiplication): solve the left
    half of a block, add its whole contribution to the right half with one
    _mul, then solve the right half.  Blocks of up to _LEAF terms take the
    direct sum.  Each division by n is exact for integer exponents;
    IntegralityError signals a remainder.
    """
    if a[0] != 0:
        raise ValueError(f"constant term must be 0, got {a[0]}")
    n_max = a.order
    c = _log_derivative(a.coeffs)
    # until b_n is solved, b[n] sums c_k*b_(n-k) over the terms solved so far
    b = [1] + [0] * n_max

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _LEAF:
            for n in range(max(lo, 1), hi):
                b_n, rem = divmod(b[n] + sum(map(mul, b[lo:n], c[n - lo : 0 : -1])), n)
                if rem:
                    raise IntegralityError(f"coefficient b_{n} came out non-integral")
                b[n] = b_n
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        for n, t in enumerate(_mul(b[lo:mid], c[: hi - lo], hi - lo - 1)[mid - lo :], mid):
            b[n] += t
        solve(mid, hi)

    solve(0, n_max + 1)
    return TruncatedSeries(b)
