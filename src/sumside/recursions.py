"""High-order verification of the shipped identities via polynomial recursions.

Each identity's sum side has a finitized polynomial family indexed by a cap on
the largest part (and, for the mod 12 identities, a bound on how often that
largest part may appear).  The families satisfy short linear recursions with
q-power coefficients, so the sum side can be pushed to order 500 and beyond in
seconds: capped_polynomial steps the recursion with all arithmetic modulo
q^(N+1).  verify_identity steps it only to a cap K near N/2 (_split_cap),
adds the partitions with a part above K by one prefix sum, compares the
sum side's Euler exponents with the spec's ProductShape.exponents, and
expands the product only on a mismatch, to give it a digest.

A family is plain data (_Family): step tables in phases, one term table per
register in each phase, and initial polynomials for a run of indices from its
first.  The window, the first step and the register carrying the full capped
sum side (the last) follow from that data, and a family checks the data
against them when it is built.

The recursion coefficients appear below in their factored form, exactly as
each q-power arises from the combinatorial step, alongside the simplified
exponent actually used; each family checks that the two agree.  Every fixture
in this file is additionally validated against direct enumeration by the test
suite, which is what pinned down one corrected initial value (see
_P1_INITIAL).
"""

from __future__ import annotations

import hashlib
import time

from ._record import Record, check_int
from .partitions import (
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    SmallestPartRule,
    _add_large_parts,
    _repeat_bound,
    _split_cap,
    count_sum_side,
)
from .series import ProductShape, TruncatedSeries, check_packed, euler_factorize, expand_product
from .series import pack, packed_bits, unpack


class IdentitySpec(Record):
    """A claimed identity: sum-side conditions against a periodic product, the
    pair a search hit holds, so (hit.conditions, hit.shape) is a spec."""

    name: str
    conditions: ConditionSet
    shape: ProductShape
    recursion_family: str | None = None

    def __post_init__(self):
        for name, kind in (("conditions", ConditionSet), ("shape", ProductShape)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name}: expected a {kind.__name__}, got {value!r}")
        if self.recursion_family is not None:
            _family(self.recursion_family)


# ---------------------------------------------------------------------------
# Recursion fixtures
# ---------------------------------------------------------------------------

class _Term(Record):
    """One summand: sign * q^(exponent) * <register at index - back>.

    Exponents are linear forms (c, d) meaning c*m + d, where m is the step
    parameter index // (number of phases): for the mod 9 families the index
    is k = 3m + phase, for the mod 12 families m is the index itself.
    `factors` lists the q-powers in the factored presentation; their sum must
    equal `exponent`.  `back == 0` refers to a register already computed at
    the current index (only meaningful for a later register in the same step).
    """

    back: int
    register: int
    sign: int
    factors: tuple[tuple[int, int], ...]
    exponent: tuple[int, int]


class _Family(Record):
    """Recursion family as plain data: step tables and initial polynomials.

    `tables` holds one entry per phase; index k steps with phase
    k % len(tables) and step parameter m = k // len(tables).  A phase holds
    one term table per register, computed in listed order.  `initial` holds
    per-register coefficient tuples for the indices start, start + 1, ...
    Everything else follows from these fields: the window is len(initial)
    indices, the register count is the width of an initial entry, stepping
    starts at start + len(initial), and the last register carries the full
    capped sum side.
    """

    tables: tuple[tuple[tuple[_Term, ...], ...], ...]
    start: int
    initial: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        # stepping trusts the window, register count and exponents it takes
        # from this data, so the data must agree with them
        if not self.initial:
            raise ValueError("a family needs at least one initial entry")
        widths = {len(regs) for regs in self.initial} | {len(p) for p in self.tables}
        if len(widths) != 1:
            raise ValueError(f"register counts {sorted(widths)} differ")
        (registers,) = widths
        for t in (t for phase in self.tables for table in phase for t in table):
            exponent = tuple(map(sum, zip((0, 0), *t.factors)))
            if exponent != t.exponent:
                raise ValueError(
                    f"factored exponent {t.factors} simplifies to {exponent}, "
                    f"table says {t.exponent}"
                )
            if not 0 <= t.back <= len(self.initial):
                raise ValueError(f"back-reference {t.back}")
            if not 0 <= t.register < registers:
                raise ValueError(f"register {t.register}")


# The three mod 9 sibling identities share one recursion of three phases,
# one register each; k = 3m, 3m+1, 3m+2.
_P_TABLES = (
    ((  # index k = 3m
        _Term(1, 0, +1, (), (0, 0)),
        _Term(2, 0, +1, ((3, 0),), (3, 0)),
        _Term(3, 0, +1, ((3, 0), (3, 0)), (6, 0)),
    ),),
    ((  # k = 3m + 1
        _Term(1, 0, +1, (), (0, 0)),
        _Term(2, 0, +1, ((3, 1),), (3, 1)),
    ),),
    ((  # k = 3m + 2
        _Term(1, 0, +1, (), (0, 0)),
        _Term(3, 0, +1, ((3, 2), (3, 1)), (6, 3)),
        _Term(4, 0, +1, ((3, 2), (3, 0)), (6, 2)),
        _Term(3, 0, +1, ((3, 2),), (3, 2)),
    ),),
)

_Q_TABLES = (
    ((
        _Term(1, 0, +1, (), (0, 0)),
        _Term(3, 0, +1, ((3, 0), (3, -1)), (6, -1)),
        _Term(4, 0, +1, ((3, 0), (3, -2)), (6, -2)),
        _Term(3, 0, +1, ((3, 0),), (3, 0)),
    ),),
    ((
        _Term(1, 0, +1, (), (0, 0)),
        _Term(3, 0, +1, ((3, 1), (3, 1)), (6, 2)),
        _Term(2, 0, +1, ((3, 1),), (3, 1)),
    ),),
    ((
        _Term(1, 0, +1, (), (0, 0)),
        _Term(2, 0, +1, ((3, 2),), (3, 2)),
    ),),
)

# Two-register families, one phase: register 0 allows the largest part at
# most once, register 1 at most twice.  Twice is already the full capped sum
# side: three equal parts form a window whose sum is divisible by 3, which the
# congruence condition (residue 1 or 2) forbids.
_R_TABLES = ((
    (  # register 0 (at most one copy of the largest part); note the minus term
        _Term(1, 1, +1, ((1, 0),), (1, 0)),
        _Term(4, 0, -1, ((1, 0), (1, -1), (1, -2), (1, -2)), (4, -5)),
        _Term(1, 1, +1, (), (0, 0)),
    ),
    (  # register 1
        _Term(2, 0, +1, ((1, 0), (1, 0)), (2, 0)),
        _Term(0, 0, +1, (), (0, 0)),
    ),
),)

_S_TABLES = ((
    (
        _Term(1, 0, +1, ((1, 0),), (1, 0)),
        _Term(1, 1, +1, (), (0, 0)),
    ),
    (
        _Term(3, 1, +1, ((1, 0), (1, 0), (1, -1)), (3, -1)),
        _Term(2, 0, +1, ((1, 0), (1, 0)), (2, 0)),
        _Term(0, 0, +1, (), (0, 0)),
    ),
),)

# Initial polynomials, as coefficient tuples, verified against direct
# enumeration by the test suite.  The value at cap 3 for the first family was
# corrected from a misprinted source that had its q^6 term at q^7: enumeration
# of {parts <= 3, difference >= 3 at distance 2, close consecutive parts
# summing to 0 mod 3} gives 3+3 at q^6 and nothing at q^7, and only the
# corrected value makes the recursion agree with enumeration at every larger
# cap (and with the product side at high order).
_P1_INITIAL = (  # caps 0 to 3
    ((1,),),
    ((1, 1),),
    ((1, 1, 1, 1),),
    ((1, 1, 1, 2, 1, 0, 1),),
)
_P2_INITIAL = (
    ((1,),),
    ((1,),),
    ((1, 0, 1),),
    ((1, 0, 1, 1, 0, 0, 1),),
)
_P3_INITIAL = (
    ((1,),),
    ((1,),),
    ((1,),),
    ((1, 0, 0, 1, 0, 0, 1),),
)
_Q_INITIAL = (
    ((1,),),
    ((1,),),
    ((1, 0, 1),),
    ((1, 0, 1, 1, 0, 1),),
)
_R_INITIAL = (  # caps 1 to 4
    ((1, 1), (1, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 1, 1)),
    ((1, 1, 1, 2, 2, 1, 1, 1), (1, 1, 1, 2, 2, 1, 2, 2)),
    ((1, 1, 1, 2, 3, 2, 3, 4, 2, 1, 2, 1), (1, 1, 1, 2, 3, 2, 3, 4, 3, 2, 3, 2)),
)
_S_INITIAL = (  # caps 1 to 3
    ((1,), (1,)),
    ((1, 0, 1), (1, 0, 1)),
    ((1, 0, 1, 1, 0, 1), (1, 0, 1, 1, 0, 1, 1, 0, 1)),
)

FAMILIES: dict[str, _Family] = {
    "P1": _Family(_P_TABLES, 0, _P1_INITIAL),
    "P2": _Family(_P_TABLES, 0, _P2_INITIAL),
    "P3": _Family(_P_TABLES, 0, _P3_INITIAL),
    "Q": _Family(_Q_TABLES, 0, _Q_INITIAL),
    "R": _Family(_R_TABLES, 1, _R_INITIAL),
    "S": _Family(_S_TABLES, 1, _S_INITIAL),
}


def _family(name: str) -> _Family:
    """FAMILIES[name]; ValueError for a name it lacks."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown recursion family {name!r}") from None


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

class RecursionState(Record):
    """A recursion family's window of most recent register values.

    registers is oldest-first: registers[-1] belongs to `index`,
    registers[-2] to index-1, and so on.  Each register is a series through
    q^order packed with `bits` bits per coefficient, top degree first
    (series.pack), so a term q^e * register is the register shifted right by
    e*bits.
    """

    index: int
    registers: tuple[tuple[int, ...], ...]
    order: int
    bits: int


def initial_state(family: str, order: int) -> RecursionState:
    """State holding the family's initial polynomials, truncated to order.

    Every register counts partitions that satisfy the rules of the builtin
    identity naming the family, so the packing width is packed_bits with
    those rules' repeat bound.
    """
    fam = _family(family)
    check_int("order", order, 0)
    bits = packed_bits(order, _repeat_bound(_FAMILY_RULES[family]))
    window = tuple(
        tuple(pack(coeffs[: order + 1], order, bits) for coeffs in regs)
        for regs in fam.initial
    )
    return RecursionState(fam.start + len(fam.initial) - 1, window, order, bits)


def capped_polynomial(family: str, cap: int, order: int | None = None):
    """All registers of a family at the given cap, as exact polynomials; the
    last register is the full capped sum side.

    Steps the window of initial polynomials up to the cap, one index at a
    time.  A term q^e * register, truncated at q^order, is one right shift
    of the packed register, and each register starts from its first term.
    Every new register is checked before it is stored: packing is linear, so
    a minus term is exact as long as each result is a valid packed series.
    The default order, 2*cap*(cap+1), dominates the degree of every register
    (a part value can repeat at most distance-many times, so the total is at
    most 3 * cap*(cap+1)/2 here), making the result the untruncated
    polynomial padded with zeros.
    """
    fam = _family(family)
    check_int("cap", cap)
    if cap < fam.start:
        raise ValueError(f"{family} is defined from cap {fam.start}")
    if order is None:
        order = max(1, 2 * cap * (cap + 1))
    state = initial_state(family, order)
    bits = state.bits
    phases = len(fam.tables)
    window = state.registers
    for idx in range(state.index + 1, cap + 1):
        m = idx // phases
        new: list[int] = []
        for table in fam.tables[idx % phases]:
            acc = None
            for t in table:
                src = new[t.register] if t.back == 0 else window[-t.back][t.register]
                c, d = t.exponent
                shift = (c * m + d) * bits
                term = src >> shift if shift else src
                if acc is None:
                    acc = term if t.sign > 0 else -term
                else:
                    acc = acc + term if t.sign > 0 else acc - term
            check_packed(acc, order, bits)
            new.append(acc)
        window = window[1:] + (tuple(new),)
    # a cap below the first step is one of the initial entries
    registers = window[cap - max(cap, state.index) - 1]
    return tuple(unpack(r, order, bits) for r in registers)


# ---------------------------------------------------------------------------
# Identity fixtures and verification
# ---------------------------------------------------------------------------

BUILTIN_IDENTITIES: dict[str, IdentitySpec] = {
    "I1": IdentitySpec(
        "I1",
        ConditionSet(
            diffs=(DiffDistRule(2, 3),),
            congruences=(CongruenceRule(1, 1, 0, 3),),
        ),
        ProductShape.from_residues(9, {1, 3, 6, 8}),
        "P1",
    ),
    "I2": IdentitySpec(
        "I2",
        ConditionSet(
            smallest=SmallestPartRule(2),
            diffs=(DiffDistRule(2, 3),),
            congruences=(CongruenceRule(1, 1, 0, 3),),
        ),
        ProductShape.from_residues(9, {2, 3, 6, 7}),
        "P2",
    ),
    "I3": IdentitySpec(
        "I3",
        ConditionSet(
            smallest=SmallestPartRule(3),
            diffs=(DiffDistRule(2, 3),),
            congruences=(CongruenceRule(1, 1, 0, 3),),
        ),
        ProductShape.from_residues(9, {3, 4, 5, 6}),
        "P3",
    ),
    "I4": IdentitySpec(
        "I4",
        ConditionSet(
            smallest=SmallestPartRule(2),
            diffs=(DiffDistRule(2, 3),),
            congruences=(CongruenceRule(1, 1, 2, 3),),
        ),
        ProductShape.from_residues(9, {2, 3, 5, 8}),
        "Q",
    ),
    "I5": IdentitySpec(
        "I5",
        ConditionSet(
            smallest=SmallestPartRule(1, 1),
            diffs=(DiffDistRule(3, 3),),
            congruences=(CongruenceRule(2, 1, 1, 3),),
        ),
        ProductShape.from_residues(12, {1, 3, 4, 6, 7, 10, 11}),
        "R",
    ),
    "I6": IdentitySpec(
        "I6",
        ConditionSet(
            smallest=SmallestPartRule(2, 1),
            diffs=(DiffDistRule(3, 3),),
            congruences=(CongruenceRule(2, 1, 2, 3),),
        ),
        ProductShape.from_residues(12, {2, 3, 5, 6, 7, 8, 11}),
        "S",
    ),
}

# what each family's registers count: the rules of the identity naming it
_FAMILY_RULES = {s.recursion_family: s.conditions for s in BUILTIN_IDENTITIES.values()}


def coefficient_digest(series: TruncatedSeries) -> str:
    """Stable hex digest of a coefficient vector, for regression tracking:
    sha256 over the comma-joined decimal coefficients."""
    payload = ",".join(str(c) for c in series).encode()
    return hashlib.sha256(payload).hexdigest()


class VerificationReport(Record):
    identity: str
    order: int
    method: str
    match: bool
    first_mismatch: int | None
    sum_digest: str
    product_digest: str
    elapsed_ms: float
    warnings: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """Every field but warnings."""
        return {f: v for f, v in self.__dict__.items() if f != "warnings"}


def _first_mismatch(*series: TruncatedSeries) -> int | None:
    """The first power at which the series do not all agree, or None."""
    for n, column in enumerate(zip(*series)):
        if len(set(column)) > 1:
            return n
    return None


def verify_identity(
    spec: IdentitySpec, order: int, method: str = "recursion"
) -> VerificationReport:
    """Compare the identity's sum side against its product side through
    q^order.

    The spec picks the sum-side route: a spec with a recursion family steps
    it to _split_cap under the family's own rules and adds the larger parts,
    and one without counts with count_sum_side's transfer sweep, capped at
    the _split_cap of its own rules, and adds them the same way (the
    report's method is then "enumeration").  method "both" runs the
    sweep beside the family as well, requires the two to agree, and compares
    both against the product; a spec without a family has nothing to check
    the sweep against, so it raises.  The first sum side's Euler exponents
    are compared with the shape's; the product is expanded only on a
    mismatch.  A mismatch is an outcome, not an error: the report carries
    the first power at which a sum side differs from the product.
    """
    check_int("order", order, 1)
    if method not in ("recursion", "both"):
        raise ValueError(f"unknown method {method!r}")
    family = spec.recursion_family
    if family is None and method == "both":
        raise ValueError(f"{spec.name} has no recursion family to check the sweep against")
    t0 = time.perf_counter()
    sums: list[TruncatedSeries] = []
    if family is not None:
        # the family at cap k, with the parts above k added, carries the
        # full sum side through q^order
        k = max(FAMILIES[family].start, _split_cap(_FAMILY_RULES[family], order))
        sums.append(_add_large_parts(capped_polynomial(family, k, order=order)[-1], k))
    if family is None or method == "both":
        k = _split_cap(spec.conditions, order)
        sums.append(_add_large_parts(count_sum_side(spec.conditions, order, cap=k), k))
    # a_1..a_m fix b_1..b_m and back, so the exponents first differ where
    # the sum side and the product do, and on a match the two are one series
    exponents = spec.shape.exponents(order)
    factored = _first_mismatch(euler_factorize(sums[0]), exponents)
    product = None if factored is None else expand_product(exponents)
    # the product and the sums first fail to agree at the earlier of the
    # two; routes that disagree cannot both equal the product
    split = _first_mismatch(*sums) if method == "both" else None
    mismatch = min((m for m in (factored, split) if m is not None), default=None)
    elapsed = (time.perf_counter() - t0) * 1000.0
    sum_digest = coefficient_digest(sums[0])
    return VerificationReport(
        identity=spec.name,
        order=order,
        method=method if family is not None else "enumeration",
        match=mismatch is None,
        first_mismatch=mismatch,
        sum_digest=sum_digest,
        product_digest=sum_digest if product is None else coefficient_digest(product),
        elapsed_ms=elapsed,
        warnings=() if split is None else (
            f"recursion and enumeration sum sides disagree first at q^{split}",
        ),
    )
