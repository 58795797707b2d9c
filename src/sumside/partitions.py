"""Partitions constrained by configurable sum-side conditions.

A partition is written with parts in weakly decreasing order,
lambda_1 >= lambda_2 >= ... >= lambda_m.  A ConditionSet is a conjunction of
three rule kinds:

  SmallestPartRule   every part >= min_part, and the number of parts equal to
                     min_part itself is at most max_mult (None = no cap).
  DiffDistRule       lambda_j - lambda_(j+distance) >= min_diff whenever both
                     indices exist.
  CongruenceRule     whenever lambda_j <= lambda_(j+span) + gap, the window sum
                     lambda_j + ... + lambda_(j+span) must be congruent to
                     residue mod modulus.

The three share one base, _Rule, which checks that every field is an integer
and reads and writes the rule's JSON object, rejecting unknown keys; each
rule adds only its fields and range checks.

Rules quantify over indices that exist; a partition too short to form a window
satisfies that rule vacuously, and the empty partition of 0 satisfies every
ConditionSet.

Counting and listing share one admissibility test, _admits, which checks a
new smallest part against the parts already chosen, and one rule for which
of those parts it can still see, _window and _trim.

  count_sum_side      a transfer sweep over part values, largest first.  Only
                      the last few parts can still trigger a rule, so the
                      state is a short tuple of them, and every state carries
                      the whole series of the partitions that reach it.  The
                      work grows polynomially in n, not with the number of
                      partitions counted.  A cap on the largest part is just
                      the value the sweep starts from.  It reaches the
                      packing kernel through the package's lazy series
                      module, so only processes that count run series.py.
  enumerate_sum_side  the listing, built as text over the same kind of
                      states, numbered as found: a sweep down collects the
                      (state, remainder) pairs a partial partition can pass
                      through, and a sweep back up gives each pair its block
                      of completion lines once, each line led by its newline,
                      so one replace copies it with a prefix into every block
                      that uses it.  The Python work grows polynomially in n;
                      the copying grows with the size of the listing.
"""

from __future__ import annotations

import json

from . import series
from ._record import Record


def _json_fail(where: str, what: str, value) -> ValueError:
    prefix = f"{where}: " if where else ""
    return ValueError(f"{prefix}expected {what}, got {json.dumps(value, default=repr)}")


def _json_keys(value, known, where: str) -> dict:
    """value as a JSON object whose keys all lie in known."""
    if not isinstance(value, dict):
        raise _json_fail(where, "a JSON object", value)
    extra = value.keys() - set(known)
    if extra:
        raise ValueError(f"{where}: unknown keys: {sorted(extra)}" if where
                         else f"unknown keys: {sorted(extra)}")
    return value


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise _json_fail(where, "a JSON array", value)
    return value


def _json_int(obj: dict, key: str, where: str = "", default: int | None = None) -> int:
    """obj[key] as a JSON integer; booleans and floats are rejected."""
    name = f"{where}.{key}" if where else key
    if key not in obj:
        if default is None:
            raise ValueError(f"{name}: missing")
        return default
    value = obj[key]
    if type(value) is not int:
        raise _json_fail(name, "an integer", value)
    return value


def _check_ints(record: Record, names) -> None:
    """Each named field of record must be an int, or None if None is its
    default; bool is rejected, as the JSON readers reject true."""
    for name in names:
        value = getattr(record, name)
        unbounded = value is None and record._defaults.get(name, 0) is None
        if type(value) is not int and not unbounded:
            raise ValueError(f"{name} must be an integer, got {value!r}")


class _Rule(Record):
    """Base of the sum-side rules.  A rule declares its integer fields (one
    that defaults to None may be None) and its range checks, in _check; the
    integer check and the JSON form, which rejects unknown keys, live here."""

    def __post_init__(self):
        _check_ints(self, self._fields)
        self._check()

    def to_json(self) -> dict:
        return {f: "unbounded" if v is None else v for f, v in self.__dict__.items()}

    @classmethod
    def from_json(cls, obj: dict, where: str = ""):
        """Raises ValueError naming the key path, a range error prefixed by
        where, as in diffs[0]: distance must be >= 1.  A field that defaults
        to None keeps that default when absent or "unbounded"."""
        obj = _json_keys(obj, cls._fields, where)
        fields = {
            f: _json_int(obj, f, where) for f in cls._fields
            if cls._defaults.get(f, 0) is not None or obj.get(f, "unbounded") != "unbounded"
        }
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}" if where else str(exc)) from None


class SmallestPartRule(_Rule):
    """Parts are >= min_part; at most max_mult parts equal min_part exactly.

    max_mult=None leaves the multiplicity of min_part uncapped.  The cap never
    applies to parts larger than min_part.
    """

    min_part: int
    max_mult: int | None = None

    def _check(self):
        if self.min_part < 1:
            raise ValueError("min_part must be >= 1")
        if self.max_mult is not None and self.max_mult < 1:
            raise ValueError("max_mult must be >= 1 or None")


class DiffDistRule(_Rule):
    """lambda_j - lambda_(j+distance) >= min_diff for every j in range.

    distance=1, min_diff=1 is "distinct parts"; distance=1, min_diff=2 is the
    classical Rogers-Ramanujan difference condition.
    """

    distance: int
    min_diff: int

    def _check(self):
        if self.distance < 1:
            raise ValueError("distance must be >= 1")
        if self.min_diff < 0:
            raise ValueError("min_diff must be >= 0")


class CongruenceRule(_Rule):
    """Conditional congruence on sums of span+1 consecutive parts.

    For each window lambda_j .. lambda_(j+span): if the ends are close,
    lambda_j <= lambda_(j+span) + gap, then the window's sum must be
    congruent to residue mod modulus.  Windows that fail the closeness test
    are unconstrained.  A negative gap makes the rule vacuous (parts are
    weakly decreasing, so the trigger can never fire).
    """

    span: int
    gap: int
    residue: int
    modulus: int

    def _check(self):
        if self.span < 1:
            raise ValueError("span must be >= 1")
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in 0..modulus-1")


class ConditionSet(Record):
    """Conjunction of sum-side rules; a partition must satisfy all of them.

    Each slot holds one rule kind, smallest a rule or None and the others a
    tuple of rules.  _check_slot, _read_slot and _write_slot handle one slot
    value; a SearchGrid checks, reads and writes its options through them."""

    smallest: SmallestPartRule | None = None
    diffs: tuple[DiffDistRule, ...] = ()
    congruences: tuple[CongruenceRule, ...] = ()
    _kinds = {
        "smallest": SmallestPartRule, "diffs": DiffDistRule, "congruences": CongruenceRule
    }

    def __post_init__(self):
        """Raises ValueError naming the first slot that does not hold its
        rule kind, as in diffs[0]: expected a DiffDistRule, got 3."""
        for slot in self._fields:
            object.__setattr__(self, slot, self._check_slot(slot, getattr(self, slot), slot))

    @classmethod
    def _check_slot(cls, slot: str, value, where: str):
        """value as slot holds it, any iterable of rules made a tuple; a
        ValueError names the bad entry from where."""
        rule = cls._kinds[slot]
        if slot == "smallest":
            if value is not None and not isinstance(value, rule):
                raise ValueError(f"{where}: expected a {rule.__name__} or None, got {value!r}")
            return value
        try:
            rules = tuple(value)
        except TypeError:
            raise ValueError(
                f"{where}: expected a sequence of {rule.__name__}, got {value!r}"
            ) from None
        for i, r in enumerate(rules):
            if not isinstance(r, rule):
                raise ValueError(f"{where}[{i}]: expected a {rule.__name__}, got {r!r}")
        return rules

    @classmethod
    def _read_slot(cls, slot: str, value, where: str):
        """The slot value that JSON value describes, each error naming its
        key path from where, as in diffs[0]."""
        rule = cls._kinds[slot]
        if slot == "smallest":
            return None if value is None else rule.from_json(value, where)
        items = _json_list(value, where)
        return tuple(rule.from_json(r, f"{where}[{i}]") for i, r in enumerate(items))

    @staticmethod
    def _write_slot(slot: str, value):
        """value as JSON; None for an empty smallest slot."""
        if slot == "smallest":
            return None if value is None else value.to_json()
        return [r.to_json() for r in value]

    def to_json(self) -> dict:
        """Every slot but an empty smallest, which is left out."""
        obj = {slot: self._write_slot(slot, getattr(self, slot)) for slot in self._fields}
        return {slot: v for slot, v in obj.items() if v is not None}

    @classmethod
    def from_json(cls, obj: dict) -> "ConditionSet":
        """Raises ValueError naming the key path of the first bad entry."""
        obj = _json_keys(obj, cls._fields, "")
        return cls(**{
            slot: cls._read_slot(slot, obj[slot], slot) for slot in cls._fields if slot in obj
        })

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ConditionSet":
        return cls.from_json(json.loads(text))

    @property
    def min_part(self) -> int:
        return 1 if self.smallest is None else self.smallest.min_part


def _repeat_bound(conditions: ConditionSet) -> int | None:
    """The most copies of one part value that a partition satisfying
    conditions can hold: a diff rule of distance d and min_diff >= 1 forbids
    d + 1 equal parts in a row.  None when no diff rule bounds it."""
    return min((r.distance for r in conditions.diffs if r.min_diff >= 1), default=None)


def _admits(conditions: ConditionSet, parts: tuple[int, ...], v: int) -> bool:
    """Can v be appended after parts?

    Only the rules whose newest index lands on v need rechecking; all earlier
    windows were validated when their own last part was appended.
    """
    for r in conditions.diffs:
        if len(parts) >= r.distance:
            if parts[-r.distance] - v < r.min_diff:
                return False
    for r in conditions.congruences:
        if len(parts) >= r.span:
            first = parts[-r.span]
            if first <= v + r.gap:
                total = sum(parts[-r.span :]) + v
                if total % r.modulus != r.residue:
                    return False
    return True


def _window(conditions: ConditionSet) -> tuple[int, int]:
    """(width, reach): how far back a rule window looks from a new part.

    A window reaches back at most width parts.  A part p meets a later part
    u only when p - u < min_diff or p <= u + gap, that is when
    p <= u + reach; so once every later part is <= top, a part
    p > top + reach is inert.
    """
    width = max(
        [r.distance for r in conditions.diffs]
        + [r.span for r in conditions.congruences],
        default=0,
    )
    reach = max(
        [r.min_diff - 1 for r in conditions.diffs]
        + [r.gap for r in conditions.congruences],
        default=-1,
    )
    return width, reach


def _trim(parts: tuple[int, ...], width: int, limit: int) -> tuple[int, ...]:
    """The last parts a later part can still trigger a rule on, where limit
    is top + reach for the largest part top still to come (_window)."""
    key = parts[-width:] if width else ()
    while key and key[0] > limit:
        key = key[1:]
    return key


def count_sum_side(
    conditions: ConditionSet, n: int, cap: int | None = None
) -> series.TruncatedSeries:
    """Generating function sum_s (#partitions of s satisfying conditions) q^s
    for s = 0..n, as an exact integer series.

    With cap, every part must also be <= cap; cap=0 admits only the empty
    partition, giving the constant series 1.  These capped counts are the
    finitizations that the recursion families compute; matching them against
    this independent sweep is the main cross-check on both sides.

    Transfer sweep over part values v = top, top-1, ..., min_part, where
    top = min(cap, n).  A state is the tuple of the smallest parts chosen so
    far, cut to the ones a later, smaller part can still trigger a rule on;
    each state carries the series of the part sets that reach it, packed into
    one int with B bits per coefficient, top degree first (series.pack),
    B = packed_bits(n, _repeat_bound): every state counts partitions that
    obey the diff rules.  Adding a copy of v multiplies by q^v and truncates
    at q^n, which is one right shift by v*B bits, and states that reach the
    same tuple are merged by adding.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    sm = conditions.smallest
    min_part = conditions.min_part
    max_mult = None if sm is None else sm.max_mult
    top = n if cap is None else min(cap, n)
    width, reach = _window(conditions)
    bits = series.packed_bits(n, _repeat_bound(conditions))
    states: dict[tuple[int, ...], int] = {(): series.pack((1,), n, bits)}
    for v in range(top, min_part - 1, -1):
        shift = v * bits
        kmax = n // v
        if v == min_part and max_mult is not None:
            kmax = min(kmax, max_mult)
        limit = v - 1 + reach  # every part still to come is <= v - 1
        step: dict[tuple[int, ...], int] = {}
        for parts, x in states.items():
            k = 0
            while True:
                key = _trim(parts, width, limit)
                step[key] = step.get(key, 0) + x
                if k == kmax or not _admits(conditions, parts, v):
                    break
                k += 1
                parts += (v,)
                x >>= shift
        states = step
    return series.unpack(sum(states.values()), n, bits)


def _listing_text(conditions: ConditionSet, n: int) -> str:
    """The partitions of n satisfying conditions, one per line as "3+2+1",
    in decreasing lexicographic order; "0\n" for n = 0 and "" when there
    are none.

    A node is a partial partition.  Its state is (key, v, c): _trim of its
    parts with top v (not the sweep's v - 1, since the node may take another
    copy of v), its last part v, and its count c of min_part copies.  c is
    tracked only when max_mult is set and below n // min_part; otherwise it
    stays 0, or the states would grow without end.  A node's admissible
    children depend on its state alone, and its completions on its state and
    its remainder rest, so each (state, rest) pair gets one text block.

    Each state is numbered when the sweep down first creates it, the root
    ((), n, 0) as 0, and only numbers are hashed after that.  The sweep
    from rest = n down collects the ids reachable at each rest, entering a
    child by part u only when u < rest.  A state's (u, child id) edges,
    u <= rest in increasing u, are computed once, when the sweep first
    reaches it, at its largest rest; a child's key then sums to at most n.
    A sweep back up fills one {id: block} table per rest, building each
    block from its children's, largest part first: a child with u == rest
    ends the partition, and any other child's block is copied with "u+"
    before every line.  Every line of a block is led by its newline, so the
    copy is one replace of "\n" by "\nu+"; the root's leading newline moves
    to the end.  A pair with no completion gets "", which its parents skip.
    The Python work is one step per (state, rest, edge), which grows
    polynomially in n; the rest is one copy per prefixed block, in C.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return "0\n"
    width, reach = _window(conditions)
    min_part = conditions.min_part
    sm = conditions.smallest
    mult = None if sm is None else sm.max_mult
    if mult is not None and mult >= n // min_part:
        mult = None  # no partition of n can exceed the cap
    root = ((), n, 0)
    ids: dict[tuple, int] = {root: 0}
    states: list[tuple] = [root]
    edges: list[list | None] = [None]
    levels: list[set[int]] = [set() for _ in range(n + 1)]
    levels[n].add(0)
    for rest in range(n, 0, -1):
        for s in levels[rest]:
            kids = edges[s]
            if kids is None:
                key, v, c = states[s]
                kids = edges[s] = []
                for u in range(min_part, min(v, rest) + 1):
                    cu = 0
                    if u == min_part and mult is not None:
                        if c == mult:
                            continue
                        cu = c + 1
                    if _admits(conditions, key, u):
                        child = (_trim(key + (u,), width, u + reach), u, cu)
                        i = ids.get(child)
                        if i is None:
                            i = ids[child] = len(states)
                            states.append(child)
                            edges.append(None)
                        kids.append((u, i))
            for u, i in kids:
                if u >= rest:
                    break
                levels[rest - u].add(i)
    pre = [f"\n{u}+" for u in range(n + 1)]
    blocks: list[dict[int, str]] = [{}]
    for rest in range(1, n + 1):
        table: dict[int, str] = {}
        for s in levels[rest]:
            lines = []
            for u, i in reversed(edges[s]):
                if u == rest:
                    lines.append(f"\n{u}")
                elif u < rest:
                    block = blocks[rest - u][i]
                    if block:
                        lines.append(block.replace("\n", pre[u]))
            table[s] = "".join(lines)
        blocks.append(table)
    text = blocks[n][0]
    return text[1:] + "\n" if text else ""


def enumerate_sum_side(conditions: ConditionSet, n: int) -> list[tuple[int, ...]]:
    """All partitions of exactly n satisfying conditions, in decreasing
    lexicographic order of part tuples.

    This is the slow path, kept for tests and library callers: it parses the
    tuples back out of _listing_text, the text `sumside enumerate --list`
    prints, which builds the listing once per (state, remainder) pair rather
    than once per partition.  Callers that want the text should use the CLI;
    counting should go through count_sum_side.
    """
    return [
        tuple(map(int, line.split("+"))) if line != "0" else ()
        for line in _listing_text(conditions, n).splitlines()
    ]
