"""Value semantics of the package's frozen records: construction, equality,
hashing, repr, immutability, pickling and replace."""

import pickle

import pytest

from sumside import (
    CandidateHit,
    CandidateReport,
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    IdentitySpec,
    ProductShape,
    SearchGrid,
    SmallestPartRule,
    TruncatedSeries,
    VerificationReport,
)
from sumside._record import replace
from sumside.recursions import RecursionState, _Family, _Term

SM = SmallestPartRule(2, 1)
DD = DiffDistRule(2, 3)
CG = CongruenceRule(1, 1, 0, 3)
CS = ConditionSet(SM, (DD,), (CG,))
SHAPE = ProductShape(3, (1, 1, 0))
RR_SHAPE = ProductShape.from_residues(5, {1, 4})
HIT = CandidateHit(CS, SHAPE, 30)
TERM = _Term(back=1, register=0, sign=1, factors=(), exponent=(0, 0))

# (record class, its fields by name, one field changed), one per record
CASES = [
    (SmallestPartRule, dict(min_part=2, max_mult=1), dict(max_mult=None)),
    (DiffDistRule, dict(distance=2, min_diff=3), dict(min_diff=2)),
    (CongruenceRule, dict(span=1, gap=1, residue=0, modulus=3), dict(residue=2)),
    (ConditionSet, dict(smallest=SM, diffs=(DD,), congruences=(CG,)), dict(congruences=())),
    (ProductShape, dict(period=3, exponent_profile=(1, 1, 0)), dict(exponent_profile=(1, 0, 1))),
    (
        IdentitySpec,
        dict(name="X", conditions=CS, shape=RR_SHAPE, recursion_family="P1"),
        dict(shape=ProductShape.from_residues(5, {1})),
    ),
    (
        _Term,
        dict(back=1, register=0, sign=1, factors=((3, 0),), exponent=(3, 0)),
        dict(back=2),
    ),
    (
        _Family,
        dict(tables=(((TERM,),),), start=0, initial=(((1,),),)),
        dict(initial=(((2,),),)),
    ),
    (
        RecursionState,
        dict(index=3, registers=((1,), (2,)), order=4, bits=3),
        dict(registers=((1,), (3,))),
    ),
    (
        VerificationReport,
        dict(
            identity="I1", order=10, method="recursion", match=True, first_mismatch=None,
            sum_digest="ab", product_digest="cd", elapsed_ms=1.5, warnings=(),
        ),
        dict(match=False, first_mismatch=7),
    ),
    (
        SearchGrid,
        dict(
            smallest=(None, SM), diffs=((), (DD,)), congruences=((CG,),),
            order=12, p_max=64, min_repeats=2,
        ),
        dict(order=13),
    ),
    (
        CandidateHit,
        dict(conditions=CS, shape=SHAPE, order_checked=30, refined=None),
        dict(order_checked=40),
    ),
    (
        CandidateHit,
        dict(conditions=CS, shape=SHAPE, order_checked=30, refined=(60, SHAPE, None)),
        dict(refined=(60, None, "boom")),
    ),
    (
        CandidateReport,
        dict(
            grid_size=4, cells_run=3, order=12, p_max=64, min_repeats=2, hits=(HIT,),
            failures=((ConditionSet(), "boom"),), elapsed_ms=2.5,
        ),
        dict(hits=()),
    ),
    (TruncatedSeries, dict(coeffs=(1, 2, 3)), dict(coeffs=(1, 2, 4))),
]
# one id per case, its class name; the second CandidateHit case is refined
IDS = [cls.__name__ + "-refined" * bool(f.get("refined")) for cls, f, _ in CASES]

CS_REPR = (
    "ConditionSet(smallest=SmallestPartRule(min_part=2, max_mult=1), "
    "diffs=(DiffDistRule(distance=2, min_diff=3),), "
    "congruences=(CongruenceRule(span=1, gap=1, residue=0, modulus=3),))"
)
SHAPE_REPR = "ProductShape(period=3, exponent_profile=(1, 1, 0))"
HIT_REPR = (
    f"CandidateHit(conditions={CS_REPR}, shape={SHAPE_REPR}, order_checked=30, "
    "refined=None)"
)
# the text a frozen dataclass gives, for one instance of each public record;
# the series type keeps its compact text, the coefficients as a list
REPRS = {
    "SmallestPartRule": "SmallestPartRule(min_part=2, max_mult=1)",
    "DiffDistRule": "DiffDistRule(distance=2, min_diff=3)",
    "CongruenceRule": "CongruenceRule(span=1, gap=1, residue=0, modulus=3)",
    "ConditionSet": CS_REPR,
    "ProductShape": SHAPE_REPR,
    "IdentitySpec": (
        f"IdentitySpec(name='X', conditions={CS_REPR}, "
        "shape=ProductShape(period=5, exponent_profile=(1, 0, 0, 1, 0)), recursion_family='P1')"
    ),
    "RecursionState": "RecursionState(index=3, registers=((1,), (2,)), order=4, bits=3)",
    "VerificationReport": (
        "VerificationReport(identity='I1', order=10, method='recursion', match=True, "
        "first_mismatch=None, sum_digest='ab', product_digest='cd', elapsed_ms=1.5, "
        "warnings=())"
    ),
    "SearchGrid": (
        "SearchGrid(smallest=(None, SmallestPartRule(min_part=2, max_mult=1)), "
        "diffs=((), (DiffDistRule(distance=2, min_diff=3),)), "
        "congruences=((CongruenceRule(span=1, gap=1, residue=0, modulus=3),),), "
        "order=12, p_max=64, min_repeats=2)"
    ),
    "CandidateHit": HIT_REPR,
    "CandidateReport": (
        f"CandidateReport(grid_size=4, cells_run=3, order=12, p_max=64, min_repeats=2, "
        f"hits=({HIT_REPR},), failures=((ConditionSet(smallest=None, diffs=(), "
        "congruences=()), 'boom'),), elapsed_ms=2.5)"
    ),
    "TruncatedSeries": "TruncatedSeries([1, 2, 3], order=2)",
}


@pytest.mark.parametrize("cls, fields, change", CASES, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_give_equal_records(self, cls, fields, change):
        a, b = cls(*fields.values()), cls(**fields)
        c = cls(**{**fields, **change})
        assert a == b and not a != b
        assert a != c and not a == c
        assert a != tuple(fields.values()) and a != object()
        assert [getattr(a, name) for name in fields] == list(fields.values())
        assert hash(a) == hash(b) == hash(tuple(fields.values()))

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, change):
        record = cls(**fields)
        for name in (*fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)

    def test_pickle_round_trip(self, cls, fields, change):
        record = cls(**fields)
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is cls

    def test_missing_unknown_or_repeated_fields_raise_type_error(self, cls, fields, change):
        values = list(fields.values())
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*values, 0)
        with pytest.raises(TypeError):
            cls(**fields, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})
        if cls is not ConditionSet:  # the one record whose fields all have defaults
            with pytest.raises(TypeError):
                cls()

    def test_replace_changes_one_field(self, cls, fields, change):
        record = cls(**fields)
        assert replace(record, **change) == cls(**{**fields, **change})
        assert replace(record) == record
        with pytest.raises(TypeError):
            replace(record, not_a_field=1)


@pytest.mark.parametrize("name", REPRS)
def test_repr_is_the_dataclass_text(name):
    cls, fields, _ = next(case for case in CASES if case[0].__name__ == name)
    assert repr(cls(**fields)) == REPRS[name]


def test_defaults_fill_trailing_fields():
    assert SmallestPartRule(2) == SmallestPartRule(2, None) == SmallestPartRule(min_part=2)
    assert ConditionSet() == ConditionSet(None, (), ())
    assert CandidateHit(CS, SHAPE, 30).refined is None


@pytest.mark.parametrize(
    "record, change, message",
    [
        (SM, dict(min_part=0), "min_part"),
        (DD, dict(distance=0), "distance"),
        (CG, dict(residue=3), "residue"),
        (SHAPE, dict(period=2), "profile length"),
        (IdentitySpec("X", CS, RR_SHAPE), dict(shape=(1, 0, 0, 1, 0)), "expected a ProductShape"),
        (SearchGrid((None,), ((),), ((),)), dict(order=0), "order"),
        (TruncatedSeries((1, 2)), dict(coeffs=()), "constant term"),
        (IdentitySpec("X", CS, RR_SHAPE), dict(conditions=3), "expected a ConditionSet, got 3"),
    ],
)
def test_replace_runs_validation_again(record, change, message):
    with pytest.raises(ValueError, match=message):
        replace(record, **change)


def test_replace_normalises_again():
    cs = replace(ConditionSet(), diffs=[DD])
    assert cs.diffs == (DD,) and hash(cs) == hash(ConditionSet(diffs=(DD,)))
    assert replace(SHAPE, exponent_profile=[0, 1, 1]).exponent_profile == (0, 1, 1)
