"""The package's public names: a fixed list, so any growth is a test edit.
Also holds the integer contract of every public argument and record field
that takes an integer, runs the README's library example, and parses the
sources at the oldest Python the package declares."""

import ast
import re
import warnings
from pathlib import Path

import pytest

import sumside
from sumside import (
    BUILTIN_IDENTITIES,
    CongruenceRule,
    DiffDistRule,
    ProductShape,
    SearchGrid,
    SmallestPartRule,
    TruncatedSeries,
    capped_polynomial,
    count_sum_side,
    detect_period,
    enumerate_sum_side,
    initial_state,
    run_search,
    verify_identity,
)

PUBLIC_NAMES = [
    "BUILTIN_IDENTITIES",
    "CandidateHit",
    "CandidateReport",
    "ConditionSet",
    "CongruenceRule",
    "DiffDistRule",
    "IdentitySpec",
    "IntegralityError",
    "ProductShape",
    "SearchGrid",
    "SmallestPartRule",
    "TruncatedSeries",
    "VerificationReport",
    "capped_polynomial",
    "coefficient_digest",
    "count_sum_side",
    "describe",
    "detect_period",
    "enumerate_sum_side",
    "euler_factorize",
    "expand_product",
    "initial_state",
    "run_search",
    "verify_identity",
]


def test_public_names_are_pinned():
    assert sorted(sumside.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in sumside.__all__:
        assert getattr(sumside, name) is not None, name


def test_dir_lists_every_public_name():
    assert set(sumside.__all__) <= set(dir(sumside))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sumside import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_public_names_are_the_submodules_objects():
    assert sumside.BUILTIN_IDENTITIES is sumside.recursions.BUILTIN_IDENTITIES
    assert sumside.run_search is sumside.search.run_search


def test_unknown_name_raises_attribute_error():
    assert not hasattr(sumside, "no_such_name")


def test_readme_library_example_runs(capsys):
    # the first python block under "## Library", run with warnings as errors,
    # prints the two values its comments document
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(code, {})
    assert capsys.readouterr().out == "parts ≡ 1, 4 (mod 5)\n3\n"


def test_sources_parse_at_the_python_floor():
    """Every file under src/ parses as Python 3.10, pyproject's
    requires-python floor.  This catches syntax newer than 3.10, but not a
    call to a standard-library name that 3.10 lacks."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = sorted(src.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


I1 = BUILTIN_IDENTITIES["I1"]
GRID = SearchGrid((None,), ((),), ((),), order=10)

# (call, valid values of its integer slots, least value of each bounded
# slot); a least value whose text is not "<name> must be >= <least>" comes
# with the text its least value minus one raises, and a slot whose valid
# value is a tuple takes a sequence of integers
INTEGER_SLOTS = {
    "smallest": (SmallestPartRule, dict(min_part=1, max_mult=1), dict(min_part=1, max_mult=1)),
    "diff": (DiffDistRule, dict(distance=1, min_diff=2), dict(distance=1, min_diff=0)),
    "congruence": (
        CongruenceRule,
        dict(span=1, gap=1, residue=0, modulus=3),
        dict(span=1, residue=0, modulus=2),
    ),
    "count_sum_side": (
        lambda n, cap: count_sum_side(I1.conditions, n, cap=cap),
        dict(n=5, cap=3),
        dict(n=0, cap=0),
    ),
    "enumerate_sum_side": (
        lambda n: enumerate_sum_side(I1.conditions, n), dict(n=5), dict(n=0)
    ),
    "capped_polynomial": (
        lambda cap, order: capped_polynomial("P1", cap, order=order),
        dict(cap=3, order=10),
        dict(cap=(0, "P1 is defined from cap 0"), order=0),
    ),
    "initial_state": (lambda order: initial_state("P1", order), dict(order=10), dict(order=0)),
    "verify_identity": (lambda order: verify_identity(I1, order), dict(order=10), dict(order=1)),
    "ProductShape": (ProductShape, dict(period=2, exponent_profile=(1, 0)), dict(period=1)),
    "ProductShape.from_residues": (
        ProductShape.from_residues, dict(period=2, residues=(1, 2)), dict(period=1)
    ),
    "ProductShape.exponents": (
        lambda order: ProductShape(2, (1, 0)).exponents(order), dict(order=4), dict(order=0)
    ),
    "detect_period": (
        lambda p_max, min_repeats: detect_period(
            ProductShape(2, (1, 0)).exponents(10), p_max, min_repeats
        ),
        dict(p_max=4, min_repeats=2),
        dict(p_max=1, min_repeats=1),
    ),
    "SearchGrid": (
        lambda order, p_max, min_repeats: SearchGrid(
            (None,), ((),), ((),), order, p_max, min_repeats
        ),
        dict(order=10, p_max=4, min_repeats=2),
        dict(
            order=(2, "order 1 is below min_repeats 2, too short to certify any period"),
            p_max=1,
            min_repeats=1,
        ),
    ),
    "run_search": (
        lambda jobs, refine_order: run_search(GRID, jobs, refine_order),
        dict(jobs=1, refine_order=12),
        dict(jobs=1, refine_order=(11, "refine order must exceed the grid order")),
    ),
    "TruncatedSeries": (TruncatedSeries, dict(coeffs=(1, 1)), {}),
    "TruncatedSeries.truncate": (
        lambda k: TruncatedSeries((1, 1, 1)).truncate(k),
        dict(k=1),
        dict(k=(0, "cannot truncate order-2 series to -1")),
    ),
}


@pytest.mark.parametrize("call, fields, least", INTEGER_SLOTS.values(), ids=INTEGER_SLOTS)
def test_non_integer_fields_rejected_by_name(call, fields, least):
    # a bool would otherwise count as 0 or 1, and a rule's would serialize
    # as true, which from_json rejects; a float or a string must not reach
    # range() or a slice as a TypeError
    call(**fields)
    for name, valid in fields.items():
        if isinstance(valid, tuple):
            with pytest.raises(ValueError, match=f"^{name} must be a sequence of integers, got 5$"):
                call(**{**fields, name: 5})
            for value in (True, 1.0, "3"):
                text = rf"^{name}\[1\] must be an integer, got {re.escape(repr(value))}$"
                with pytest.raises(ValueError, match=text):
                    call(**{**fields, name: (valid[0], value)})
            continue
        for value in (True, False, 2.5, "3"):
            text = f"^{name} must be an integer, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=text):
                call(**{**fields, name: value})
        if name in least:
            low, text = least[name] if isinstance(least[name], tuple) else (
                least[name], f"{name} must be >= {least[name]}"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call(**{**fields, name: low - 1})


def test_rule_json_and_none_defaults():
    for rule, fields, _ in (INTEGER_SLOTS[k] for k in ("smallest", "diff", "congruence")):
        assert rule(**fields).to_json() == fields
    assert SmallestPartRule(1, None).max_mult is None
    assert count_sum_side(I1.conditions, 5, cap=None) == count_sum_side(I1.conditions, 5)
    assert run_search(GRID, 1, None).hits == run_search(GRID).hits
