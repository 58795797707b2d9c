"""The package's public names: a fixed list, so any growth is a test edit.
Also runs the README's library example, and parses the sources at the
oldest Python the package declares."""

import ast
import warnings
from pathlib import Path

import sumside

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
