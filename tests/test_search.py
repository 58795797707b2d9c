"""Grid construction, the sweep itself, and report determinism."""

import json
import re

import pytest

from sumside import (
    CandidateHit,
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    ProductShape,
    SearchGrid,
    SmallestPartRule,
    run_search,
)

RR_DIFF = (DiffDistRule(1, 2),)


def tiny_grid(**overrides) -> SearchGrid:
    kwargs = dict(
        smallest_options=(None, SmallestPartRule(2)),
        diff_options=(RR_DIFF,),
        congruence_options=((),),
        order=30,
    )
    kwargs.update(overrides)
    return SearchGrid(**kwargs)


def strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": X', text)


class TestSearchGrid:
    def test_size_and_cells(self):
        grid = tiny_grid()
        assert grid.size == 2
        assert len(grid.cells()) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            tiny_grid(diff_options=())

    def test_period_thresholds_rejected_below_one(self):
        for key in ("p_max", "min_repeats"):
            for value in (0, -3):
                with pytest.raises(ValueError, match=key):
                    tiny_grid(**{key: value})

    def test_json_round_trip(self):
        grid = tiny_grid(
            congruence_options=((), (CongruenceRule(1, 1, 0, 3),)),
            p_max=32,
            min_repeats=3,
        )
        assert SearchGrid.from_json(grid.to_json()) == grid

    def test_json_defaults(self):
        grid = SearchGrid.from_json({"schema_version": 1})
        assert (grid.order, grid.p_max, grid.min_repeats) == (30, 64, 2)
        assert grid == SearchGrid((None,), ((),), ((),))

    def test_schema_version_checked(self):
        obj = tiny_grid().to_json()
        obj["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            SearchGrid.from_json(obj)
        del obj["schema_version"]
        with pytest.raises(ValueError, match="schema_version"):
            SearchGrid.from_json(obj)

    def test_unknown_keys_rejected(self):
        obj = tiny_grid().to_json()
        obj["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            SearchGrid.from_json(obj)

    def test_unknown_rule_keys_rejected_with_key_path(self):
        obj = tiny_grid().to_json()
        obj["congruences"] = [[{"span": 1, "gap": 1, "residue": 0, "modulus": 3, "mod": 3}]]
        with pytest.raises(ValueError) as info:
            SearchGrid.from_json(obj)
        assert str(info.value) == "congruences[0][0]: unknown keys: ['mod']"

    @pytest.mark.parametrize("key", ["order", "p_max", "min_repeats"])
    def test_non_integer_thresholds_rejected_by_name(self, key):
        # a bool would otherwise serialize as true, which from_json rejects
        for value in (True, False, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                tiny_grid(**{key: value})
        assert SearchGrid.from_json(tiny_grid(**{key: 3}).to_json()) == tiny_grid(**{key: 3})

    def test_bool_rule_field_cannot_reach_a_sweep(self):
        # a one-cell grid with DiffDistRule(True, 2) used to sweep to a hit
        # whose conditions ConditionSet.from_json then rejected
        with pytest.raises(ValueError, match="distance must be an integer"):
            tiny_grid(smallest_options=(None,), diff_options=((DiffDistRule(True, 2),),))

    def test_rule_slots_hold_their_rule_kind(self):
        # the one-cell grid with smallest_options=(5,) used to construct and
        # then end run_search in an AttributeError from ConditionSet.to_json
        cases = [
            (dict(smallest_options=5), "smallest_options: expected a sequence of options, got 5"),
            (
                dict(smallest_options=(5,)),
                "smallest_options[0]: expected a SmallestPartRule or None, got 5",
            ),
            (
                dict(diff_options=(RR_DIFF, (3,))),
                "diff_options[1][0]: expected a DiffDistRule, got 3",
            ),
            (
                dict(congruence_options=((), RR_DIFF)),
                "congruence_options[1][0]: expected a CongruenceRule, "
                "got DiffDistRule(distance=1, min_diff=2)",
            ),
        ]
        for overrides, message in cases:
            with pytest.raises(ValueError) as info:
                tiny_grid(**overrides)
            assert str(info.value) == message
        with pytest.raises(ValueError, match=r"^smallest_options\[0\]"):
            run_search(
                SearchGrid(smallest_options=(5,), diff_options=((),), congruence_options=((),))
            )

    @pytest.mark.parametrize(
        "axis, error",
        [
            (lambda options: [list(o) if type(o) is tuple else o for o in options], None),
            (lambda options: tuple(list(o) if type(o) is tuple else o for o in options), None),
            (lambda options: iter([iter(o) if type(o) is tuple else o for o in options]), None),
            (lambda options: iter(()), "every grid axis needs at least one option"),
        ],
        ids=["lists", "tuples of lists", "iterators", "empty iterators"],
    )
    def test_axes_are_stored_as_tuples(self, axis, error):
        # a grid of lists used to be unhashable and unequal to its JSON
        # round trip; an iterator option was consumed by the check, so the
        # grid swept ConditionSet() in its place; an empty iterator axis
        # passed the check
        axes = (
            (None, SmallestPartRule(2)),
            (RR_DIFF, ()),
            ((), (CongruenceRule(1, 1, 0, 3),)),
        )
        if error is not None:
            with pytest.raises(ValueError, match=f"^{error}$"):
                SearchGrid(*map(axis, axes))
            return
        grid, want = SearchGrid(*map(axis, axes)), SearchGrid(*axes)
        assert grid == want
        assert hash(grid) == hash(want)
        assert (grid.cells(), grid.size) == (want.cells(), want.size) and grid.size == 8
        assert SearchGrid.from_json(grid.to_json()) == grid

    def test_cells_deduplicate_in_grid_order(self):
        grid = SearchGrid(
            smallest_options=(None, None, SmallestPartRule(2)),
            diff_options=(RR_DIFF,),
            congruence_options=((),),
        )
        cells = grid.cells()
        assert grid.size == 3
        assert len(cells) == 2
        assert cells[0].smallest is None
        assert cells[1].smallest == SmallestPartRule(2)


class TestRunSearch:
    def test_argument_validation(self):
        grid = tiny_grid()
        with pytest.raises(ValueError):
            run_search(grid, jobs=0)
        with pytest.raises(ValueError):
            run_search(grid, refine_order=30)

    def test_gap_two_cells_hit_mod_five(self):
        report = run_search(tiny_grid())
        assert report.cells_run == 2
        assert report.failures == ()
        shapes = {
            hit.conditions.smallest: hit.shape for hit in report.hits
        }
        assert shapes[None] == ProductShape.from_residues(5, {1, 4})
        assert shapes[SmallestPartRule(2)] == ProductShape.from_residues(5, {2, 3})

    def test_unrestricted_cell_hits_period_one(self):
        grid = SearchGrid(
            smallest_options=(None,),
            diff_options=((),),
            congruence_options=((),),
            order=24,
        )
        report = run_search(grid)
        assert len(report.hits) == 1
        assert report.hits[0].shape == ProductShape(1, (1,))

    def test_capparelli_style_cell(self):
        # distinct parts with gap >= 2 unless the pair sums to a multiple
        # of 3; smallest part at least 2
        grid = SearchGrid(
            smallest_options=(SmallestPartRule(2),),
            diff_options=((DiffDistRule(1, 2),),),
            congruence_options=((CongruenceRule(1, 3, 0, 3),),),
            order=30,
        )
        report = run_search(grid)
        assert len(report.hits) == 1
        shape = report.hits[0].shape
        assert shape.period == 12
        assert shape.residues == frozenset({2, 3, 9, 10})

    def test_per_cell_failure_is_recorded(self):
        # order 1 cannot certify two repeats of any period
        grid = tiny_grid(order=1)
        report = run_search(grid)
        assert report.hits == ()
        assert len(report.failures) == 2
        for conds_json, error in report.failures:
            ConditionSet.loads(conds_json)
            assert "ValueError" in error

    def test_deterministic_across_jobs(self):
        grid = tiny_grid(
            congruence_options=((), (CongruenceRule(1, 1, 0, 3),)),
        )
        solo = run_search(grid, jobs=1).dumps()
        duo = run_search(grid, jobs=2).dumps()
        again = run_search(grid, jobs=1).dumps()
        assert strip_timing(solo) == strip_timing(duo)
        assert strip_timing(solo) == strip_timing(again)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8, 100_000])
    def test_pool_starts_at_most_one_worker_per_cell(self, monkeypatch, jobs):
        # the pool forks all its workers at the first submit, so a pool
        # larger than its cells only forks idle workers; this one records
        # the size asked for and maps in process, so it starts none
        import concurrent.futures

        grid = tiny_grid(diff_options=(RR_DIFF, (DiffDistRule(1, 3),), ()))
        solo = run_search(grid, refine_order=60)
        assert (solo.cells_run, len(solo.hits)) == (6, 3)
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        report = run_search(grid, jobs=jobs, refine_order=60)
        assert sizes == [w for w in (min(jobs, 6), min(jobs, 3)) if w > 1]
        assert strip_timing(report.dumps()) == strip_timing(solo.dumps())

    def test_refine_annotates_hits(self):
        report = run_search(tiny_grid(), refine_order=60)
        assert report.hits
        for hit in report.hits:
            assert hit.refined is not None
            assert hit.refined["order"] == 60
            assert hit.refined["persisted"] is True

    def test_refine_records_a_period_that_does_not_persist(self):
        # the gap-3 cell looks periodic with period 24 when min_repeats is 1
        # at order 24, but its exponents at order 60 only repeat with the
        # whole window as the period
        grid = SearchGrid(
            smallest_options=(None,),
            diff_options=((DiffDistRule(1, 3),),),
            congruence_options=((),),
            order=24,
            min_repeats=1,
        )
        report = run_search(grid, refine_order=60)
        (hit,) = report.hits
        assert hit.shape.period == 24
        refined = hit.refined
        assert set(refined) == {"order", "persisted", "period", "profile"}
        assert refined["order"] == 60
        assert refined["persisted"] is False
        assert refined["period"] == 60
        assert len(refined["profile"]) == 60
        duo = run_search(grid, jobs=2, refine_order=60)
        assert strip_timing(duo.dumps()) == strip_timing(report.dumps())

    def test_refine_records_a_failure(self, monkeypatch):
        # in process only: the patch does not reach pool workers
        import sumside.search as search

        real = search.euler_factorize

        def fails_at_refine_order(series):
            if series.order == 60:
                raise ArithmeticError("no exponents at order 60")
            return real(series)

        monkeypatch.setattr(search, "euler_factorize", fails_at_refine_order)
        report = run_search(tiny_grid(), refine_order=60)
        assert report.failures == ()
        assert len(report.hits) == 2
        for hit in report.hits:
            assert hit.shape.period == 5
            assert hit.refined == {
                "order": 60,
                "persisted": False,
                "error": "ArithmeticError: no exponents at order 60",
            }

    def test_sweep_calls_each_patchable_name_once_per_cell(self, monkeypatch):
        # profilers wrap these module-level names of sumside.search, so the
        # sweep must look each one up at call time
        import sumside.search as search

        grid = tiny_grid(
            smallest_options=(None, SmallestPartRule(2), None),
            congruence_options=((), (CongruenceRule(1, 1, 0, 3),)),
        )
        calls = {}

        def counting(name):
            real = getattr(search, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("_sift_cell", "count_sum_side", "euler_factorize", "detect_period"):
            calls[name] = 0
            monkeypatch.setattr(search, name, counting(name))
        report = run_search(grid, jobs=1)
        assert report.failures == ()
        assert report.cells_run == len(grid.cells()) == 4
        assert calls == dict.fromkeys(calls, report.cells_run)

    def test_report_json_shape(self):
        report = run_search(tiny_grid())
        obj = report.to_json()
        assert obj["schema_version"] == 1
        assert obj["grid_size"] == 2
        assert obj["cells_run"] == 2
        parsed = json.loads(report.dumps())
        assert parsed == json.loads(json.dumps(obj))

    def test_hit_json_fields(self):
        hit = CandidateHit(
            ConditionSet(diffs=RR_DIFF),
            ProductShape.from_residues(5, {1, 4}),
            30,
        )
        obj = hit.to_json()
        assert set(obj) == {
            "conditions",
            "period",
            "profile",
            "residues",
            "symmetric",
            "description",
            "order_checked",
        }
        assert obj["residues"] == [1, 4]
        assert obj["symmetric"] is True

    def test_non_binary_hit_serializes(self):
        hit = CandidateHit(ConditionSet(), ProductShape(2, (2, 0)), 20)
        obj = hit.to_json()
        assert obj["residues"] is None
        assert obj["symmetric"] is None
        assert "non-partition-style" in obj["description"]
