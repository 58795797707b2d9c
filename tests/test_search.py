"""Grid construction, the sweep itself, and report determinism."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from sumside import (
    BUILTIN_IDENTITIES,
    CandidateHit,
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    IdentitySpec,
    ProductShape,
    SearchGrid,
    SmallestPartRule,
    TruncatedSeries,
    count_sum_side,
    detect_period,
    euler_factorize,
    expand_product,
    run_search,
    verify_identity,
)
from sumside._record import replace
from sumside.partitions import _open_rows
from sumside.series import _factor, _period

RR_DIFF = (DiffDistRule(1, 2),)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_grid(name: str, order: int) -> SearchGrid:
    """The grid of configs/<name>.json at order."""
    grid = SearchGrid.from_json(json.loads((CONFIGS / f"{name}.json").read_text()))
    return replace(grid, order=order)


def tiny_grid(**overrides) -> SearchGrid:
    kwargs = dict(
        smallest=(None, SmallestPartRule(2)),
        diffs=(RR_DIFF,),
        congruences=((),),
        order=30,
    )
    kwargs.update(overrides)
    return SearchGrid(**kwargs)


def strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": X', text)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with one that maps in process, so that it
    starts no worker; returns the pools made, each as (max_workers, the
    batches its map received)."""
    import concurrent.futures

    pools = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.batches = []
            pools.append((max_workers, self.batches))

        def map(self, fn, items, chunksize=1):
            self.batches.extend(items)
            return map(fn, self.batches)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


class TestSearchGrid:
    def test_size_and_cells(self):
        grid = tiny_grid()
        assert grid.size == 2
        assert len(grid.cells()) == 2

    def test_empty_axis_rejected(self):
        # the error used to name no slot: "every grid axis needs at least
        # one option", from code and from a grid file alike
        for slot in ("smallest", "diffs", "congruences"):
            message = f"^{slot}: expected at least one option$"
            with pytest.raises(ValueError, match=message):
                tiny_grid(**{slot: ()})
            with pytest.raises(ValueError, match=message):
                SearchGrid.from_json({**tiny_grid().to_json(), slot: []})

    def test_period_thresholds_rejected_below_one(self):
        for key in ("p_max", "min_repeats"):
            for value in (0, -3):
                with pytest.raises(ValueError, match=key):
                    tiny_grid(**{key: value})

    def test_order_below_min_repeats_rejected(self):
        # detect_period would raise for every cell of such a grid
        message = "^order 1 is below min_repeats 2, too short to certify any period$"
        with pytest.raises(ValueError, match=message):
            tiny_grid(order=1, min_repeats=2)
        obj = {**tiny_grid().to_json(), "order": 1, "min_repeats": 2}
        with pytest.raises(ValueError, match=message):
            SearchGrid.from_json(obj)
        assert tiny_grid(order=2, min_repeats=2).order == 2

    def test_json_round_trip(self):
        grid = tiny_grid(
            congruences=((), (CongruenceRule(1, 1, 0, 3),)),
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
            tiny_grid(smallest=(None,), diffs=((DiffDistRule(True, 2),),))

    def test_rule_slots_hold_their_rule_kind(self):
        # the one-cell grid with smallest=(5,) used to construct and
        # then end run_search in an AttributeError from ConditionSet.to_json
        cases = [
            (dict(smallest=5), "smallest: expected a sequence of options, got 5"),
            (
                dict(smallest=(5,)),
                "smallest[0]: expected a SmallestPartRule or None, got 5",
            ),
            (
                dict(diffs=(RR_DIFF, (3,))),
                "diffs[1][0]: expected a DiffDistRule, got 3",
            ),
            (
                dict(congruences=((), RR_DIFF)),
                "congruences[1][0]: expected a CongruenceRule, "
                "got DiffDistRule(distance=1, min_diff=2)",
            ),
        ]
        for overrides, message in cases:
            with pytest.raises(ValueError) as info:
                tiny_grid(**overrides)
            assert str(info.value) == message
        with pytest.raises(ValueError, match=r"^smallest\[0\]"):
            run_search(
                SearchGrid(smallest=(5,), diffs=((),), congruences=((),))
            )

    @pytest.mark.parametrize(
        "axis, error",
        [
            (lambda options: [list(o) if type(o) is tuple else o for o in options], None),
            (lambda options: tuple(list(o) if type(o) is tuple else o for o in options), None),
            (lambda options: iter([iter(o) if type(o) is tuple else o for o in options]), None),
            (lambda options: iter(()), "smallest: expected at least one option"),
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
            smallest=(None, None, SmallestPartRule(2)),
            diffs=(RR_DIFF,),
            congruences=((),),
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
            smallest=(None,),
            diffs=((),),
            congruences=((),),
            order=24,
        )
        report = run_search(grid)
        assert len(report.hits) == 1
        assert report.hits[0].shape == ProductShape(1, (1,))

    def test_capparelli_style_cell(self):
        # distinct parts with gap >= 2 unless the pair sums to a multiple
        # of 3; smallest part at least 2
        grid = SearchGrid(
            smallest=(SmallestPartRule(2),),
            diffs=((DiffDistRule(1, 2),),),
            congruences=((CongruenceRule(1, 3, 0, 3),),),
            order=30,
        )
        report = run_search(grid)
        assert len(report.hits) == 1
        shape = report.hits[0].shape
        assert shape.period == 12
        assert shape.residues == frozenset({2, 3, 9, 10})

    def test_per_cell_failure_is_recorded(self, monkeypatch):
        # in process only: the patch does not reach pool workers; a grid
        # cannot be built so that every cell fails, so one cell's factoring
        # is made to raise, as a bug would
        import sumside.search as search

        real = search.euler_factorize
        calls = []

        def fails_on_the_second_cell(series):
            calls.append(series)
            if len(calls) == 2:
                raise ValueError("planted fault")
            return real(series)

        monkeypatch.setattr(search, "euler_factorize", fails_on_the_second_cell)
        grid = tiny_grid()
        report = run_search(grid)
        assert [h.conditions for h in report.hits] == grid.cells()[:1]
        assert len(report.failures) == 1
        entries = report.to_json()["failures"]
        for (conds, error), entry in zip(report.failures, entries, strict=True):
            assert isinstance(conds, ConditionSet)
            assert conds == grid.cells()[1]
            assert entry == {"conditions": conds.to_json(), "error": error}
            assert error == "ValueError: planted fault"
        hash(report)  # its failures hold ConditionSets, not JSON text

    def test_deterministic_across_jobs(self):
        grid = tiny_grid(
            congruences=((), (CongruenceRule(1, 1, 0, 3),)),
        )
        solo = run_search(grid, jobs=1).dumps()
        duo = run_search(grid, jobs=2).dumps()
        trio = run_search(grid, jobs=3).dumps()
        again = run_search(grid, jobs=1).dumps()
        assert strip_timing(solo) == strip_timing(duo)
        assert strip_timing(solo) == strip_timing(trio)
        assert strip_timing(solo) == strip_timing(again)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8, 100_000])
    def test_pool_starts_at_most_one_worker_per_row(self, inline_pool, jobs):
        # the pool forks all its workers at the first submit, and a worker
        # takes whole (diffs, congruences) rows, so a pool larger than the
        # rows only forks idle workers
        grid = tiny_grid(diffs=(RR_DIFF, (DiffDistRule(1, 3),), ()))
        solo = run_search(grid, refine_order=60)
        assert (solo.cells_run, len(solo.hits)) == (6, 3)
        rows = [{(c.diffs, c.congruences) for c in cells}
                for cells in (grid.cells(), [h.conditions for h in solo.hits])]
        assert [len(r) for r in rows] == [3, 2]
        report = run_search(grid, jobs=jobs, refine_order=60)
        sizes = [w for w in (min(jobs, len(r)) for r in rows) if w > 1]
        assert [workers for workers, _ in inline_pool] == sizes
        assert strip_timing(report.dumps()) == strip_timing(solo.dumps())

    @pytest.mark.parametrize("name, order, jobs", [
        ("classics", 30, 2), ("classics", 30, 3), ("heavy", 40, 2),
    ])
    def test_pool_batches_are_whole_rows(self, inline_pool, name, order, jobs):
        # each row is swept by one worker, every cell is sifted once, and
        # about four batches per worker keep the load even
        grid = config_grid(name, order)
        solo = run_search(grid)
        report = run_search(grid, jobs=jobs)
        assert strip_timing(report.dumps()) == strip_timing(solo.dumps())
        ((workers, batches),) = inline_pool
        assert workers == jobs
        assert len(batches) <= 4 * jobs
        cells = [c for batch in batches for c in batch]
        assert len(cells) == len(grid.cells())
        assert set(cells) == set(grid.cells())
        batch_of = {}
        for i, batch in enumerate(batches):
            for c in batch:
                assert batch_of.setdefault((c.diffs, c.congruences), i) == i, c

    def test_refine_annotates_hits(self):
        report = run_search(tiny_grid(), refine_order=60)
        assert report.hits
        for hit in report.hits:
            assert hit.refined is not None
            refined = hit.to_json()["refined"]
            assert refined["order"] == 60
            assert refined["persisted"] is True
            hash(hit)  # refined is a tuple of values, not a dict
        hash(report)

    def test_refine_records_a_period_that_does_not_persist(self):
        # the gap-3 cell looks periodic with period 24 when min_repeats is 1
        # at order 24, but its exponents at order 60 only repeat with the
        # whole window as the period
        grid = SearchGrid(
            smallest=(None,),
            diffs=((DiffDistRule(1, 3),),),
            congruences=((),),
            order=24,
            min_repeats=1,
        )
        report = run_search(grid, refine_order=60)
        (hit,) = report.hits
        assert hit.shape.period == 24
        refined = hit.to_json()["refined"]
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

        # the refine pass at 60 factors each series' 46-term prefix first,
        # and the sweep at 30 factors nothing longer than 30 terms
        def fails_at_refine_order(series):
            if series.order > 30:
                raise ArithmeticError("no exponents past order 30")
            return real(series)

        monkeypatch.setattr(search, "euler_factorize", fails_at_refine_order)
        report = run_search(tiny_grid(), refine_order=60)
        assert report.failures == ()
        assert len(report.hits) == 2
        for hit in report.hits:
            assert hit.shape.period == 5
            assert hit.to_json()["refined"] == {
                "order": 60,
                "persisted": False,
                "error": "ArithmeticError: no exponents past order 30",
            }

    def test_sweep_calls_patchable_names_per_cell_and_factors_per_series(self, monkeypatch):
        # profilers wrap these module-level names of sumside.search, so the
        # sweep must look each one up at call time; a cell is counted and
        # tested once, and each distinct series is factored once (here the
        # congruence is vacuous under the diff rule, so two series)
        import sumside.search as search

        grid = tiny_grid(
            smallest=(None, SmallestPartRule(2), None),
            congruences=((), (CongruenceRule(1, 1, 0, 3),)),
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
        distinct = {count_sum_side(c, grid.order) for c in grid.cells()}
        assert len(distinct) == 2
        assert calls == {**dict.fromkeys(calls, report.cells_run), "euler_factorize": 2}

    def test_report_json_shape(self):
        report = run_search(tiny_grid())
        obj = report.to_json()
        assert obj["schema_version"] == 1
        assert obj["grid_size"] == 2
        assert obj["cells_run"] == 2
        parsed = json.loads(report.dumps())
        assert parsed == json.loads(json.dumps(obj))

    @pytest.mark.parametrize(
        "refine, digest",
        [
            (None, "586c280cd18cdd74de6053f0891fbdec96147d477c3c86aae744536799d92b27"),
            (60, "a022fa1ac33fdd602074cd3171f7f21760e166b4cebb7957b2413f4132c91258"),
        ],
    )
    def test_classics_report_bytes_are_pinned(self, refine, digest):
        # the report text, timing masked, of the classics grid at order 30;
        # a change to any hit, failure or key shows up as a new digest
        config = Path(__file__).resolve().parents[1] / "configs" / "classics.json"
        grid = SearchGrid.from_json(json.loads(config.read_text()))
        obj = {**run_search(grid, refine_order=refine).to_json(), "elapsed_ms": None}
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_every_classics_hit_is_a_spec_that_verifies(self):
        # a hit's (conditions, shape) is an identity spec as it stands; with
        # no recursion family, verify counts its sum side by the sweep
        config = Path(__file__).resolve().parents[1] / "configs" / "classics.json"
        grid = replace(SearchGrid.from_json(json.loads(config.read_text())), order=40)
        report = run_search(grid)
        assert len(report.hits) == 38
        for i, hit in enumerate(report.hits):
            result = verify_identity(IdentitySpec(f"hit{i}", hit.conditions, hit.shape), 40)
            assert (result.method, result.match) == ("enumeration", True), hit
            series = count_sum_side(hit.conditions, 40)
            exps = euler_factorize(series)
            assert detect_period(exps, grid.p_max, grid.min_repeats) == hit.shape
            assert expand_product(hit.shape.exponents(40)) == series

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


class TestSharedWork:
    """The search's row cache and factor memo change no cell's result."""

    @pytest.mark.parametrize(
        "name, order", [("classics", 30), ("classics", 200), ("classics", 400), ("heavy", 30)]
    )
    def test_row_cache_gives_every_cell_the_closed_series(self, name, order):
        # one sweep per (diffs, congruences) row serves every cell of it;
        # tools/ci_cli.sh checks the heavy grid at orders 200 and 400 too
        grid = config_grid(name, order)
        cells = grid.cells()
        closed = [count_sum_side(cs, order) for cs in cells]
        _open_rows(grid.smallest)
        try:
            opened = [count_sum_side(cs, order) for cs in cells]
        finally:
            _open_rows(None)
        assert opened == closed

    def test_interrupted_sweep_closes_the_row_cache(self, monkeypatch):
        # a KeyboardInterrupt is no cell's fault: it ends the batch, which
        # closes the row cache it opened
        import sumside.partitions as partitions
        import sumside.search as search

        def interrupted(series):
            assert partitions._rows is not None
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "euler_factorize", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_search(config_grid("classics", 30))
        assert partitions._rows is None

    def test_heavy_grid_hits_at_order_40(self):
        # 6 smallest-part options by 12 diff and 25 congruence options; its
        # hits hold I1-I6, each with its own product shape
        report = run_search(config_grid("heavy", 40))
        assert (report.grid_size, report.cells_run, report.failures) == (1800, 1800, ())
        assert len(report.hits) == 157
        shapes = {h.conditions: h.shape for h in report.hits}
        for name, spec in BUILTIN_IDENTITIES.items():
            assert shapes.get(spec.conditions) == spec.shape, name


def seeded_grid(seed: int, order: int) -> SearchGrid:
    """A grid of random smallest-part, difference and congruence options."""
    rng = random.Random(seed)
    smallest = [None] + [
        SmallestPartRule(rng.randint(1, 3), rng.choice((None, 1, 2))) for _ in range(2)
    ]
    diffs = [()] + [
        tuple(DiffDistRule(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 2)))
        for _ in range(3)
    ]
    congruences = [()]
    for _ in range(3):
        m = rng.randint(2, 4)
        rule = CongruenceRule(rng.randint(1, 2), rng.randint(-1, 3), rng.randrange(m), m)
        congruences.append((rule,))
    return SearchGrid(smallest, diffs, congruences, order=order)


class TestPrefixSieve:
    """A series whose prefix fits no certifiable period is no hit, and a
    survivor's exponents are certified by one product: the report is the one
    a full-order factor-and-detect of every series gives."""

    @staticmethod
    def both_reports(grid, monkeypatch):
        """(sieved report, the orders euler_factorize saw, full-order report);
        the second sweep reads the first one's counts."""
        import sumside.search as search

        orders, counts = [], {}
        real_factor, real_count = search.euler_factorize, search.count_sum_side

        def count(conditions, order):
            if (conditions, order) not in counts:
                counts[conditions, order] = real_count(conditions, order)
            return counts[conditions, order]

        monkeypatch.setattr(search, "count_sum_side", count)
        with monkeypatch.context() as m:
            m.setattr(search, "euler_factorize", lambda b: orders.append(b.order) or real_factor(b))
            sieved = run_search(grid)
        with monkeypatch.context() as m:
            m.setattr(search, "_proposed", lambda b, head, limit: TruncatedSeries(_factor(b)))
            full = run_search(grid)
        return sieved, orders, full

    @pytest.mark.parametrize(
        "name, order",
        [("classics", 60), ("classics", 200), ("classics", 400), ("heavy", 60), ("heavy", 200)],
    )
    def test_shipped_grids(self, name, order, monkeypatch):
        grid = config_grid(name, order)
        sieved, orders, full = self.both_reports(grid, monkeypatch)
        assert (sieved.hits, sieved.failures) == (full.hits, full.failures)
        assert full.failures == () and full.hits
        assert strip_timing(sieved.dumps()) == strip_timing(full.dumps())
        # every series is factored on its prefix only: a rejected one never
        # reaches full order, and every survivor here passes its certificate
        limit = min(grid.p_max, order // grid.min_repeats)
        assert set(orders) == {limit + 16}

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_grids(self, seed, monkeypatch):
        grid = seeded_grid(seed, 90)
        sieved, _, full = self.both_reports(grid, monkeypatch)
        assert strip_timing(sieved.dumps()) == strip_timing(full.dumps())
        assert full.failures == () and full.hits

    def test_a_survivor_whose_certificate_fails(self, monkeypatch):
        # parts of at least 100: a_1..a_99 are 0, so the 80-term prefix
        # fits period 1, the product refuses it, and the full route finds
        # no period; the cell must not become a hit
        import sumside.series as series

        grid = tiny_grid(smallest=(None, SmallestPartRule(100)), order=200)
        sieved, orders, full = self.both_reports(grid, monkeypatch)
        assert strip_timing(sieved.dumps()) == strip_timing(full.dumps())
        assert [h.conditions for h in full.hits] == grid.cells()[:1]
        assert orders == [80, 80]
        # the failed certificate divides the series once, in full, with no
        # second head and no second certificate
        divided, certified = [], []
        real_factor, real_certified = series._factor, series._certified
        monkeypatch.setattr(series, "_factor", lambda b: divided.append(len(b)) or real_factor(b))
        monkeypatch.setattr(
            series, "_certified", lambda *args: certified.append(args) or real_certified(*args)
        )
        assert strip_timing(run_search(grid).dumps()) == strip_timing(sieved.dumps())
        assert divided == [81, 81, 201]
        assert len(certified) == 2

    def test_a_hit_whose_period_is_the_limit(self, monkeypatch):
        # p_max is set to the longest period the grid's hits have, so that
        # p_limit is exactly that period: a sieve that tried one period too
        # few would drop those hits
        grid = seeded_grid(1, 90)
        longest = max(h.shape.period for h in run_search(grid).hits)
        grid = replace(grid, p_max=longest)
        sieved, _, full = self.both_reports(grid, monkeypatch)
        assert strip_timing(sieved.dumps()) == strip_timing(full.dumps())
        assert longest > 1 and any(h.shape.period == longest for h in full.hits)

    @pytest.mark.parametrize(
        "name, order, certificates",
        [("classics", 30, 11), ("classics", 40, 11), ("classics", 200, 11), ("heavy", 200, 24)],
    )
    def test_one_certificate_per_survivor(self, name, order, certificates, monkeypatch):
        # each distinct series is divided once, through min(order, limit + 16):
        # at order 200 that is an 80-term prefix, below the certified route's
        # order 2*_SEED, so euler_factorize divides it with no head of its
        # own.  A series whose prefix fits a period <= limit is certified
        # once, by one product, and every survivor here passes, so no series
        # reaches a full-order division
        import sumside.search as search
        import sumside.series as series

        divided, certified, distinct = [], [], set()
        real_factor, real_certified, real_count = (
            series._factor, series._certified, search.count_sum_side
        )

        def count(conditions, order):
            counts = real_count(conditions, order)
            distinct.add(counts.coeffs)
            return counts

        monkeypatch.setattr(search, "count_sum_side", count)
        monkeypatch.setattr(series, "_factor", lambda b: divided.append(tuple(b)) or real_factor(b))
        monkeypatch.setattr(
            series, "_certified", lambda *args: certified.append(args) or real_certified(*args)
        )
        grid = config_grid(name, order)
        report = run_search(grid)
        assert report.hits and report.failures == ()
        limit = min(grid.p_max, order // grid.min_repeats)
        k0 = min(order, limit + 16)
        assert sorted(divided) == sorted(s[: k0 + 1] for s in distinct)
        survivors = [s for s in distinct if _period(real_factor(s[: k0 + 1]), limit) is not None]
        assert len(certified) == len(survivors) == certificates
