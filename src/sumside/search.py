"""Grid sweeps over sum-side conditions, sifting for periodic products.

A SearchGrid is the cartesian product of smallest-part options, difference
rule combinations, and congruence rule combinations.  Each resulting
ConditionSet is counted to the grid's order, factored into an Euler product
(on a short prefix first, which rules most series out), and kept as a hit
when the exponent sequence is purely periodic.  The unit of work is a batch
of cells that owns the row cache and a factor memo for its life: the whole
sweep inline, or whole (diffs, congruences) rows in a pool worker.  The
sweep and the refine pass (the grid at the refine order) sift through the
same helper.  Output order follows grid order, never worker completion
order, so reports are deterministic for any worker count.
"""

from __future__ import annotations

import json
import time
from functools import partial
from itertools import product
from math import prod

from ._record import Record, replace
from .partitions import (
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    SmallestPartRule,
    _json_int,
    _json_keys,
    _json_list,
    _open_rows,
    count_sum_side,
)
from .products import ProductShape, _period_limit, describe, detect_period
from .series import _MARGIN, _proposed, euler_factorize

SCHEMA_VERSION = 1


class SearchGrid(Record):
    """Cartesian product of condition options plus periodicity thresholds.

    The first three fields are ConditionSet's slots, in its order, each
    holding options for that slot: any iterable, stored as a tuple of
    options checked by ConditionSet._check_slot, so errors name the slot as
    a grid file does.  A diffs or congruences option is a combination
    (possibly empty) of rules applied together; smallest may include None
    for "no smallest-part restriction".
    """

    smallest: tuple[SmallestPartRule | None, ...]
    diffs: tuple[tuple[DiffDistRule, ...], ...]
    congruences: tuple[tuple[CongruenceRule, ...], ...]
    order: int = 30
    p_max: int = 64
    min_repeats: int = 2

    def __post_init__(self):
        _period_limit(self.order, self.p_max, self.min_repeats)  # else every cell would raise
        for slot in ConditionSet._fields:
            value = getattr(self, slot)
            try:
                numbered = enumerate(value)
            except TypeError:
                raise ValueError(
                    f"{slot}: expected a sequence of options, got {value!r}"
                ) from None
            options = tuple(
                ConditionSet._check_slot(slot, option, f"{slot}[{i}]") for i, option in numbered
            )
            if not options:
                raise ValueError(f"{slot}: expected at least one option")
            object.__setattr__(self, slot, options)

    @property
    def size(self) -> int:
        return prod(len(getattr(self, slot)) for slot in ConditionSet._fields)

    def cells(self) -> list[ConditionSet]:
        """Grid-order condition sets, deduplicated by value, so purely
        structurally: Smallest(1, unbounded) counts like the no-rule option,
        yet stays a cell of its own."""
        slots = (getattr(self, slot) for slot in ConditionSet._fields)
        return list(dict.fromkeys(ConditionSet(*cell) for cell in product(*slots)))

    def to_json(self) -> dict:
        obj = {"schema_version": SCHEMA_VERSION}
        obj.update((k, getattr(self, k)) for k in self._defaults)
        for slot in ConditionSet._fields:
            obj[slot] = [ConditionSet._write_slot(slot, o) for o in getattr(self, slot)]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SearchGrid":
        """Raises ValueError naming the key path of the first bad entry.  An
        absent slot has one option, its ConditionSet default."""
        obj = _json_keys(obj, ("schema_version", *cls._fields), "")
        version = obj.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported grid schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        slots = {
            slot: [
                ConditionSet._read_slot(slot, o, f"{slot}[{i}]")
                for i, o in enumerate(_json_list(obj[slot], slot))
            ] if slot in obj else (ConditionSet._defaults[slot],)
            for slot in ConditionSet._fields
        }
        return cls(
            **slots, **{k: _json_int(obj, k, default=d) for k, d in cls._defaults.items()}
        )


class CandidateHit(Record):
    """A condition set whose factored sum side has a certified period; a
    refine pass sets refined to (its order, _sift_cell's shape and error)."""

    conditions: ConditionSet
    shape: ProductShape
    order_checked: int
    refined: tuple[int, ProductShape | None, str | None] | None = None

    def to_json(self) -> dict:
        binary = self.shape.binary
        obj = {
            "conditions": self.conditions.to_json(),
            "period": self.shape.period,
            "profile": list(self.shape.exponent_profile),
            "residues": sorted(self.shape.residues) if binary else None,
            "symmetric": self.shape.symmetric if binary else None,
            "description": describe(self.shape),
            "order_checked": self.order_checked,
        }
        if self.refined is not None:
            order, shape, error = self.refined
            refined = obj["refined"] = {"order": order, "persisted": shape == self.shape}
            if error is not None:
                refined["error"] = error
            elif shape is not None:
                refined["period"] = shape.period
                refined["profile"] = list(shape.exponent_profile)
        return obj


class CandidateReport(Record):
    """Full sweep outcome: hits in grid order plus run metadata."""

    grid_size: int
    cells_run: int
    order: int
    p_max: int
    min_repeats: int
    hits: tuple[CandidateHit, ...]
    failures: tuple[tuple[ConditionSet, str], ...]
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            **self.__dict__,
            "hits": [h.to_json() for h in self.hits],
            "failures": [{"conditions": c.to_json(), "error": e} for c, e in self.failures],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def _sift_cell(conditions: ConditionSet, grid: SearchGrid, factored: dict):
    """Count, factor, and test one cell at the grid's order and thresholds.

    factored holds each distinct series' exponents through the order, or
    None for a series that cannot be a hit, by coefficient tuple: equal
    series factor alike, so each is factored once.  A hit needs a period
    p <= p_limit (_period_limit), so the series' prefix through
    k0 = min(N, p_limit + _MARGIN) proposes its exponents (series._proposed
    states why that is sound), and detect_period tests them: hits and
    reports are those of factoring every series in full.  Returns
    (ProductShape | None, error | None); the grid refuses an order too short
    to certify a period, so an error is a bug."""
    try:
        counts = count_sum_side(conditions, grid.order)
        if counts.coeffs not in factored:
            limit = _period_limit(counts.order, grid.p_max, grid.min_repeats)
            head = euler_factorize(counts.truncate(min(counts.order, limit + _MARGIN)))
            factored[counts.coeffs] = _proposed(counts.coeffs, head.coeffs, limit)
        exps = factored[counts.coeffs]
        if exps is None:
            return None, None
        return detect_period(exps, p_max=grid.p_max, min_repeats=grid.min_repeats), None
    except Exception as exc:  # one cell's fault must not abort the sweep
        return None, f"{type(exc).__name__}: {exc}"


def _sift_cells(cells: list[ConditionSet], grid: SearchGrid) -> list:
    """One batch: _sift_cell over cells in order, with the row cache open
    and a factor memo of its own, both for the batch only.  Cells, grid and
    shapes cross a process boundary as the frozen records they are."""
    _open_rows(grid.smallest)
    try:
        factored: dict = {}
        return [_sift_cell(c, grid, factored) for c in cells]
    finally:
        _open_rows(None)


def _sift_all(cells: list[ConditionSet], grid: SearchGrid, jobs: int) -> list:
    """_sift_cell's results for cells with grid, in cell order: one batch
    inline for one worker, else on a pool of at most one worker process per
    row (diffs, congruences), since the pool forks all its workers at the
    first submit.  A pool gets whole rows, so that no row is swept twice, in
    about four batches per worker, so that the load stays even."""
    if jobs > 1:
        rows: dict = {}
        for c in cells:
            rows.setdefault((c.diffs, c.congruences), []).append(c)
        jobs = min(jobs, len(rows))
    if jobs <= 1:
        return _sift_cells(cells, grid)
    import signal
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    size = -(-len(cells) // (4 * jobs))
    batches = [[]]
    for row in rows.values():
        if len(batches[-1]) >= size:
            batches.append([])
        batches[-1] += row
    pool = ProcessPoolExecutor(
        jobs, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )  # only the parent reacts to Ctrl-C
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # until workers ignore it
    try:
        out = pool.map(partial(_sift_cells, grid=grid), batches)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        sifted = {c: r for batch, rs in zip(batches, out) for c, r in zip(batch, rs)}
        return [sifted[c] for c in cells]
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pool.shutdown(cancel_futures=True)


def run_search(
    grid: SearchGrid, jobs: int = 1, refine_order: int | None = None
) -> CandidateReport:
    """Sweep the grid; optionally re-check every hit at a higher order.

    Cells are independent; with jobs > 1 whole rows of them are distributed
    over a process pool, but results are put back in cell order, so the
    report is identical for any jobs value.  The refine pass re-runs only
    the hit cells at refine_order and records whether the period survives.
    A failures entry, a cell whose sift raised, is a bug (see _sift_cell).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if refine_order is not None and refine_order <= grid.order:
        raise ValueError("refine order must exceed the grid order")
    t0 = time.perf_counter()
    cells = grid.cells()
    hits: list[CandidateHit] = []
    failures: list[tuple[ConditionSet, str]] = []
    for conds, (shape, error) in zip(cells, _sift_all(cells, grid, jobs)):
        if error is not None:
            failures.append((conds, error))
        elif shape is not None:
            hits.append(CandidateHit(conds, shape, grid.order))

    if refine_order is not None and hits:
        refine_grid = replace(grid, order=refine_order)
        rechecked = _sift_all([h.conditions for h in hits], refine_grid, jobs)
        hits = [replace(h, refined=(refine_order, *r)) for h, r in zip(hits, rechecked)]

    elapsed = (time.perf_counter() - t0) * 1000.0
    return CandidateReport(
        grid_size=grid.size,
        cells_run=len(cells),
        order=grid.order,
        p_max=grid.p_max,
        min_repeats=grid.min_repeats,
        hits=tuple(hits),
        failures=tuple(failures),
        elapsed_ms=elapsed,
    )
