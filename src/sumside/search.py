"""Grid sweeps over sum-side conditions, sifting for periodic products.

A SearchGrid is the cartesian product of smallest-part options, difference
rule combinations, and congruence rule combinations.  Each resulting
ConditionSet is counted to the grid's order, factored into an Euler product,
and kept as a hit when the exponent sequence is purely periodic.  Cells and
their product shapes are frozen records that pickle as they are, so they
cross the worker pool unconverted, and the sweep and the refine pass sift
through the same helper.  Output order follows grid order, never worker
completion order, so reports are deterministic for any worker count.
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
    _check_ints,
    _json_int,
    _json_keys,
    _json_list,
    count_sum_side,
)
from .products import ProductShape, detect_period, describe, symmetry_classify
from .series import euler_factorize

SCHEMA_VERSION = 1


# Each grid axis lists options for one ConditionSet slot, in the slots' field
# order, so one option from each axis gives ConditionSet's positional fields.
_AXES = (
    ("smallest_options", "smallest"),
    ("diff_options", "diffs"),
    ("congruence_options", "congruences"),
)


class SearchGrid(Record):
    """Cartesian product of condition options plus periodicity thresholds.

    Each diff/congruence option is itself a combination (possibly empty) of
    rules applied together; smallest options may include None for "no
    smallest-part restriction".  An axis may be any iterable of options; it
    is stored as a tuple of them, each checked and normalised by
    ConditionSet._check_slot as the slot it fills.
    """

    smallest_options: tuple[SmallestPartRule | None, ...]
    diff_options: tuple[tuple[DiffDistRule, ...], ...]
    congruence_options: tuple[tuple[CongruenceRule, ...], ...]
    order: int = 30
    p_max: int = 64
    min_repeats: int = 2

    def __post_init__(self):
        _check_ints(self, self._defaults)  # the defaulted fields: order and thresholds
        for axis, slot in _AXES:
            value = getattr(self, axis)
            try:
                numbered = enumerate(value)
            except TypeError:
                raise ValueError(
                    f"{axis}: expected a sequence of options, got {value!r}"
                ) from None
            options = tuple(
                ConditionSet._check_slot(slot, option, f"{axis}[{i}]") for i, option in numbered
            )
            if not options:
                raise ValueError("every grid axis needs at least one option")
            object.__setattr__(self, axis, options)
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")
        if self.min_repeats < 1:
            raise ValueError("min_repeats must be >= 1")

    @property
    def size(self) -> int:
        return prod(len(getattr(self, axis)) for axis, _ in _AXES)

    def cells(self) -> list[ConditionSet]:
        """Grid-order condition sets, deduplicated by value, so purely
        structurally: Smallest(1, unbounded) counts like the no-rule option,
        yet stays a cell of its own."""
        axes = (getattr(self, axis) for axis, _ in _AXES)
        return list(dict.fromkeys(ConditionSet(*slots) for slots in product(*axes)))

    def to_json(self) -> dict:
        obj = {"schema_version": SCHEMA_VERSION}
        obj.update((k, getattr(self, k)) for k in self._defaults)
        for axis, slot in _AXES:
            obj[slot] = [ConditionSet._write_slot(slot, o) for o in getattr(self, axis)]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SearchGrid":
        """Raises ValueError naming the key path of the first bad entry.  An
        absent axis has one option, the slot's ConditionSet default."""
        known = ("schema_version", *ConditionSet._fields, *cls._defaults)
        obj = _json_keys(obj, known, "")
        version = obj.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported grid schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        axes = {axis: (ConditionSet._defaults[slot],) for axis, slot in _AXES}
        for axis, slot in _AXES:
            if slot in obj:
                axes[axis] = [
                    ConditionSet._read_slot(slot, o, f"{slot}[{i}]")
                    for i, o in enumerate(_json_list(obj[slot], slot))
                ]
        return cls(
            **axes, **{k: _json_int(obj, k, default=d) for k, d in cls._defaults.items()}
        )


class CandidateHit(Record):
    """A condition set whose factored sum side has a certified period."""

    conditions: ConditionSet
    shape: ProductShape
    order_checked: int
    refined: dict | None = None

    def to_json(self) -> dict:
        binary = self.shape.binary
        obj = {
            "conditions": self.conditions.to_json(),
            "period": self.shape.period,
            "profile": list(self.shape.exponent_profile),
            "residues": sorted(self.shape.residues) if binary else None,
            "symmetric": symmetry_classify(self.shape) == "symmetric" if binary else None,
            "description": describe(self.shape),
            "order_checked": self.order_checked,
        }
        if self.refined is not None:
            obj["refined"] = self.refined
        return obj


class CandidateReport(Record):
    """Full sweep outcome: hits in grid order plus run metadata."""

    grid_size: int
    cells_run: int
    order: int
    p_max: int
    min_repeats: int
    hits: tuple[CandidateHit, ...]
    failures: tuple[tuple[str, str], ...]
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "grid_size": self.grid_size,
            "cells_run": self.cells_run,
            "order": self.order,
            "p_max": self.p_max,
            "min_repeats": self.min_repeats,
            "hits": [h.to_json() for h in self.hits],
            "failures": [
                {"conditions": json.loads(c), "error": msg} for c, msg in self.failures
            ],
            "elapsed_ms": self.elapsed_ms,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def _sift_cell(conditions: ConditionSet, order: int, p_max: int, min_repeats: int):
    """Worker: count, factor, and test one cell for periodicity.

    A cell and its shape cross a process boundary as the frozen records
    they are.  Returns (ProductShape | None, error | None)."""
    try:
        exps = euler_factorize(count_sum_side(conditions, order))
        return detect_period(exps, p_max=p_max, min_repeats=min_repeats), None
    except Exception as exc:  # per-cell failures must not abort the sweep
        return None, f"{type(exc).__name__}: {exc}"


def _sift_all(cells: list[ConditionSet], order: int, grid: SearchGrid, jobs: int) -> list:
    """_sift_cell over cells at order with the grid's period thresholds, in
    cell order: on a pool of at most one worker process per cell, or inline
    when that is one worker.  The pool forks all its workers at the first
    submit, so more workers than cells would only be forked and joined."""
    sift = partial(
        _sift_cell, order=order, p_max=grid.p_max, min_repeats=grid.min_repeats
    )
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        return [sift(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(sift, cells))


def run_search(
    grid: SearchGrid, jobs: int = 1, refine_order: int | None = None
) -> CandidateReport:
    """Sweep the grid; optionally re-check every hit at a higher order.

    Cells are independent; with jobs > 1 they are distributed over a process
    pool but results are consumed in submission order, so the report is
    identical for any jobs value.  The refine pass re-runs only the hit cells
    at refine_order and records whether the period survives.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if refine_order is not None and refine_order <= grid.order:
        raise ValueError("refine order must exceed the grid order")
    t0 = time.perf_counter()
    cells = grid.cells()
    hits: list[CandidateHit] = []
    failures: list[tuple[str, str]] = []
    for conds, (shape, error) in zip(cells, _sift_all(cells, grid.order, grid, jobs)):
        if error is not None:
            failures.append((conds.dumps(), error))
        elif shape is not None:
            hits.append(CandidateHit(conds, shape, grid.order))

    if refine_order is not None and hits:
        rechecked = _sift_all([h.conditions for h in hits], refine_order, grid, jobs)
        for i, (shape, error) in enumerate(rechecked):
            info = {"order": refine_order, "persisted": shape == hits[i].shape}
            if error is not None:
                info["error"] = error
            elif shape is not None:
                info["period"] = shape.period
                info["profile"] = list(shape.exponent_profile)
            hits[i] = replace(hits[i], refined=info)

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
