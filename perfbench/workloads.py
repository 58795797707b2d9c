"""The benchmark's workloads: seeded inputs, CLI commands, output checks,
one deliberate corruption per checker, and the traced in-process layer pass.

Each workload writes its inputs into a work directory, names the `sumside`
commands one repetition runs, and checks every output against the
benchmark's own reference values.  `corrupt` damages a good output so the run
can confirm the checker rejects it.  `layer_pass` repeats the workload's work
through the package's public functions, with a span around each call, and
returns the seconds spent in the calls that mirror what the CLI does.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from reference import digest, expand_periodic, residue_profile, satisfies


@dataclass(frozen=True)
class Output:
    """One CLI command's result: exit code, stdout, and its --out file."""

    returncode: int
    stdout: str
    report: str | None = None


def _identity_profile(ident: dict) -> list[int]:
    return residue_profile(ident["modulus"], ident["residues"])


class Workload:
    name = ""
    seeded = False
    work_unit = ""
    #: Python run in a fresh interpreter, in the work directory, for setup_s.
    setup_code = "import sumside.cli"

    def __init__(self, fixtures: dict, work: Path, seed: int):
        self.identities = fixtures["identities"]
        # Each command: (arguments after `sumside`, its --out file or None).
        self.commands: list[tuple[list[str], str | None]] = []
        self.reference_commands: list[tuple[list[str], str | None]] = []
        self.work_items = 0

    def check(self, index: int, out: Output) -> list[str]:
        raise NotImplementedError

    def check_reference(self, index: int, out: Output) -> list[str]:
        return self.check(index, out)

    def corrupt(self, index: int, out: Output) -> Output:
        raise NotImplementedError

    #: Spans whose summed duration is the in-process time of the CLI's work.
    mirror_spans: tuple[str, ...] = ()

    @property
    def parts(self) -> list[Workload]:
        return [self]

    def layer_pass(self, tracer, pkg) -> list[str]:
        """The workload's work through the public functions; its problems."""
        raise NotImplementedError

    def mirror(self, tracer) -> float:
        return sum(d for name in self.mirror_spans for d in tracer.durations(name))

    def per_layer(self, tracer, reference_wall: float) -> dict[str, float]:
        """Per-layer metrics from the traced pass; reference_wall is the wall
        time of the reference commands."""
        raise NotImplementedError


class Verify(Workload):
    """`verify --identity all`: recursion stepping against product expansion."""

    name = "verify"
    work_unit = "coefficients verified"
    mirror_spans = ("verify.identity",)

    def __init__(self, fixtures, work, seed):
        super().__init__(fixtures, work, seed)
        spec = fixtures["verify"]
        self.order = spec["order"]
        self.digests = spec["digests"]
        n = self.order
        self.commands = [(
            ["verify", "--identity", "all", "--order", str(n), "--out", "verify.json"],
            "verify.json",
        )]
        self.work_items = len(self.identities) * (n + 1)
        # Tie each recorded digest to an expansion independent of the package.
        self.products = {
            name: expand_periodic(_identity_profile(ident), n)
            for name, ident in self.identities.items()
        }
        for name, coeffs in self.products.items():
            if digest(coeffs) != self.digests[name]:
                raise RuntimeError(f"fixture digest for {name} disagrees with reference")
        self.steps = 0
        self.bits = 0

    def check(self, index, out):
        problems = []
        if out.returncode != 0:
            problems.append(f"verify exited {out.returncode}")
        try:
            reports = {r["identity"]: r for r in json.loads(out.report or "")}
        except (ValueError, TypeError, KeyError) as exc:
            return problems + [f"verify report unreadable: {exc}"]
        if sorted(reports) != sorted(self.identities):
            problems.append(f"verify reported {sorted(reports)}")
        for name in sorted(self.identities):
            r = reports.get(name)
            if r is None:
                continue
            want = self.digests[name]
            if not r["match"] or r["first_mismatch"] is not None:
                problems.append(f"{name}: mismatch at q^{r['first_mismatch']}")
            if r["order"] != self.order:
                problems.append(f"{name}: verified to q^{r['order']}")
            if r["sum_digest"] != want or r["product_digest"] != want:
                problems.append(f"{name}: digest differs from the recorded one")
            if f"{name}: match through q^{self.order} " not in out.stdout:
                problems.append(f"{name}: no match line on stdout")
        return problems

    def corrupt(self, index, out):
        """A sum side with one coefficient flipped."""
        reports = json.loads(out.report)
        flipped = list(self.products[reports[0]["identity"]])
        flipped[7] += 1
        reports[0]["sum_digest"] = digest(flipped)
        return replace(out, report=json.dumps(reports))

    def layer_pass(self, tracer, pkg):
        n = self.order
        problems = []
        self.steps = self.bits = 0
        for name, ident in sorted(self.identities.items()):
            family = ident["family"]
            with tracer.span("verify.identity"):
                registers = tracer.call(
                    "recursions.capped_polynomial", pkg.capped_polynomial,
                    family, n, order=n,
                )
                shape = tracer.call(
                    "products.from_residues", pkg.ProductShape.from_residues,
                    ident["modulus"], ident["residues"],
                )
                product = tracer.call(
                    "series.expand_product", pkg.expand_product, shape.exponents(n)
                )
                sum_side = registers[-1]
                sums = tracer.call("recursions.coefficient_digest", pkg.coefficient_digest, sum_side)
                prods = tracer.call("recursions.coefficient_digest", pkg.coefficient_digest, product)
            if not sums == prods == self.digests[name]:
                problems.append(f"{name}: in-process digests differ from the recorded one")
            self.steps += n - pkg.initial_state(family, 0).index
            self.bits = max(self.bits, max(abs(c).bit_length() for reg in registers for c in reg))
        return problems

    def per_layer(self, tracer, reference_wall):
        own = tracer.self_times()
        return {
            "recursions.advance_s": own["recursions.capped_polynomial"],
            "recursions.steps": self.steps,
            "recursions.coeff_bits_max": self.bits,
            "recursions.digest_s": own["recursions.coefficient_digest"],
            "series.expand_s": own["series.expand_product"],
        }


def _recording(fn, results: list):
    """fn, appending each result to results."""
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result
    return call


def _mask_elapsed(report: str) -> str:
    return re.sub(r'"elapsed_ms": [^,\n]*', '"elapsed_ms": null', report)


def _hit_key(conditions: dict, period: int, profile: list[int]) -> str:
    return json.dumps(
        {"conditions": conditions, "period": period, "profile": profile}, sort_keys=True
    )


def hit_digest(keys) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


class Search(Workload):
    """`search --jobs 1` over the classics grid, axis options permuted by the
    seed; a `--jobs 2` run of the same grid is the reference."""

    name = "search"
    seeded = True
    work_unit = "grid cells"
    mirror_spans = ("search.run_search", "search.dumps")
    setup_code = (
        "import json, sumside.cli\n"
        "from sumside import SearchGrid\n"
        "SearchGrid.from_json(json.loads(open('grid.json').read()))"
    )

    def __init__(self, fixtures, work, seed):
        super().__init__(fixtures, work, seed)
        spec = fixtures["search"]
        self.order = spec["order"]
        self.expected_hits = spec["hits"]
        self.expected_digest = spec["hit_digest"]
        rng = random.Random(seed)
        grid = {"schema_version": 1, "order": self.order}
        for key, value in fixtures["grid"].items():
            if isinstance(value, list):
                value = list(value)
                rng.shuffle(value)
            grid[key] = value
        self.grid_text = json.dumps(grid, indent=1)
        (work / "grid.json").write_text(self.grid_text)
        self.work_items = len(grid["smallest"]) * len(grid["diffs"]) * len(grid["congruences"])
        self.required = [
            _hit_key(ident["conditions"], ident["modulus"], _identity_profile(ident))
            for ident in self.identities.values()
        ] + [_hit_key(h["conditions"], h["period"], h["profile"]) for h in fixtures["gap2_hits"]]

        def command(jobs):
            out = f"report-j{jobs}.json"
            return (["search", "--config", "grid.json", "--jobs", str(jobs), "--out", out], out)

        self.commands = [command(1)]
        # Every timed report must equal the --jobs 2 report of the same grid.
        self.reference_commands = [command(2)]
        self.peer: str | None = None
        self.counted = 0
        self.bits = 0
        self.hits = 0

    def _check_report(self, out: Output) -> list[str]:
        problems = []
        if out.returncode != 0:
            problems.append(f"search exited {out.returncode}")
        try:
            report = json.loads(out.report or "")
            keys = [_hit_key(h["conditions"], h["period"], h["profile"]) for h in report["hits"]]
        except (ValueError, TypeError, KeyError) as exc:
            return problems + [f"search report unreadable: {exc}"]
        if report["failures"]:
            problems.append(f"{len(report['failures'])} cells failed")
        if report["cells_run"] != self.work_items or report["order"] != self.order:
            problems.append(f"ran {report['cells_run']} cells at order {report['order']}")
        if len(keys) != self.expected_hits:
            problems.append(f"{len(keys)} hits, expected {self.expected_hits}")
        if hit_digest(keys) != self.expected_digest:
            problems.append("hit set differs from the recorded one")
        missing = [k for k in self.required if k not in keys]
        if missing:
            problems.append(f"{len(missing)} known identities missing from the hits")
        return problems

    def check_reference(self, index, out):
        self.peer = _mask_elapsed(out.report or "")
        return self._check_report(out)

    def check(self, index, out):
        problems = self._check_report(out)
        if _mask_elapsed(out.report or "") != self.peer:
            problems.append("--jobs 1 and --jobs 2 reports differ")
        return problems

    def corrupt(self, index, out):
        """A report with one hit dropped."""
        report = json.loads(out.report)
        report["hits"].pop()
        return replace(out, report=json.dumps(report, indent=2, sort_keys=True) + "\n")

    def layer_pass(self, tracer, pkg):
        """One `run_search(grid, jobs=1)`, with the search module's per-cell
        worker and the calls it makes wrapped in spans for the sweep."""
        module = sys.modules["sumside.search"]
        grid = pkg.SearchGrid.from_json(json.loads(self.grid_text))
        counted, shapes = [], []
        inner = {
            "count_sum_side": _recording(module.count_sum_side, counted),
            "detect_period": _recording(module.detect_period, shapes),
        }
        spans = {
            "_sift_cell": "search.cell",
            "count_sum_side": "partitions.count_sum_side",
            "euler_factorize": "series.euler_factorize",
            "detect_period": "products.detect_period",
        }
        with tracer.patched(module, spans, inner):
            report = tracer.call("search.run_search", pkg.run_search, grid, jobs=1)
        text = tracer.call("search.dumps", report.dumps)
        self.counted = sum(sum(series) for series in counted)
        self.bits = max(abs(c).bit_length() for series in counted for c in series)
        self.hits = sum(shape is not None for shape in shapes)
        problems = []
        if len(counted) != self.work_items:
            problems.append(f"in-process sweep counted {len(counted)} cells")
        if self.hits != len(report.hits):
            problems.append(f"{self.hits} periods detected, run_search reported {len(report.hits)}")
        if _mask_elapsed(text) != self.peer:
            problems.append("in-process report differs from the CLI report")
        return problems

    def per_layer(self, tracer, reference_wall):
        own = tracer.self_times()
        cells = tracer.durations("search.cell")
        n = self.order
        return {
            "partitions.count_s": own["partitions.count_sum_side"],
            "partitions.counted": self.counted,
            "partitions.count_us_per_partition":
                own["partitions.count_sum_side"] / self.counted * 1e6,
            "series.factorize_s": own["series.euler_factorize"],
            "series.factorize_calls": len(cells),
            "series.factorize_order_max": n,
            "series.factorize_mul_ops": len(cells) * n * (n - 1) // 2,
            "series.coeff_bits_max": self.bits,
            "products.detect_s": own["products.detect_period"],
            "products.hit_ratio": self.hits / len(cells),
            "search.cells": len(cells),
            "search.cell_s_p50": statistics.median(cells),
            "search.cell_s_p90": statistics.quantiles(cells, n=10)[8],
            "search.cell_s_max": max(cells),
            "search.overhead_s": own["search.run_search"],
            "search.dumps_s": own["search.dumps"],
            "search.wall_jobs2_s": reference_wall,
            "search.pool_eff": sum(cells) / (2 * reference_wall),
        }


class Factor(Workload):
    """`factor --coeffs` on expansions of seeded periodic exponent profiles."""

    name = "factor"
    seeded = True
    work_unit = "exponents factored"
    mirror_spans = ("series.euler_factorize",)
    setup_code = (
        "import sumside.cli\n"
        "from sumside import TruncatedSeries\n"
        "TruncatedSeries(int(t) for t in open('coeffs-0.txt').read().split())"
    )

    def __init__(self, fixtures, work, seed):
        super().__init__(fixtures, work, seed)
        spec = fixtures["factor"]
        self.order = n = spec["order"]
        rng = random.Random(seed)
        self.profiles = []
        self.expected = []
        self.coeffs = []
        for k in range(spec["files"]):
            period = rng.randint(spec["period_min"], spec["period_max"])
            profile = [0]
            while not any(profile):
                profile = [rng.randint(spec["exp_min"], spec["exp_max"]) for _ in range(period)]
            coeffs = expand_periodic(profile, n)
            (work / f"coeffs-{k}.txt").write_text("\n".join(map(str, coeffs)) + "\n")
            self.profiles.append(profile)
            self.coeffs.append(coeffs)
            self.expected.append(
                "".join(f"a_{m} = {profile[(m - 1) % period]}\n" for m in range(1, n + 1))
            )
            self.commands.append((["factor", "--coeffs", f"coeffs-{k}.txt"], None))
        self.work_items = len(self.profiles) * n
        self.bits = max(abs(c).bit_length() for cs in self.coeffs for c in cs)

    def check(self, index, out):
        if out.returncode != 0:
            return [f"factor exited {out.returncode}"]
        if out.stdout == self.expected[index]:
            return []
        got = out.stdout.splitlines()
        want = self.expected[index].splitlines()
        for line, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return [f"file {index}: printed {g!r}, expected {w!r}"]
        return [f"file {index}: {len(got)} lines, expected {len(want)}"]

    def corrupt(self, index, out):
        """The first exponent off by one."""
        first, rest = out.stdout.split("\n", 1)
        name, value = first.split(" = ")
        return replace(out, stdout=f"{name} = {int(value) + 1}\n{rest}")

    def layer_pass(self, tracer, pkg):
        problems = []
        for k, (profile, coeffs) in enumerate(zip(self.profiles, self.coeffs)):
            series = pkg.TruncatedSeries(coeffs)
            exps = tracer.call("series.euler_factorize", pkg.euler_factorize, series)
            if any(exps[m] != profile[(m - 1) % len(profile)] for m in range(1, self.order + 1)):
                problems.append(f"file {k}: in-process exponents differ from the profile")
        return problems

    def per_layer(self, tracer, reference_wall):
        n = self.order
        calls = len(self.profiles)
        return {
            "series.factorize_s": tracer.self_times()["series.euler_factorize"],
            "series.factorize_calls": calls,
            "series.factorize_order_max": n,
            "series.factorize_mul_ops": calls * n * (n - 1) // 2,
            "series.coeff_bits_max": self.bits,
        }


class Enumerate(Workload):
    """`enumerate --list` for two shipped identities at fixed totals."""

    name = "enumerate"
    work_unit = "partitions listed"
    mirror_spans = ("partitions.enumerate_sum_side",)

    def __init__(self, fixtures, work, seed):
        super().__init__(fixtures, work, seed)
        self.cases = []
        for case in fixtures["enumerate"]:
            ident = self.identities[case["identity"]]
            path = f"{case['identity']}.json"
            (work / path).write_text(json.dumps(ident["conditions"], indent=1))
            count = expand_periodic(_identity_profile(ident), case["n"])[case["n"]]
            self.cases.append((ident["conditions"], case["n"], count))
            self.commands.append(
                (["enumerate", "--conditions", path, "--n", str(case["n"]), "--list"], None)
            )
        self.setup_code = (
            "import json, sumside.cli\n"
            "from sumside import ConditionSet\n"
            f"ConditionSet.from_json(json.loads(open({self.commands[0][0][2]!r}).read()))"
        )
        self.listed = 0
        self.work_items = sum(count for _, _, count in self.cases)

    def check(self, index, out):
        conditions, n, count = self.cases[index]
        if out.returncode != 0:
            return [f"enumerate exited {out.returncode}"]
        lines = out.stdout.splitlines()
        if not lines or lines[0] != str(count):
            return [f"n={n}: header {lines[:1]}, product side says {count}"]
        if len(lines) - 1 != count:
            return [f"n={n}: {len(lines) - 1} partitions listed, expected {count}"]
        seen = set()
        for line in lines[1:]:
            parts = tuple(int(p) for p in line.split("+"))
            if (
                sum(parts) != n
                or parts[-1] < 1
                or any(a < b for a, b in zip(parts, parts[1:]))
                or not satisfies(parts, conditions)
            ):
                return [f"n={n}: {line} is not a valid partition"]
            seen.add(parts)
        if len(seen) != count:
            return [f"n={n}: {count - len(seen)} partitions repeated"]
        return []

    def corrupt(self, index, out):
        """The listing with its last partition missing."""
        return replace(out, stdout=out.stdout.rstrip("\n").rsplit("\n", 1)[0] + "\n")

    def layer_pass(self, tracer, pkg):
        problems = []
        self.listed = 0
        for conditions, n, count in self.cases:
            cs = pkg.ConditionSet.from_json(conditions)
            parts = tracer.call("partitions.enumerate_sum_side", pkg.enumerate_sum_side, cs, n)
            if len(parts) != count:
                problems.append(f"n={n}: in-process listing has {len(parts)} partitions")
            self.listed += len(parts)
        return problems

    def per_layer(self, tracer, reference_wall):
        own = tracer.self_times()["partitions.enumerate_sum_side"]
        return {
            "partitions.list_s": own,
            "partitions.listed": self.listed,
            "partitions.list_us_per_partition": own / self.listed * 1e6,
        }


class Combined(Workload):
    """Two workloads run as one: each repetition runs the commands of both,
    and the traced pass reports the layers of both."""

    def __init__(self, kinds, fixtures, work, seed):
        self._parts = [kind(fixtures, work, seed) for kind in kinds]
        self.name = "-".join(part.name for part in self._parts)
        self.seeded = any(part.seeded for part in self._parts)
        self.setup_code = "\n".join(part.setup_code for part in self._parts)
        self.commands = [c for part in self._parts for c in part.commands]
        self.reference_commands = [c for part in self._parts for c in part.reference_commands]
        self._route = [(part, i) for part in self._parts for i in range(len(part.commands))]
        self._route_reference = [
            (part, i) for part in self._parts for i in range(len(part.reference_commands))
        ]

    @property
    def parts(self):
        return self._parts

    def check(self, index, out):
        part, i = self._route[index]
        return part.check(i, out)

    def check_reference(self, index, out):
        part, i = self._route_reference[index]
        return part.check_reference(i, out)

    def corrupt(self, index, out):
        part, i = self._route[index]
        return part.corrupt(i, out)

    def layer_pass(self, tracer, pkg):
        problems = []
        for part in self._parts:
            with tracer.span(f"bench.{part.name}"):
                problems += part.layer_pass(tracer, pkg)
        return problems

    def mirror(self, tracer):
        return sum(part.mirror(tracer.subtree(f"bench.{part.name}")) for part in self._parts)

    def per_layer(self, tracer, reference_wall):
        """Each part's metrics from its own spans.  A metric both parts
        report is their sum, or their larger value for a `_max` metric."""
        merged: dict[str, float] = {}
        for part in self._parts:
            for key, value in part.per_layer(
                tracer.subtree(f"bench.{part.name}"), reference_wall
            ).items():
                if key not in merged:
                    merged[key] = value
                elif key.endswith("_max"):
                    merged[key] = max(merged[key], value)
                else:
                    merged[key] += value
        return merged


def _combined(*kinds):
    return lambda fixtures, work, seed: Combined(kinds, fixtures, work, seed)


# Two workloads of two parts each, so that a run of the benchmark's time budget
# holds enough repetitions for a steady median (see README.md).  Each pair
# reports disjoint layers but for euler_factorize, which dominates only
# factor; counting (search) and listing (enumerate) fall in different ones.
WORKLOADS = {
    "verify-enumerate": _combined(Verify, Enumerate),
    "search-factor": _combined(Search, Factor),
}
