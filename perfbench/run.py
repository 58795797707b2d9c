"""Benchmark for the sumside CLI and its modules.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-enumerate --seed 1 --seconds 50 --trace 0

With --trace 0 the run repeats the workload's CLI commands for about
--seconds seconds, checks every output, and reports the end-to-end metrics
named in BENCHMARK.json.  With --trace 1 it
runs the CLI commands once, then repeats the same work in process through the
package's public functions, untraced and with spans in turn, and reports
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A failed check exits 1; a
checkout without the package sources exits 2 without a result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from reference import expand_periodic
from tracing import Tracer
from workloads import WORKLOADS, Output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15  # fewest set-up samples per run
SETUP_PER_REPETITION = 2  # set-up samples taken before each repetition
REFERENCE_REPEATS = 3  # reference runs per traced run; their median wall is reported
LAYER_PASS_PAIRS = 2  # untraced/traced in-process pass pairs per traced run
# Calibrated times are seconds on a CPU where the calibration kernel, a fixed
# product expansion of the benchmark's own, takes CALIBRATION_S.  The kernel
# takes about 0.1 s on a 2.0 GHz Xeon.
CALIBRATION_S = 0.1
CALIBRATION_PROFILE, CALIBRATION_ORDER = [1, 0, 1, 1, 0, 2], 1400
# Every process is killed once the run has lasted this long, so the run ends
# within the 180 s a benchmark run is allowed.
RUN_BUDGET_S = 165


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Cli:
    """Runs `python -m sumside.cli` from the checkout's sources in a work dir."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def _run(self, argv: list[str]) -> tuple[float, int, int, str]:
        """Wall seconds, peak RSS in KiB, exit code and stdout of one process.

        The peak RSS from wait4 covers the process and every child it waited
        for, so it includes the pool workers of `search --jobs 2`.  A process
        still running at the deadline is killed with its process group.
        """
        stdout_path = self.work / "stdout.txt"
        with open(stdout_path, "w") as out, open(self.work / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - start), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode, stdout_path.read_text()

    def command(self, args: list[str], report: str | None) -> tuple[float, int, Output]:
        if report is not None:
            (self.work / report).unlink(missing_ok=True)
        wall, rss, code, stdout = self._run([sys.executable, "-m", "sumside.cli", *args])
        path = self.work / report if report is not None else None
        text = path.read_text() if path is not None and path.exists() else None
        return wall, rss, Output(code, stdout, text)

    def setup_time(self, code: str) -> float:
        wall, _, status, _ = self._run([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError(f"set-up snippet exited {status}")
        return wall


class Calibration:
    """Scales the wall time of each child process by the speed of the CPU
    it ran on, measured just before and just after it.

    Slowdowns from other tenants of the host come and go within seconds and
    last up to minutes; a kernel timed right around a command on the same CPU
    sees the same slowdown.  Pins this process, and so every child it starts
    from now on, to one CPU.  The kernel runs no code of the package.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.kernel_s: list[float] = []
        self._last = self._kernel()

    def _kernel(self) -> float:
        start = time.perf_counter()
        expand_periodic(CALIBRATION_PROFILE, CALIBRATION_ORDER)
        seconds = time.perf_counter() - start
        self.kernel_s.append(seconds)
        return seconds

    def scale(self, wall: float) -> float:
        """wall, just measured, in seconds at the reference speed."""
        before, self._last = self._last, self._kernel()
        return wall * CALIBRATION_S / ((before + self._last) / 2)


class Tally:
    """Counts checked outputs; identical outputs reuse the first verdict."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple, list[str]] = {}

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, index: int, out: Output, reference: bool = False) -> None:
        key = (index, reference, out.returncode,
               hashlib.sha256(out.stdout.encode()).digest(),
               hashlib.sha256((out.report or "").encode()).digest())
        if key not in self._verdicts:
            checker = self.workload.check_reference if reference else self.workload.check
            self._verdicts[key] = checker(index, out)
        self.record(self._verdicts[key])


def self_check(workload, good: list[Output]) -> None:
    """Confirm each checker rejects one corrupted output (else the gate
    could pass vacuously).  Raises on a checker that accepts it."""
    for index, out in enumerate(good):
        if workload.check(index, out):
            continue  # the output was already wrong; it is counted as a failure
        if not workload.check(index, workload.corrupt(index, out)):
            raise RuntimeError(f"{workload.name}: checker {index} accepted a corrupted output")


def run_reference(cli: Cli, workload, tally: Tally) -> float:
    """Run and check the workload's untimed reference commands; their wall."""
    total = 0.0
    for index, (args, report) in enumerate(workload.reference_commands):
        wall, _, out = cli.command(args, report)
        total += wall
        tally.check(index, out, reference=True)
    return total


def _fmt(values: list[float]) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def measure(cli: Cli, workload, tally: Tally, seconds: float) -> dict:
    """End-to-end metrics: medians of calibrated times over repetitions,
    repeated until the next one would pass `seconds`.  Set-up samples are
    taken before each repetition, so the set-up median spans the run like
    the others."""
    reference_wall = run_reference(cli, workload, tally)
    clock = Calibration()
    walls, raw_walls, peaks, setup, raw_setup, last = [], [], [], [], [], []
    command_walls = [[] for _ in workload.commands]
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_REPETITION):
            raw_setup.append(cli.setup_time(workload.setup_code))
            setup.append(clock.scale(raw_setup[-1]))
        rep_wall, rep_raw, rep_peak, last = 0.0, 0.0, 0, []
        for index, (args, report) in enumerate(workload.commands):
            wall, rss, out = cli.command(args, report)
            command_walls[index].append(wall)
            rep_raw += wall
            rep_wall += clock.scale(wall)
            rep_peak = max(rep_peak, rss)
            tally.check(index, out)
            last.append(out)
        walls.append(rep_wall)
        raw_walls.append(rep_raw)
        peaks.append(rep_peak)
        if time.perf_counter() - start + rep_raw > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        raw_setup.append(cli.setup_time(workload.setup_code))
        setup.append(clock.scale(raw_setup[-1]))
    self_check(workload, last)
    print(f"repetitions: {len(walls)}")
    print(f"calibrated wall_s each: {_fmt(walls)}")
    print(f"raw wall_s each: {_fmt(raw_walls)}; median {statistics.median(raw_walls):.4f}")
    for (args, _), times in zip(workload.commands, command_walls):
        print(f"  raw median {statistics.median(times):.4f} s: sumside {' '.join(args)}")
    print(f"calibrated setup_s each: {_fmt(setup)}")
    print(f"raw setup_s each: {_fmt(raw_setup)}; median {statistics.median(raw_setup):.4f}")
    print(f"calibration kernel s: median {statistics.median(clock.kernel_s):.4f}, "
          f"min {min(clock.kernel_s):.4f}, max {max(clock.kernel_s):.4f}, "
          f"{len(clock.kernel_s)} samples")
    if workload.reference_commands:
        print(f"reference commands (untimed) wall_s: {reference_wall:.4f}")
    print("work per repetition: "
          + "; ".join(f"{part.work_items} {part.work_unit}" for part in workload.parts))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }


def trace(cli: Cli, workload, tally: Tally, seed: int) -> dict:
    """Per-layer metrics: the CLI commands once, then the same work in
    process, untraced and traced."""
    sys.path.insert(0, str(SRC))
    import sumside as pkg

    reference_wall = statistics.median(
        run_reference(cli, workload, tally) for _ in range(REFERENCE_REPEATS)
    )
    cli_wall, outs = 0.0, []
    for index, (args, report) in enumerate(workload.commands):
        wall, _, out = cli.command(args, report)
        cli_wall += wall
        tally.check(index, out)
        outs.append(out)
    self_check(workload, outs)

    # Untraced and traced passes alternate; the fastest of each kind is kept,
    # so the first pass's warm-up and slow host phases do not count as
    # tracing overhead.  The metrics come from the last traced pass.
    walls = {False: [], True: []}
    for enabled in (False, True) * LAYER_PASS_PAIRS:
        tracer = Tracer(f"{workload.name}-seed{seed}-{'traced' if enabled else 'untraced'}",
                        enabled)
        start = time.perf_counter()
        with tracer.span(f"bench.{workload.name}"):
            problems = workload.layer_pass(tracer, pkg)
        walls[enabled].append(time.perf_counter() - start)
        tally.record(problems)
    out_path = HERE / "out" / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(out_path)
    print(f"spans written to {out_path.relative_to(ROOT)}")
    print("self time by span name (s):")
    for name, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {name:34s} {secs:.4f}")
    layer = workload.per_layer(tracer, reference_wall)
    layer["cli.overhead_s"] = cli_wall - workload.mirror(tracer)
    layer["trace.overhead_s"] = min(walls[True]) - min(walls[False])
    layer["trace.spans"] = len(tracer.spans)
    print(f"CLI wall {cli_wall:.4f} s; untraced passes {_fmt(walls[False])} s; "
          f"traced passes {_fmt(walls[True])} s")
    return layer


def metadata(workload, seed: int) -> dict:
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "none (git unavailable)"
    sources = sorted(SRC.rglob("*.py"))
    return {
        "workload": workload.name,
        "seed": seed,
        "seed_used": workload.seeded,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumside" / "cli.py").is_file():
        print(f"perfbench: no sumside sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    fixtures = json.loads((HERE / "fixtures.json").read_text())

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        workload = WORKLOADS[args.workload](fixtures, work, args.seed)
        cli = Cli(work)
        tally = Tally(workload)
        print("meta " + json.dumps(metadata(workload, args.seed), sort_keys=True))
        if args.trace:
            values = trace(cli, workload, tally, args.seed)
        else:
            values = measure(cli, workload, tally, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_ratio = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted}")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
