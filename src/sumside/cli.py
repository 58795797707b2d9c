"""Command-line surface: search, verify, factor, enumerate.

Exit codes: 0 on success (all identities verified, sweep completed), 1 when a
verification finds a mismatch or stdout closes or fails before the output is
written, 2 for usage and configuration errors, 130 when interrupted (SIGINT).
JSON reports go to --out when given, otherwise to stdout; progress and
warnings go to stderr so piped output stays machine-readable.

A CLI process (the `sumside` script, `python -m sumside.cli`) ends through
run: once main returns, stdout and stderr are flushed and the process calls
os._exit, skipping the interpreter's teardown, so atexit hooks (such as
coverage's subprocess support) do not run.  main(argv), called in process,
only returns its code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager

# Lazy submodules (see the package docstring): each subcommand runs only the
# ones it calls, so `factor` never executes partitions, recursions or search.
# json is imported where JSON is read or written, so `factor` on a plain
# coefficient file never loads it.
from . import partitions, recursions, search, series


class _ConfigError(Exception):
    """Bad input file or flags; maps to exit code 2."""


class _StdoutError(Exception):
    """Writing stdout failed other than by a closed pipe, as on a full disk;
    maps to exit code 1."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise _ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _ConfigError(f"{path}: not UTF-8 text") from exc


def _decode_json(path: str, text: str):
    """text, the whole of the file at path, decoded as JSON; an error names
    its line and column in the file."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load(path: str, record):
    """The record that the JSON file at path describes; the strict readers
    raise ValueError naming the key path of the first bad entry."""
    obj = _decode_json(path, _read_text(path))
    try:
        return record.from_json(obj)
    except ValueError as exc:
        raise _ConfigError(f"{path}: {exc}") from exc


_CHUNK = 1 << 16


def _write(text: str) -> None:
    """Write text to stdout as UTF-8, in bounded chunks, after whatever
    sys.stdout still buffers.  A reader that leaves while a large write is
    blocked can cut that write short with no error; a short count is
    therefore treated like BrokenPipeError, so the run still exits 1.  Any
    other OSError becomes _StdoutError."""
    try:
        sys.stdout.flush()
        data = memoryview(text.encode("utf-8"))
        out = sys.stdout.buffer
        for start in range(0, len(data), _CHUNK):
            chunk = data[start : start + _CHUNK]
            if out.write(chunk) != len(chunk):
                raise BrokenPipeError("stdout took a short write")
        out.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _StdoutError(f"stdout: {exc.strerror or exc}") from exc


@contextmanager
def _output(out: str | None):
    """Yields the function that writes the report: to stdout when out is
    None, else to a temporary file beside out, opened here, before any work,
    so that an unwritable out fails first, and moved onto out by os.replace.
    A run that fails or is interrupted before that leaves no file."""
    if out is None:
        yield _write
        return
    if os.path.isdir(out):
        raise _ConfigError(f"{out}: Is a directory")
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        f = open(tmp, "w")
    except OSError as exc:
        raise _ConfigError(f"{out}: {exc.strerror or exc}") from exc

    def emit(text: str) -> None:
        try:
            with f:
                f.write(text)
            os.replace(tmp, out)
        except OSError as exc:
            raise _ConfigError(f"{out}: {exc.strerror or exc}") from exc

    try:
        yield emit
    finally:
        f.close()
        if os.path.exists(tmp):
            os.remove(tmp)


def _cmd_search(args) -> int:
    from ._record import replace

    grid = _load(args.config, search.SearchGrid)
    if args.order is not None:
        try:
            grid = replace(grid, order=args.order)
        except ValueError as exc:
            raise _ConfigError(f"--order: {exc}") from exc
    if args.jobs < 1:
        raise _ConfigError("--jobs must be >= 1")
    if args.refine is not None and args.refine <= grid.order:
        raise _ConfigError(f"--refine must exceed the grid order ({grid.order})")
    cells = grid.cells()
    with _output(args.out) as emit:
        print(
            f"grid: {grid.size} cells ({len(cells)} after dedup), order {grid.order}",
            file=sys.stderr,
        )
        report = search.run_search(grid, jobs=args.jobs, refine_order=args.refine)
        print(
            f"hits: {len(report.hits)}, failures: {len(report.failures)}",
            file=sys.stderr,
        )
        emit(report.dumps())
    return 0


def _cmd_verify(args) -> int:
    if args.order < 1:
        raise _ConfigError("--order must be >= 1")
    identities = recursions.BUILTIN_IDENTITIES
    if args.identity == "all":
        names = sorted(identities)
    else:
        if args.identity not in identities:
            raise _ConfigError(
                f"unknown identity {args.identity!r}; "
                f"choose from {', '.join(sorted(identities))} or 'all'"
            )
        names = [args.identity]
    reports = []
    with _output(args.out) as emit:
        for name in names:
            report = recursions.verify_identity(identities[name], args.order, args.method)
            reports.append(report)
            for w in report.warnings:
                print(f"warning: {w}", file=sys.stderr)
            if report.match:
                _write(
                    f"{name}: match through q^{report.order} "
                    f"({report.method}, {report.elapsed_ms:.0f} ms)\n"
                )
            else:
                _write(
                    f"{name}: MISMATCH, first mismatch at q^{report.first_mismatch} "
                    f"({report.method})\n"
                )
        if args.out is not None:
            import json

            emit(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True) + "\n")
    return 0 if all(r.match for r in reports) else 1


def _read_coefficients(path: str) -> list[int]:
    text = _read_text(path)
    stripped = text.strip()
    if not stripped:
        raise _ConfigError(f"{path}: no coefficients found")
    if stripped.startswith("["):
        entries = _decode_json(path, text)  # a list, as the text opens with [
    else:
        entries = stripped.replace(",", " ").split()
    out = []
    decimal = re.compile("[+-]?[0-9]+").fullmatch
    for i, entry in enumerate(entries):
        # int() alone would also take 1_0 and non-ASCII digits such as a fullwidth 1
        if not decimal(str(entry)):
            raise _ConfigError(f"{path}: coefficient {i} is not a decimal integer: {entry!r}")
        out.append(int(entry))
    return out


def _cmd_factor(args) -> int:
    coeffs = _read_coefficients(args.coeffs)
    top = len(coeffs) - 1
    order = args.order if args.order is not None else top
    # a_1..a_k depend on b_0..b_k alone, so only those are factored; for an
    # order out of range, b_0 and b_1 still raise the file's own errors first
    k = order if 1 <= order <= top else min(top, 1)
    try:
        exps = series.euler_factorize(series.TruncatedSeries(coeffs[: k + 1]))
    except ValueError as exc:
        raise _ConfigError(f"{args.coeffs}: {exc}") from exc
    if not 1 <= order <= top:
        raise _ConfigError(
            f"--order {order} outside 1..{top} "
            f"(file provides coefficients through q^{top})"
        )
    _write("".join(f"a_{m} = {exps[m]}\n" for m in range(1, order + 1)))
    return 0


def _cmd_enumerate(args) -> int:
    conds = _load(args.conditions, partitions.ConditionSet)
    if args.n < 0:
        raise _ConfigError("--n must be >= 0")
    if args.list:
        text = partitions._listing_text(conds, args.n)
        lines = text.count("\n")
        _write(f"{lines}\n")
        _write(text)
    else:
        _write(f"{partitions.count_sum_side(conds, args.n)[args.n]}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumside",
        description=(
            "Search for and verify partition identities: enumerate partitions "
            "under sum-side conditions, factor the counts into Euler products, "
            "detect periodic product shapes, and verify shipped identities to "
            "high order."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "search", help="sweep a condition grid for periodic product shapes"
    )
    p.add_argument("--config", required=True, help="grid config JSON file")
    p.add_argument("--order", type=int, default=None, help="override grid order")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--refine", type=int, default=None,
        help="re-check hits at this higher order",
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="verify a shipped identity to high order")
    p.add_argument(
        "--identity", required=True,
        help="one of I1, I2, I3, I4, I5, I6, or 'all'",
    )
    p.add_argument("--order", type=int, default=500, help="verify through q^order")
    p.add_argument(
        "--method", choices=("recursion", "both"), default="recursion",
        help="both: also count the sum side by the sweep and require agreement",
    )
    p.add_argument("--out", default=None, help="write JSON reports here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "factor", help="factor a coefficient file into Euler product exponents"
    )
    p.add_argument(
        "--coeffs", required=True,
        help="file of decimal coefficients starting with the constant term "
        "(newline/comma separated, or a JSON array)",
    )
    p.add_argument(
        "--order", type=int, default=None, help="print exponents only through a_order"
    )
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser(
        "enumerate", help="count (or list) partitions satisfying a condition file"
    )
    p.add_argument("--conditions", required=True, help="ConditionSet JSON file")
    p.add_argument("--n", type=int, required=True, help="partition total")
    p.add_argument(
        "--list", action="store_true", help="print the partitions, one per line"
    )
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # coefficients and exponents may run past the int-to-str digit limit
    # (4300 by default), which older Python 3.10 builds do not have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        _write("")  # flush whatever sys.stdout still buffers
        return code
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (BrokenPipeError, _StdoutError) as exc:
        if isinstance(exc, _StdoutError):
            print(f"error: {exc}", file=sys.stderr)
        # the reader closed stdout, or it cannot take more; point it at
        # devnull so that run's flush, or the one at exit for an in-process
        # caller, writes what sys.stdout still buffers there and cannot fail
        # (see "Note on SIGPIPE" in the signal docs)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1


def run() -> None:
    """Entry point of a CLI process: main, then flush stdout and stderr and
    end the process with os._exit.  That skips the interpreter's teardown
    (the final collection and the freeing of every module), 5-15 ms a
    process on a 2-CPU Xeon host.  A SystemExit from argparse (usage
    errors, --help) and an uncaught exception take the normal exit instead.

    Nothing is lost by skipping the teardown:
    - every stdout byte goes through _write, which flushes;
    - --out goes through _output, which closes its temporary file and
      renames or removes it before main returns;
    - _sift_all shuts its process pool down, joining the workers, in its
      finally;
    - sumside registers no atexit hook.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
