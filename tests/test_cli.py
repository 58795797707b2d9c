"""Command-line behavior, driven through main(): in process, and in a fresh
interpreter where the test is about which modules a subcommand runs."""

import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import sumside.cli as cli
from sumside import (
    BUILTIN_IDENTITIES,
    ConditionSet,
    CongruenceRule,
    DiffDistRule,
    IdentitySpec,
    SearchGrid,
    SmallestPartRule,
    product_side,
)

I1_CONDITIONS = BUILTIN_IDENTITIES["I1"].conditions


@pytest.fixture
def grid_config(tmp_path):
    grid = SearchGrid(
        smallest_options=(None, SmallestPartRule(2)),
        diff_options=((DiffDistRule(1, 2),),),
        congruence_options=((),),
        order=30,
    )
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid.to_json()))
    return str(path)


@pytest.fixture
def i1_conditions_file(tmp_path):
    path = tmp_path / "i1.json"
    path.write_text(json.dumps(I1_CONDITIONS.to_json()))
    return str(path)


class TestVerifyCommand:
    def test_single_identity_match(self, capsys):
        rc = cli.main(["verify", "--identity", "I1", "--order", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "I1: match through q^40" in out
        assert "recursion" in out

    def test_all_identities_with_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "reports.json"
        rc = cli.main(
            ["verify", "--identity", "all", "--order", "30", "--out", str(out_path)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        reports = json.loads(out_path.read_text())
        assert [r["identity"] for r in reports] == ["I1", "I2", "I3", "I4", "I5", "I6"]
        assert all(r["match"] for r in reports)

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        wrong = IdentitySpec(
            "I1",
            I1_CONDITIONS,
            9,
            frozenset({1, 3, 6, 7}),
            "P1",
        )
        monkeypatch.setitem(cli.recursions.BUILTIN_IDENTITIES, "I1", wrong)
        rc = cli.main(["verify", "--identity", "I1", "--order", "30"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "I1: MISMATCH, first mismatch at q^7" in out

    def test_unknown_identity_exits_two(self, capsys):
        rc = cli.main(["verify", "--identity", "I9"])
        assert rc == 2
        assert "unknown identity" in capsys.readouterr().err

    def test_order_zero_exits_two(self, capsys):
        rc = cli.main(["verify", "--identity", "I1", "--order", "0"])
        assert rc == 2
        assert "--order" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        rc = cli.main(["verify", "--identity", "I1", "--order", "10", "--out", str(out)])
        assert rc == 2
        assert f"error: {out}: " in capsys.readouterr().err

    def test_both_methods_agree_for_all_identities(self, capsys):
        rc = cli.main(
            ["verify", "--identity", "all", "--order", "200", "--method", "both"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 6
        assert all("match through q^200 (both" in line for line in lines)


class TestFactorCommand:
    def test_plain_text_coefficients(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1, 1, 1, 1")
        rc = cli.main(["factor", "--coeffs", str(path)])
        assert rc == 0
        assert capsys.readouterr().out == "a_1 = 1\na_2 = 0\na_3 = 0\n"

    def test_json_array_coefficients(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[1, 2, 3, 4, 5]")
        rc = cli.main(["factor", "--coeffs", str(path), "--order", "2"])
        assert rc == 0
        # 1/((1-q)^2) = 1 + 2q + 3q^2 + ...
        assert capsys.readouterr().out == "a_1 = 2\na_2 = 0\n"

    def test_wrong_constant_term(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("2, 1")
        rc = cli.main(["factor", "--coeffs", str(path)])
        assert rc == 2
        assert "constant term" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = cli.main(["factor", "--coeffs", "/nonexistent/c.txt"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_token(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1, x, 3")
        rc = cli.main(["factor", "--coeffs", str(path)])
        assert rc == 2
        assert "coefficient 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("\n\n  [1, 2,", ":3:9: Expecting value"),
            ("", ": no coefficients found"),
            (" \n\t", ": no coefficients found"),
            ("[1] [2]", ":1:5: Extra data"),
        ],
        ids=["json-position", "empty", "blank", "extra-data"],
    )
    def test_malformed_coefficient_file_exits_two(self, tmp_path, capsys, text, where):
        # a JSON error names its line and column in the file, as for --conditions
        path = tmp_path / "c.json"
        path.write_text(text)
        rc = cli.main(["factor", "--coeffs", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {path}{where}\n"
        assert captured.out == ""

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_bytes(b"\xff\xfe1, 1")
        rc = cli.main(["factor", "--coeffs", str(path)])
        assert rc == 2
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_order_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1, 1")
        rc = cli.main(["factor", "--coeffs", str(path), "--order", "5"])
        assert rc == 2
        assert "outside 1..1" in capsys.readouterr().err

    def test_order_prints_the_first_lines_of_the_full_run(self, tmp_path, capsys, monkeypatch):
        # a_1..a_k depend on b_0..b_k alone, so --order k factors only those
        path = tmp_path / "c.txt"
        rng = random.Random(1700)
        path.write_text("\n".join(["1"] + [str(rng.randrange(-3, 4)) for _ in range(200)]))
        assert cli.main(["factor", "--coeffs", str(path)]) == 0
        full = capsys.readouterr().out.splitlines(keepends=True)
        orders = []
        real = cli.series.euler_factorize
        monkeypatch.setattr(
            cli.series, "euler_factorize", lambda b: orders.append(b.order) or real(b)
        )
        for k in (1, 2, 64, 65, 130, 200):
            assert cli.main(["factor", "--coeffs", str(path), "--order", str(k)]) == 0
            assert capsys.readouterr().out == "".join(full[:k])
        assert orders == [1, 2, 64, 65, 130, 200]

    def test_order_errors_keep_their_text(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1, 1, 2")
        for k in ("0", "3", "-1"):
            assert cli.main(["factor", "--coeffs", str(path), "--order", k]) == 2
            assert capsys.readouterr().err == (
                f"error: --order {k} outside 1..2 (file provides coefficients through q^2)\n"
            )
        # the file's own errors come first, whatever the order
        for text, err in (
            ("3, 1, 2", "constant term must be 1, got 3"), ("1", "factorization needs order >= 1")
        ):
            path.write_text(text)
            for k in ("1", "9", "0"):
                assert cli.main(["factor", "--coeffs", str(path), "--order", k]) == 2
                assert capsys.readouterr().err == f"error: {path}: {err}\n"

    def test_exponents_past_the_int_to_str_digit_limit(self, tmp_path, capsys):
        # 1 + 10^50 q: a_m grows like 10^(50 m) / m, so a_87 is the first
        # exponent with more than 4300 decimal digits
        path = tmp_path / "c.txt"
        path.write_text(", ".join(["1", str(10**50)] + ["0"] * 99))
        rc = cli.main(["factor", "--coeffs", str(path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in lines] == [f"a_{m}" for m in range(1, 101)]
        assert len(lines[86].split(" = ")[1].lstrip("-")) > 4300


class TestEnumerateCommand:
    def test_count(self, i1_conditions_file, capsys):
        rc = cli.main(["enumerate", "--conditions", i1_conditions_file, "--n", "3"])
        assert rc == 0
        assert capsys.readouterr().out == "2\n"

    def test_list(self, i1_conditions_file, capsys):
        rc = cli.main(
            ["enumerate", "--conditions", i1_conditions_file, "--n", "3", "--list"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "2\n3\n2+1\n"

    def test_list_with_no_partition_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"smallest": {"min_part": 2}}))
        rc = cli.main(["enumerate", "--conditions", str(path), "--n", "1", "--list"])
        assert rc == 0
        assert capsys.readouterr().out == "0\n"

    def test_list_zero_shows_null_partition(self, i1_conditions_file, capsys):
        rc = cli.main(
            ["enumerate", "--conditions", i1_conditions_file, "--n", "0", "--list"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "1\n0\n"

    @pytest.mark.parametrize("name", sorted(oracles.IDENTITY_RULES))
    def test_list_matches_oracle(self, name, capsys):
        root = Path(__file__).resolve().parents[1]
        path = root / "configs" / "identities" / f"{name}.json"
        rc = cli.main(["enumerate", "--conditions", str(path), "--n", "20", "--list"])
        assert rc == 0
        want = oracles.oracle_partitions(20, **oracles.IDENTITY_RULES[name])
        lines = [str(len(want))] + ["+".join(map(str, p)) for p in want]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_closed_stdout_exits_one_without_traceback(self):
        # the read end is closed before the CLI starts, so every write to
        # stdout fails; a reader that leaves while a large write is blocked
        # can instead cut that write short with no error, which would make
        # the exit code depend on timing
        root = Path(__file__).resolve().parents[1]
        path = root / "configs" / "identities" / "I5.json"
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sumside.cli", "enumerate",
                 "--conditions", str(path), "--n", "66", "--list"],
                cwd=root / "src", stdout=w, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr == b""  # no traceback

    def test_reader_leaving_after_one_line_exits_one(self):
        # `enumerate --list | head -1`: the reader takes the count line and
        # closes while the listing (about 0.9 MB, far past a 64 KiB pipe
        # buffer) is being written, so each run must exit 1, never a silent 0
        root = Path(__file__).resolve().parents[1]
        path = root / "configs" / "identities" / "I5.json"

        def launch():
            return subprocess.Popen(
                [sys.executable, "-m", "sumside.cli", "enumerate",
                 "--conditions", str(path), "--n", "66", "--list"],
                cwd=root / "src", stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )

        outcomes = []
        for _ in range(5):
            batch = [launch() for _ in range(4)]
            for proc in batch:
                assert proc.stdout.readline().strip().isdigit()
                proc.stdout.close()
            for proc in batch:
                stderr = proc.stderr.read()
                proc.stderr.close()
                outcomes.append((proc.wait(timeout=60), stderr))
        assert outcomes == [(1, b"")] * 20

    def test_count_beyond_listing_reach(self, i1_conditions_file, capsys):
        rc = cli.main(["enumerate", "--conditions", i1_conditions_file, "--n", "400"])
        assert rc == 0
        want = product_side(BUILTIN_IDENTITIES["I1"], 400)[400]
        assert capsys.readouterr().out == f"{want}\n"

    def test_negative_n(self, i1_conditions_file, capsys):
        rc = cli.main(["enumerate", "--conditions", i1_conditions_file, "--n", "-1"])
        assert rc == 2

    def test_bad_condition_keys(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"diffs": [], "wat": 1}')
        rc = cli.main(["enumerate", "--conditions", str(path), "--n", "3"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_misspelt_rule_key_exits_two_without_traceback(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text('{"smallest": {"min_part": 2, "max_mul": 1}}')
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "sumside.cli", "enumerate",
             "--conditions", str(path), "--n", "3"],
            cwd=src, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path}: smallest: unknown keys: ['max_mul']\n"

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[]", "expected a JSON object, got []"),
            ('{"smallest": 5}', "smallest: expected a JSON object"),
            ('{"diffs": [3]}', "diffs[0]: expected a JSON object"),
            ('{"smallest": {"min_part": 2.9}}', "smallest.min_part: expected an integer"),
            ('{"smallest": {"min_part": true}}', "smallest.min_part: expected an integer"),
            ('{"diffs": [{"distance": 1}]}', "diffs[0].min_diff: missing"),
            ('{"smallest": {"min_part": 0}}', "smallest: min_part must be >= 1"),
            ('{"diffs": [{"distance": 0, "min_diff": 1}]}', "diffs[0]: distance must be >= 1"),
            (
                '{"congruences": [{"span": 1, "gap": 1, "residue": 3, "modulus": 3}]}',
                "congruences[0]: residue must lie in 0..modulus-1",
            ),
            ('{"diffs": 5}', "diffs: expected a JSON array, got 5"),
            (b"\xff\xfe{}", "not UTF-8 text"),
        ],
    )
    def test_malformed_conditions_exit_two(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        rc = cli.main(["enumerate", "--conditions", str(path), "--n", "3"])
        assert rc == 2
        assert f"error: {path}: {where}" in capsys.readouterr().err


class TestSearchCommand:
    def test_report_to_stdout(self, grid_config, capsys):
        rc = cli.main(["search", "--config", grid_config])
        captured = capsys.readouterr()
        assert rc == 0
        assert "grid: 2 cells (2 after dedup), order 30" in captured.err
        assert "hits: 2, failures: 0" in captured.err
        report = json.loads(captured.out)
        assert report["schema_version"] == 1
        assert [h["residues"] for h in report["hits"]] == [[1, 4], [2, 3]]

    def test_report_to_file(self, grid_config, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = cli.main(["search", "--config", grid_config, "--out", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["cells_run"] == 2

    def test_order_override(self, grid_config, capsys):
        rc = cli.main(["search", "--config", grid_config, "--order", "20"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "order 20" in captured.err
        assert json.loads(captured.out)["order"] == 20

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "order": }')
        rc = cli.main(["search", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"schema_version": 2}')
        rc = cli.main(["search", "--config", str(path)])
        assert rc == 2
        assert "schema_version" in capsys.readouterr().err

    def test_bad_refine(self, grid_config, capsys):
        rc = cli.main(["search", "--config", grid_config, "--refine", "10"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: --refine must exceed the grid order (30)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_bad_jobs_exits_two(self, grid_config, capsys, value):
        rc = cli.main(["search", "--config", grid_config, "--jobs", value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: --jobs must be >= 1\n"
        assert captured.out == ""

    def test_order_zero_exits_two(self, grid_config, capsys):
        rc = cli.main(["search", "--config", grid_config, "--order", "0"])
        assert rc == 2
        assert "--order" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--p-max", "0"), ("--p-max", "-3"), ("--min-repeats", "0")],
    )
    def test_bad_period_flags_exit_two(self, grid_config, capsys, flag, value):
        rc = cli.main(["search", "--config", grid_config, flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{flag} must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["p_max", "min_repeats"])
    def test_bad_period_in_config_exits_two(self, grid_config, capsys, key):
        obj = json.loads(Path(grid_config).read_text())
        obj[key] = 0
        Path(grid_config).write_text(json.dumps(obj))
        rc = cli.main(["search", "--config", grid_config])
        assert rc == 2
        assert f"{grid_config}: {key} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[1, 2]", "expected a JSON object, got [1, 2]"),
            ('{"schema_version": 1, "smallest": [5]}', "smallest[0]: expected a JSON object"),
            ('{"schema_version": 1, "diffs": [[7]]}', "diffs[0][0]: expected a JSON object"),
            ('{"schema_version": 1, "order": true}', "order: expected an integer, got true"),
            (
                '{"schema_version": 1, "smallest": [{"min_part": 2.9}]}',
                "smallest[0].min_part: expected an integer, got 2.9",
            ),
            (
                '{"schema_version": 1, "smallest": [null, {"min_part": 1, "max_mult": 0}]}',
                "smallest[1]: max_mult must be >= 1 or None",
            ),
            (
                '{"schema_version": 1, "diffs": [[{"distance": 1, "min_diff": -1}]]}',
                "diffs[0][0]: min_diff must be >= 0",
            ),
            (
                '{"schema_version": 1, "congruences": '
                '[[], [{"span": 0, "gap": 1, "residue": 0, "modulus": 3}]]}',
                "congruences[1][0]: span must be >= 1",
            ),
            ('{"schema_version": 1, "diffs": 5}', "diffs: expected a JSON array, got 5"),
            (b"\xff\xfe{}", "not UTF-8 text"),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, text, where):
        path = tmp_path / "grid.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        rc = cli.main(["search", "--config", str(path)])
        assert rc == 2
        assert f"error: {path}: {where}" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, grid_config, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        rc = cli.main(["search", "--config", grid_config, "--out", str(out)])
        assert rc == 2
        assert f"error: {out}: " in capsys.readouterr().err


class FullStdout:
    """A stdout whose every write and flush fails as on a full disk; its
    fileno is a real descriptor, which main points at devnull."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buffer = self

    def fail(self, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    write = flush = fail

    def fileno(self) -> int:
        return self.fd


def stdout_commands(grid_config, coeffs_file):
    identities = Path(__file__).resolve().parents[1] / "configs" / "identities"
    return {
        "factor": ["factor", "--coeffs", coeffs_file],
        "enumerate": ["enumerate", "--conditions", str(identities / "I5.json"),
                      "--n", "30", "--list"],
        "verify": ["verify", "--identity", "I1", "--order", "30"],
        "search": ["search", "--config", grid_config],
    }


@pytest.fixture
def coeffs_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1, 1, 2, 3, 5")
    return str(path)


class TestStdoutFailure:
    # stdout that fails other than by a closed pipe (ENOSPC here) exits 1
    # with one error line, never a traceback

    @pytest.mark.parametrize("command", ["factor", "enumerate", "verify", "search"])
    def test_failing_stdout_exits_one_with_one_error_line(
        self, command, grid_config, coeffs_file, tmp_path, monkeypatch, capsys
    ):
        argv = stdout_commands(grid_config, coeffs_file)[command]
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", FullStdout(fd))
            rc = cli.main(argv)
        finally:
            os.close(fd)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: stdout: No space left on device"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["factor", "enumerate"])
    def test_dev_full_exits_one_without_traceback(self, command, grid_config, coeffs_file):
        root = Path(__file__).resolve().parents[1]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "sumside.cli",
                 *stdout_commands(grid_config, coeffs_file)[command]],
                cwd=root / "src", stdout=full, stderr=subprocess.PIPE, timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == b"error: stdout: No space left on device\n"


class TestParser:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_verify_help_lists_the_builtin_identities(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        names = ", ".join(sorted(BUILTIN_IDENTITIES))
        assert f"one of {names}, or 'all'" in help_text

    def test_console_entry_point_returns_int(self, grid_config):
        assert isinstance(cli.main(["search", "--config", grid_config]), int)

    def test_shipped_condition_files_match_builtins(self, capsys):
        root = Path(__file__).resolve().parents[1]
        for name, spec in sorted(BUILTIN_IDENTITIES.items()):
            path = root / "configs" / "identities" / f"{name}.json"
            loaded = ConditionSet.from_json(json.loads(path.read_text()))
            assert loaded == spec.conditions, name
        rc = cli.main(
            ["enumerate", "--conditions",
             str(root / "configs" / "identities" / "I1.json"), "--n", "6"]
        )
        assert rc == 0
        assert capsys.readouterr().out == "4\n"


SUBMODULES = ("partitions", "products", "recursions", "search", "series")


def _run_modules(code: str) -> tuple[set[str], set[str]]:
    """Run code in a fresh interpreter; return the sumside modules it left in
    sys.modules, and those among them whose code ran.  A LazyLoader module
    that never ran is an instance of a ModuleType subclass."""
    code += (
        "\nimport json, types\n"
        "mods = {k: m for k, m in sys.modules.items() if k.split('.')[0] == 'sumside'}\n"
        "print(json.dumps(sorted(mods)))\n"
        "print(json.dumps(sorted(k for k, m in mods.items() if type(m) is types.ModuleType)))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code], cwd=src,
        capture_output=True, text=True, timeout=60, check=True,
    )
    present, ran = proc.stdout.splitlines()[-2:]
    return set(json.loads(present)), set(json.loads(ran))


class TestLazyImports:
    def test_import_registers_every_submodule(self):
        present, ran = _run_modules("import sumside")
        assert present == {"sumside"} | {f"sumside.{m}" for m in SUBMODULES}
        assert ran == {"sumside"}

    def test_public_names_load_neither_dataclasses_nor_inspect(self):
        # dataclasses would import inspect, ast, dis and tokenize into every
        # CLI process, and exec each record's methods
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import sumside, sumside.cli\n"
            "for name in sumside.__all__:\n"
            "    getattr(sumside, name)\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=src,
            capture_output=True, text=True, timeout=60, check=True,
        )
        loaded = set(proc.stdout.split())
        assert "sumside.search" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_factor_runs_only_series(self, tmp_path):
        # and never loads json for a plain coefficient file
        path = tmp_path / "c.txt"
        path.write_text("1, 1, 1, 1")
        _, ran = _run_modules(
            "before = set(sys.modules)\n"
            f"import sumside.cli\nsumside.cli.main(['factor', '--coeffs', {str(path)!r}])\n"
            "assert 'json' not in set(sys.modules) - before, 'json loaded'"
        )
        assert ran == {"sumside", "sumside._record", "sumside.cli", "sumside.series"}

    def test_enumerate_runs_neither_recursions_nor_search(self, i1_conditions_file):
        _, ran = _run_modules(
            "import sumside.cli\n"
            f"sumside.cli.main(['enumerate', '--conditions', {i1_conditions_file!r}, '--n', '5'])"
        )
        assert {"sumside.partitions", "sumside.series"} <= ran  # counting runs the kernel
        assert not ran & {"sumside.recursions", "sumside.search"}

    def test_enumerate_list_runs_only_partitions(self):
        # partitions reaches the series kernel through the lazy module, and
        # only counting calls it
        path = Path(__file__).resolve().parents[1] / "configs" / "identities" / "I5.json"
        _, ran = _run_modules(
            "import sumside.cli\n"
            f"sumside.cli.main(['enumerate', '--conditions', {str(path)!r}, '--n', '12', '--list'])"
        )
        assert ran == {"sumside", "sumside._record", "sumside.cli", "sumside.partitions"}

    def test_loading_rules_does_not_run_series(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "identities" / "I5.json"
        _, ran = _run_modules(
            "import json\nfrom sumside import ConditionSet\n"
            f"ConditionSet.from_json(json.loads(open({str(path)!r}).read()))"
        )
        assert "sumside.partitions" in ran
        assert "sumside.series" not in ran
