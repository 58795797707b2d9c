"""Command-line behavior, driven through main(): in process, and in a fresh
interpreter where the test is about which modules a subcommand runs or how a
CLI process ends."""

import errno
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
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
    ProductShape,
    SearchGrid,
    SmallestPartRule,
    TruncatedSeries,
    count_sum_side,
    expand_product,
)

I1_CONDITIONS = BUILTIN_IDENTITIES["I1"].conditions
# the environment of every CLI process a test starts: PYTHONUNBUFFERED
# would write stdout through, hiding bytes left in its buffer
CLI_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.fixture
def grid_config(tmp_path):
    grid = SearchGrid(
        smallest=(None, SmallestPartRule(2)),
        diffs=((DiffDistRule(1, 2),),),
        congruences=((),),
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
            ProductShape.from_residues(9, {1, 3, 6, 7}),
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
        assert capsys.readouterr() == ("", f"error: {out}: No such file or directory\n")

    def test_both_methods_agree_for_all_identities(self, capsys):
        rc = cli.main(
            ["verify", "--identity", "all", "--order", "200", "--method", "both"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 6
        assert all("match through q^200 (both" in line for line in lines)

    def test_disagreeing_routes_print_a_warning_line(self, capsys, monkeypatch):
        # perturb only the enumeration route, so the two sum sides disagree
        def perturbed(conditions, n, cap=None):
            coeffs = list(count_sum_side(conditions, n, cap=cap))
            coeffs[11] += 1
            return TruncatedSeries(coeffs)

        monkeypatch.setattr(cli.recursions, "count_sum_side", perturbed)
        rc = cli.main(["verify", "--identity", "I1", "--order", "30", "--method", "both"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "I1: MISMATCH, first mismatch at q^11 (both)\n"
        assert captured.err == (
            "warning: recursion and enumeration sum sides disagree first at q^11\n"
        )


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
        "text, token",
        [
            ("1, 1_0, 2", "'1_0'"),
            ("1 1_0_1", "'1_0_1'"),
            ("1, \uff11", "'\uff11'"),
            ("1, 0x1", "'0x1'"),
            ("1, +-1", "'+-1'"),
            ('[1, "1_0", 2]', "'1_0'"),
            ('[1, "\uff11"]', "'\uff11'"),
            ('[1, " 2"]', "' 2'"),
            ("[1, 1.0]", "1.0"),
            ("[1, true]", "True"),
        ],
        ids=[
            "underscore", "underscores", "fullwidth", "hex", "two-signs",
            "json-underscore", "json-fullwidth", "json-space", "json-float", "json-bool",
        ],
    )
    def test_only_ascii_decimal_tokens(self, tmp_path, capsys, text, token):
        # int() alone would read 1_0 as 10 and a fullwidth digit as 1
        path = tmp_path / "c.txt"
        path.write_text(text, encoding="utf-8")
        rc = cli.main(["factor", "--coeffs", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {path}: coefficient 1 is not a decimal integer: {token}\n"
        assert captured.out == ""

    def test_signed_and_json_string_tokens(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        for text in ("+1, +1, -0, 0", '[1, "1", "-0", 0]'):
            path.write_text(text)
            assert cli.main(["factor", "--coeffs", str(path)]) == 0
            assert capsys.readouterr().out == "a_1 = 1\na_2 = -1\na_3 = 0\n"

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
                cwd=root / "src", env=CLI_ENV, stdout=w, stderr=subprocess.PIPE,
                timeout=60,
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
                cwd=root / "src", env=CLI_ENV, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
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
        want = expand_product(BUILTIN_IDENTITIES["I1"].shape.exponents(400))[400]
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
            cwd=src, env=CLI_ENV, capture_output=True, text=True, timeout=60,
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
        # p_max and min_repeats come from the grid file alone, so the CLI
        # refuses the period flags themselves, good value or bad
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--config", grid_config, flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""

    def test_uncertifiable_config_exits_two_before_any_cell(self, grid_config, capsys):
        obj = json.loads(Path(grid_config).read_text())
        obj.update(order=1, min_repeats=2)
        Path(grid_config).write_text(json.dumps(obj))
        rc = cli.main(["search", "--config", grid_config])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {grid_config}: order 1 is below min_repeats 2, "
            "too short to certify any period\n"
        )

    def test_uncertifiable_order_flag_exits_two(self, capsys):
        config = str(Path(__file__).resolve().parents[1] / "configs" / "classics.json")
        rc = cli.main(["search", "--config", config, "--order", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --order: order 1 is below min_repeats 2, too short to certify any period\n"
        )

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
                "smallest[1]: max_mult must be >= 1",
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
            ('{"schema_version": 1, "diffs": []}', "diffs: expected at least one option"),
            (b"\xff\xfe{}", "not UTF-8 text"),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, text, where):
        path = tmp_path / "grid.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        rc = cli.main(["search", "--config", str(path)])
        assert rc == 2
        assert f"error: {path}: {where}" in capsys.readouterr().err

    def test_report_does_not_depend_on_the_hash_seed(self):
        # set and dict order of str keys changes with PYTHONHASHSEED; the
        # report, timing masked, must not
        root = Path(__file__).resolve().parents[1]
        config = root / "configs" / "classics.json"
        reports = []
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "sumside.cli", "search",
                 "--config", str(config), "--order", "30"],
                cwd=root / "src", env={**CLI_ENV, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120, check=True,
            )
            reports.append(re.sub(r'"elapsed_ms": [^,\n]*', '"elapsed_ms": null', proc.stdout))
        assert json.loads(reports[0])["cells_run"] == 150
        assert reports[0] == reports[1]

    def test_unwritable_out_exits_two(self, grid_config, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        rc = cli.main(["search", "--config", grid_config, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"

    def test_directory_out_exits_two_before_the_sweep(self, grid_config, tmp_path, capsys):
        rc = cli.main(["search", "--config", grid_config, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [Path(grid_config)]

    def test_interrupted_run_leaves_the_old_report(self, grid_config, tmp_path, capsys, monkeypatch):
        # the report goes to a temporary file beside --out and replaces it
        # only when whole, so an interrupt leaves the old file as it was
        out = tmp_path / "report.json"
        out.write_text("old")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.search, "run_search", interrupted)
        rc = cli.main(["search", "--config", grid_config, "--out", str(out)])
        assert rc == 130
        assert capsys.readouterr().err.endswith("\ninterrupted\n")
        assert out.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "report.json"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ctrl_c_exits_130_and_leaves_nothing(self, tmp_path, jobs):
        # SIGINT to the whole process group, as a terminal's Ctrl-C sends
        # it, soon after the sweep starts: only the parent reacts, the pool
        # shuts down, and neither the report nor its temporary file is left
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "report.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "sumside.cli", "search",
             "--config", str(root / "configs" / "heavy.json"), "--order", "200",
             "--jobs", jobs, "--out", str(out)],
            cwd=root / "src", env=CLI_ENV, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            assert proc.stderr.readline().startswith("grid: 1800 cells")
            time.sleep(0.2)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, stdout, stderr) == (130, "", "interrupted\n")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ProcessLookupError):  # no worker outlives the run
            os.killpg(proc.pid, 0)


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
                cwd=root / "src", env=CLI_ENV, stdout=full, stderr=subprocess.PIPE,
                timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == b"error: stdout: No space left on device\n"


class TestParser:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_verify_has_no_enumeration_method(self, capsys):
        # each builtin spec has a recursion family, so its route is that
        # family, or the family and the sweep under --method both
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--identity", "I1", "--method", "enumeration"])
        assert exc.value.code == 2
        assert "invalid choice: 'enumeration'" in capsys.readouterr().err

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
        # exactly I1.json .. I6.json, one per builtin, each loading to its
        # conditions; CI's enumerate checks and the README read these files
        files = sorted(p.name for p in (root / "configs" / "identities").iterdir())
        assert files == [f"I{i}.json" for i in range(1, 7)]
        assert sorted(BUILTIN_IDENTITIES) == [f"I{i}" for i in range(1, 7)]
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


def _mask_ms(text: str) -> str:
    """text with the timings of a report or of verify's lines blanked."""
    text = re.sub(r'"elapsed_ms": [^,\n]*', '"elapsed_ms": null', text)
    return re.sub(r", \d+ ms\)", ", ms)", text)


class TestHardExit:
    # a CLI process ends by os._exit once main returns (cli.run); it must
    # give the exit code, stdout, stderr and --out text of main in process,
    # timings masked.

    @pytest.fixture
    def p12_file(self, tmp_path):
        p = [1, 0, -1, 2, 0, 1, 1, -1, 0, 2, 0, 1]
        path = tmp_path / "p12.txt"
        coeffs = expand_product(ProductShape(12, p).exponents(300)).coeffs
        path.write_text("\n".join(map(str, coeffs)) + "\n")
        return str(path)

    @pytest.mark.parametrize("argv, out", [
        (["search", "--config", "{configs}/classics.json", "--order", "30"], False),
        (["search", "--config", "{configs}/classics.json", "--order", "30"], True),
        (["verify", "--identity", "I1", "--order", "200"], True),
        (["factor", "--coeffs", "{p12}"], False),
        (["enumerate", "--conditions", "{configs}/identities/I5.json",
          "--n", "66", "--list"], False),
        (["verify", "--identity", "I9"], False),
    ], ids=["search", "search-out", "verify-out", "factor", "enumerate-list", "error"])
    def test_process_matches_main_in_process(self, argv, out, p12_file, tmp_path, capsys):
        root = Path(__file__).resolve().parents[1]
        argv = [a.format(configs=root / "configs", p12=p12_file) for a in argv]
        runs = []
        for side in ("process", "main"):
            (tmp_path / side).mkdir()
            args = argv + ["--out", str(tmp_path / side / "out")] if out else argv
            if side == "process":  # stdout is a pipe, read to the end
                proc = subprocess.run(
                    [sys.executable, "-m", "sumside.cli", *args],
                    cwd=root / "src", env=CLI_ENV, capture_output=True, text=True,
                    timeout=120,
                )
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            else:
                code = cli.main(args)
                stdout, stderr = capsys.readouterr()
            files = {f.name: _mask_ms(f.read_text()) for f in (tmp_path / side).iterdir()}
            runs.append((code, _mask_ms(stdout), stderr, files))
        assert runs[0] == runs[1]
        code, stdout, stderr, files = runs[0]
        assert code == (2 if argv[-1] == "I9" else 0)
        assert list(files) == (["out"] if out else [])
        if argv[0] == "enumerate":
            assert stdout.count("\n") == 56_291  # the count line and 56,290 partitions

    def test_help_exits_zero_with_its_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this width
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "sumside.cli", "--help"],
            cwd=root / "src", env=CLI_ENV, capture_output=True, text=True, timeout=60,
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert (proc.returncode, exc.value.code) == (0, 0)
        assert proc.stdout.startswith("usage: sumside")
        assert (proc.stdout, proc.stderr) == (capsys.readouterr().out, "")


SUBMODULES = ("partitions", "recursions", "search", "series")


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
