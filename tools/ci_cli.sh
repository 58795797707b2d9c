#!/usr/bin/env bash
# The CLI checks of the "installed sumside script" CI step, run from the
# repository root.  SUMSIDE is the command that runs the CLI: `sumside` by
# default, the console script that pyproject.toml declares, as installed by
# `pip install .`; from a checkout, `SUMSIDE="python -m sumside.cli"` with
# PYTHONPATH=src.  Files the checks write go to a temporary directory that
# is removed on exit.
#
# Orders 1000 and 2000 with both engines are above what Tier-1 verifies,
# and each product digest at order 2000 must equal that of the product
# expanded here, since verify expands a product only on a mismatch;
# the listing must hold one line per counted partition, after its count
# line (56,291 lines for I5 at n = 66, which caps the copies of 1, and
# 42,165 for I6 at n = 70, which caps the copies of 2); factor must return
# every exponent of a period-12 product expanded to order 3000, which its
# 63-term prefix proposes and one exact product certifies, and, with one
# coefficient of the order-2000 product moved, fall back to Newton's
# division while --order 150 (certified again) still prints the full run's
# first 150 lines, and return every exponent of a period-60 product expanded
# to order 2000, a period too long for the prefix to propose, so that the
# division factors it whole, and so for seeded aperiodic exponents in -3..3
# expanded to order 2000, which Newton's division factors at every level, and
# for (1-q)^-(2^32+5) at order 300, whose product digits are wide, and
# refuse the coefficient 1_0 (which Python's int() reads as 10) with exit
# 2, one error line naming coefficient 1 and an empty stdout; search
# must sweep all 150 classics cells to the same 38 hits, with or without the
# pool (each worker takes whole rows, in about four batches a worker), and
# --refine must recheck all 38 at
# order 60 to the same report at --jobs 1, 2 and 3; the heavy grid
# (configs/heavy.json)
# must sweep all 1,800 cells to the same 157 hits at --jobs 1, 2 and 3
# (whole-row batches of uneven size at 3), and the same report at order 200
# with --jobs 1 and 2, where its prefix sieve rejects most series, and its
# row cache must give every cell the series of a count with the cache closed
# at orders 200 and 400 (about 20 s); an order too short to certify any period must
# exit 2 at load, printing nothing to stdout, and so must a grid file with an
# empty "diffs" list, its one error line naming diffs.  The script ends through the
# CLI's hard exit (cli.run), so --help must still exit 0 with its usage, and
# an unknown identity must exit 2 with one error line and an empty stdout.
set -eu
SUMSIDE=${SUMSIDE:-sumside}
w=$(mktemp -d)
trap 'rm -rf "$w"' EXIT

$SUMSIDE --help > "$w/help.txt"
grep -q "^usage: sumside" "$w/help.txt"
rc=0; $SUMSIDE verify --identity I9 > "$w/i9.out" 2> "$w/i9.err" || rc=$?
test "$rc" -eq 2
test ! -s "$w/i9.out"
test "$(wc -l < "$w/i9.err")" -eq 1
grep -q "^error: unknown identity 'I9'" "$w/i9.err"
echo "--help exits 0 with its usage; an unknown identity exits 2 with one error line"
$SUMSIDE verify --identity all --order 200
$SUMSIDE verify --identity all --order 1000 --method both
$SUMSIDE verify --identity all --order 2000 --method both --out "$w/v2000.json"
python -c "import json; from sumside import BUILTIN_IDENTITIES as ids, coefficient_digest, expand_product; rs = json.load(open('$w/v2000.json')); assert len(rs) == 6 and all(r['product_digest'] == coefficient_digest(expand_product(ids[r['identity']].shape.exponents(2000))) for r in rs), rs"
echo "verify at order 2000: all 6 product digests match the expanded products"
$SUMSIDE enumerate --conditions configs/identities/I5.json --n 30
for check in I5:66 I6:70; do
  id=${check%:*} n=${check#*:}
  count=$($SUMSIDE enumerate --conditions "configs/identities/$id.json" --n "$n")
  lines=$($SUMSIDE enumerate --conditions "configs/identities/$id.json" --n "$n" --list | wc -l)
  echo "$id at n = $n: count $count, listing $lines lines"
  test "$lines" -eq $((count + 1))
done
p="[1, 0, -1, 2, 0, 1, 1, -1, 0, 2, 0, 1]"
python -c "from sumside import ProductShape, expand_product; p = $p; print(*expand_product(ProductShape(12, p).exponents(3000)), sep='\n')" > "$w/p12.txt"
python -c "p = $p; print(''.join(f'a_{m} = {p[(m - 1) % 12]}\n' for m in range(1, 3001)), end='')" > "$w/p12.want"
$SUMSIDE factor --coeffs "$w/p12.txt" > "$w/p12.out"
diff -q "$w/p12.want" "$w/p12.out"
echo "factor at order 3000: $(wc -l < "$w/p12.out") exponents match"
python -c "from sumside import ProductShape, expand_product; p = $p; b = list(expand_product(ProductShape(12, p).exponents(2000))); b[1000] += 1; print(*b, sep='\n')" > "$w/miss.txt"
$SUMSIDE factor --coeffs "$w/miss.txt" > "$w/miss.out"
$SUMSIDE factor --coeffs "$w/miss.txt" --order 150 > "$w/miss150.out"
head -n 150 "$w/miss.out" | diff -q - "$w/miss150.out"
test "$(sed -n 1000p "$w/miss.out")" = "a_1000 = 3"  # the profile gives 2
echo "factor of a near-periodic series at order 2000: --order 150 prints the full run's first 150 lines"
p="[1, 1, 0, 1, 0, 2, 2, 1, -1, -1, 0, 0, 2, -1, 0, -1, 2, 0, 0, 1, 0, -1, -1, 1, 0, -1, 0, 1, 0, 1, -1, 0, 0, 1, 0, 0, -1, 1, 2, 1, 2, -1, -1, -1, -1, -1, -1, 0, 2, 1, 2, 2, 0, 1, 1, 2, -1, 2, -1, 2]"
python -c "from sumside import ProductShape, expand_product; p = $p; print(*expand_product(ProductShape(60, p).exponents(2000)), sep='\n')" > "$w/p60.txt"
python -c "p = $p; print(''.join(f'a_{m} = {p[(m - 1) % 60]}\n' for m in range(1, 2001)), end='')" > "$w/p60.want"
$SUMSIDE factor --coeffs "$w/p60.txt" > "$w/p60.out"
diff -q "$w/p60.want" "$w/p60.out"
echo "factor of a period-60 product at order 2000, by the division: $(wc -l < "$w/p60.out") exponents match"
python -c "import random; from sumside import TruncatedSeries, expand_product; rng = random.Random(35); a = [0] + [rng.randint(-3, 3) for _ in range(2000)]; print(*expand_product(TruncatedSeries(a)), sep='\n')" > "$w/aper.txt"
python -c "import random; rng = random.Random(35); print(''.join(f'a_{m} = {rng.randint(-3, 3)}\n' for m in range(1, 2001)), end='')" > "$w/aper.want"
$SUMSIDE factor --coeffs "$w/aper.txt" > "$w/aper.out"
diff -q "$w/aper.want" "$w/aper.out"
echo "factor of aperiodic exponents at order 2000, by Newton's division at every level: $(wc -l < "$w/aper.out") exponents match"
python -c "from sumside import TruncatedSeries, expand_product; print(*expand_product(TruncatedSeries([0, 2**32 + 5] + [0] * 299)), sep='\n')" > "$w/wide.txt"
python -c "print(''.join(f'a_{m} = {2**32 + 5 if m == 1 else 0}\n' for m in range(1, 301)), end='')" > "$w/wide.want"
$SUMSIDE factor --coeffs "$w/wide.txt" > "$w/wide.out"
diff -q "$w/wide.want" "$w/wide.out"
echo "factor of (1-q)^-(2^32+5) at order 300: $(wc -l < "$w/wide.out") exponents match"
printf '1,1_0,2\n' > "$w/under.txt"
rc=0; $SUMSIDE factor --coeffs "$w/under.txt" > "$w/under.out" 2> "$w/under.err" || rc=$?
test "$rc" -eq 2
test ! -s "$w/under.out"
test "$(wc -l < "$w/under.err")" -eq 1
grep -q "^error: .*: coefficient 1 is not a decimal integer: '1_0'$" "$w/under.err"
echo "factor of 1,1_0,2: exit 2 with one error line naming coefficient 1"
$SUMSIDE search --config configs/classics.json --order 40 --jobs 1 > "$w/s1.json"
$SUMSIDE search --config configs/classics.json --order 40 --jobs 2 > "$w/s2.json"
$SUMSIDE search --config configs/classics.json --order 40 --jobs 3 > "$w/s3.json"
python -c "import json; a, b, c = (json.load(open(f'$w/{f}')) for f in ('s1.json', 's2.json', 's3.json')); [r.pop('elapsed_ms') for r in (a, b, c)]; assert (a['cells_run'], len(a['hits']), a['failures']) == (150, 38, []), a; assert a == b == c, 'reports differ across --jobs'"
echo "search at order 40: 150 cells, 38 hits, same report at --jobs 1, 2 and 3"
$SUMSIDE search --config configs/classics.json --order 30 --refine 60 --jobs 1 > "$w/r1.json"
$SUMSIDE search --config configs/classics.json --order 30 --refine 60 --jobs 2 > "$w/r2.json"
$SUMSIDE search --config configs/classics.json --order 30 --refine 60 --jobs 3 > "$w/r3.json"
python -c "import json; a, b, c = (json.load(open(f'$w/{f}')) for f in ('r1.json', 'r2.json', 'r3.json')); [r.pop('elapsed_ms') for r in (a, b, c)]; assert a == b == c, 'refined reports differ across --jobs'; assert len(a['hits']) == 38 and all(h['refined']['order'] == 60 for h in a['hits']), a"
echo "search at order 30 refined at 60: 38 hits rechecked, same report at --jobs 1, 2 and 3"
$SUMSIDE search --config configs/heavy.json --order 40 --jobs 1 > "$w/h1.json"
$SUMSIDE search --config configs/heavy.json --order 40 --jobs 2 > "$w/h2.json"
$SUMSIDE search --config configs/heavy.json --order 40 --jobs 3 > "$w/h3.json"
python -c "import json; a, b, c = (json.load(open(f'$w/{f}')) for f in ('h1.json', 'h2.json', 'h3.json')); [r.pop('elapsed_ms') for r in (a, b, c)]; assert (a['cells_run'], len(a['hits']), a['failures']) == (1800, 157, []), a; assert a == b == c, 'heavy reports differ across --jobs'"
echo "search heavy grid at order 40: 1800 cells, 157 hits, same report at --jobs 1, 2 and 3"
$SUMSIDE search --config configs/heavy.json --order 200 --jobs 1 > "$w/h200j1.json"
$SUMSIDE search --config configs/heavy.json --order 200 --jobs 2 > "$w/h200j2.json"
python -c "import json; a, b = (json.load(open(f'$w/{f}')) for f in ('h200j1.json', 'h200j2.json')); [r.pop('elapsed_ms') for r in (a, b)]; assert (a['cells_run'], a['failures']) == (1800, []), a; assert a == b, 'heavy order-200 reports differ across --jobs'"
echo "search heavy grid at order 200: same report at --jobs 1 and 2"
python -c "
import json
from sumside import SearchGrid, count_sum_side
from sumside.partitions import _open_rows
grid = SearchGrid.from_json(json.load(open('configs/heavy.json')))
for n in (200, 400):
    closed = [count_sum_side(c, n) for c in grid.cells()]
    _open_rows(grid.smallest)
    assert [count_sum_side(c, n) for c in grid.cells()] == closed, n
    _open_rows(None)
"
echo "heavy grid at orders 200 and 400: every cell's row-cache series equals its own count"
rc=0; $SUMSIDE search --config configs/classics.json --order 1 > "$w/o1.json" || rc=$?
test "$rc" -eq 2
test ! -s "$w/o1.json"
echo "search at order 1: exit 2 at load, nothing on stdout"
echo '{"schema_version": 1, "diffs": []}' > "$w/empty.json"
rc=0; $SUMSIDE search --config "$w/empty.json" > "$w/e.out" 2> "$w/e.err" || rc=$?
test "$rc" -eq 2
test ! -s "$w/e.out"
test "$(wc -l < "$w/e.err")" -eq 1
grep -q "^error: .*: diffs: expected at least one option$" "$w/e.err"
echo "search on a grid with no diffs option: exit 2, one error line naming diffs"
