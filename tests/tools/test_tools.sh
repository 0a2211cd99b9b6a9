#!/bin/bash
# End-to-end checks of the fbm_* tool binaries, run by ctest.
#
# Usage: test_tools.sh <dir with the tool binaries> <tests/data dir>
#
# - fbm_analyze reproduces the golden JSON;
# - untagged fbm_analyze (one link of N flow-hash shards) writes the same
#   table, JSON, partial file and report store at --threads 1, 3 and 0;
# - a batch interval is a tiling window: fbm_analyze --interval W and
#   fbm_live --window W agree exactly on every shared field of every
#   interval (flows, lambda, E[S], E[S^2/D], measured moments, b, capacity)
#   for W in {4, 5} at --threads 1 and 3;
# - a negative timestamp makes fbm_analyze (with and without --interval)
#   and fbm_live exit 1 with an error naming it;
# - fbm_live without --link equals --link 'all=*' with the link field
#   stripped, for tiling and overlapping windows at --threads 1 and 3;
# - fbm_live --metrics-prom ends with the same per-link packet and report
#   totals at --threads 1 and 3;
# - a checkpoint cut by --max-windows, resumed with --restore, continues
#   the uninterrupted stream (kept prefix + resumed lines), and so does a
#   --threads 3 checkpoint of a stream that went quiet (--follow --idle),
#   and one of a finite file read to its end;
#   a restore under another --threads is refused, naming the shard count;
# - a scenario run (fbm_trace_gen --scenario, then fbm_live --truth) passes
#   its precision/recall gate and writes the score JSON, a truth event the
#   trace never reaches fails the recall gate with status 1, and --truth
#   refuses --emit-partial and --restore;
# - NaN and infinite values and negative counts exit with status 2 in every
#   tool that takes such a flag, and a Delta past the bin cap exits 1.
set -euo pipefail

bin=$1
data=$2
work=$(mktemp -d "${TMPDIR:-/tmp}/fbm_tools.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$bin/fbm_analyze" "$data/golden_small.fbmt" --interval 4 --timeout 1 \
  --min-flows 0 --json | cmp - "$data/golden_small.json" ||
  fail "fbm_analyze drifted from golden_small.json"

"$bin/fbm_trace_gen" t.fbmt --duration 30 --mbps 6 --seed 5 > /dev/null
for threads in 1 3 0; do
  "$bin/fbm_analyze" t.fbmt --interval 5 --timeout 1 --threads "$threads" \
    > "table$threads.txt"
  "$bin/fbm_analyze" t.fbmt --interval 5 --timeout 1 --threads "$threads" \
    --json > "doc$threads.json"
  "$bin/fbm_analyze" t.fbmt --interval 5 --timeout 1 --threads "$threads" \
    --emit-partial "part$threads.fbmp" 2> /dev/null
  "$bin/fbm_analyze" t.fbmt --interval 5 --timeout 1 --threads "$threads" \
    --store "store$threads.fbms" > /dev/null 2>&1
done
test -s doc1.json || fail "fbm_analyze --json wrote nothing"
for threads in 3 0; do
  for f in "table$threads.txt" "doc$threads.json" "part$threads.fbmp" \
    "store$threads.fbms"; do
    cmp "$f" "${f/$threads./1.}" ||
      fail "fbm_analyze --threads $threads: $f differs from --threads 1"
  done
done
# same_fields ANALYZE_JSON LIVE_JSONL: every interval of the fbm_analyze
# document equals the fbm_live window of the same index, field by field.
same_fields() {
  python3 - "$1" "$2" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))["intervals"]
live = [json.loads(line) for line in open(sys.argv[2])]
if not doc or len(doc) != len(live):
    sys.exit(f"{len(doc)} intervals, {len(live)} windows")
for a, w in zip(doc, live):
    pairs = [
        (a["interval_index"], w["window"]),
        (a["start_s"], w["start_s"]),
        (a["length_s"], w["width_s"]),
        (a["inputs"]["flows"], w["flows"]["count"]),
    ]
    for key in ("lambda_per_s", "mean_size_bits",
                "mean_s2_over_d_bits2_per_s"):
        pairs.append((a["inputs"][key], w["flows"][key]))
    for group in ("measured", "model", "provisioning"):
        pairs += [(v, w[group][k]) for k, v in a[group].items()]
    for got, want in pairs:
        if got != want:
            sys.exit(f"interval {a['interval_index']}: {got} != {want}")
PY
}
for width in 4 5; do
  for threads in 1 3; do
    "$bin/fbm_analyze" t.fbmt --interval "$width" --timeout 1 --min-flows 0 \
      --threads "$threads" --json > batch.json
    "$bin/fbm_live" t.fbmt --window "$width" --timeout 1 \
      --threads "$threads" --json > live.jsonl
    same_fields batch.json live.jsonl ||
      fail "fbm_analyze --interval $width != fbm_live --window $width" \
        "(--threads $threads)"
  done
done

# Timestamps must be non-negative: both tools refuse the trace and name the
# offending timestamp.
{
  echo "timestamp,src,dst,sport,dport,proto,bytes"
  echo "-0.25,10.0.0.1,10.0.0.2,1000,80,6,500"
  echo "0.5,10.0.0.1,10.0.0.2,1000,80,6,500"
} > negative.csv
for run in "fbm_analyze negative.csv --interval 1" "fbm_analyze negative.csv" \
  "fbm_live negative.csv --window 1"; do
  rc=0
  # shellcheck disable=SC2086  # $run holds the tool and its flags
  "$bin/"$run > /dev/null 2> negative.err || rc=$?
  test "$rc" -eq 1 && grep -q -- "-0.25" negative.err ||
    fail "$run: a negative timestamp exited $rc: $(cat negative.err)"
done

for windows in "--window 5" "--window 10 --stride 4"; do
  # shellcheck disable=SC2086  # $windows holds two flags
  "$bin/fbm_live" t.fbmt $windows --timeout 1 --json > ref.jsonl
  test -s ref.jsonl || fail "no windows for $windows"
  for threads in 1 3; do
    # shellcheck disable=SC2086
    "$bin/fbm_live" t.fbmt $windows --timeout 1 --json --threads "$threads" |
      cmp - ref.jsonl || fail "untagged $windows --threads $threads"
    # shellcheck disable=SC2086
    "$bin/fbm_live" t.fbmt $windows --timeout 1 --json --threads "$threads" \
      --link 'all=*' | sed 's/^{"link": "all", /{/' | cmp - ref.jsonl ||
      fail "--link 'all=*' $windows --threads $threads"
  done
done

for threads in 1 3; do
  "$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json --threads "$threads" \
    --metrics-prom "m$threads.prom" > /dev/null
  grep '^fbm_link_' "m$threads.prom" > "links$threads.txt"
done
grep -q '^fbm_link_reports{link="all"} [1-9]' links1.txt ||
  fail "--metrics-prom: no final link report total"
cmp links1.txt links3.txt ||
  fail "--metrics-prom link totals differ between --threads 1 and 3"

"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json > full.jsonl
"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json --max-windows 3 \
  --checkpoint ck.fbmc > run1.jsonl
test "$(wc -l < run1.jsonl)" -eq 3 || fail "--max-windows 3"
"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json --restore ck.fbmc \
  > run2.jsonl 2> run2.err
n=$(sed -n 's/.*resuming after \([0-9]*\) reports.*/\1/p' run2.err)
test -n "$n" || fail "no resume banner"
{ head -n "$n" run1.jsonl; cat run2.jsonl; } | cmp - full.jsonl ||
  fail "checkpoint prefix + resume differs from the uninterrupted run"

# A sharded untagged run: the first half of the trace (24-byte .fbmt header,
# 28-byte records), followed until it goes quiet, checkpoints the windows
# its workers closed; the resume on the whole trace continues the stream.
packets=$(( ($(stat -c%s t.fbmt) - 24) / 28 ))
head -c $(( 24 + 28 * (packets / 2) )) t.fbmt > half.fbmt
"$bin/fbm_live" half.fbmt --window 5 --timeout 1 --json --threads 3 \
  --follow --idle 1 --checkpoint ck3.fbmc > run1.jsonl
"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json --threads 3 \
  --restore ck3.fbmc > run2.jsonl 2> run2.err
n=$(sed -n 's/.*resuming after \([0-9]*\) reports.*/\1/p' run2.err)
test -n "$n" || fail "no resume banner (--threads 3)"
{ head -n "$n" run1.jsonl; cat run2.jsonl; } | cmp - full.jsonl ||
  fail "--threads 3 checkpoint prefix + resume differs from the full run"
# The same half read to its end without --follow: the workers run behind
# the reader, so the windows they close after the last push are only
# counted once the drain ends, and the run checkpoints them then.
"$bin/fbm_live" half.fbmt --window 5 --timeout 1 --json --threads 3 \
  --checkpoint ck4.fbmc > run1.jsonl
test -s ck4.fbmc || fail "a finite --threads 3 run wrote no checkpoint"
"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json --threads 3 \
  --restore ck4.fbmc > run2.jsonl 2> run2.err
n=$(sed -n 's/.*resuming after \([0-9]*\) reports.*/\1/p' run2.err)
test -n "$n" || fail "no resume banner (finite --threads 3)"
{ head -n "$n" run1.jsonl; cat run2.jsonl; } | cmp - full.jsonl ||
  fail "finite --threads 3 checkpoint prefix + resume differs from the full run"
rc=0
"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --json --threads 1 \
  --restore ck3.fbmc > /dev/null 2> wrong.err || rc=$?
test "$rc" -ne 0 && grep -q "3 shards" wrong.err ||
  fail "a 3-shard checkpoint restored under --threads 1 ($rc)"

# expect_exit STATUS TOOL ARGS...: the tool exits with STATUS.
expect_exit() {
  local want=$1 rc=0
  shift
  "$bin/$@" > /dev/null 2>&1 || rc=$?
  test "$rc" -eq "$want" || fail "$* exited $rc, want $want"
}

"$bin/fbm_trace_gen" ddos.fbmt --scenario "$data/scenario_ddos.scn" \
  > /dev/null
expect_exit 0 fbm_live ddos.fbmt --truth ddos.fbmt.truth --window 5 \
  --stride 0 --timeout 1 --delta 0.1 --warmup 8 --json \
  --min-precision 0.9 --min-recall 0.9 --score s.json
grep -q '"fbm_scenario_score": 1' s.json || fail "score JSON schema key"
rm ddos.fbmt
cat > late.truth <<'TRUTH'
# fbm-scenario-truth v1
scenario late
seed 1
duration 200
grace 10
cooldown 60
segment 0 baseline 0 100
segment 1 ddos 100 200
event spike 100 200 link -
TRUTH
rc=0
"$bin/fbm_live" t.fbmt --window 5 --timeout 1 --truth late.truth \
  --min-recall 0.9 > /dev/null 2> late.err || rc=$?
test "$rc" -eq 1 && grep -q "gate: recall 0.000" late.err ||
  fail "a truth event past the trace end passed the recall gate ($rc)"
expect_exit 2 fbm_live t.fbmt --truth late.truth --emit-partial p.fbmp
expect_exit 2 fbm_live t.fbmt --truth late.truth --restore ck.fbmc
expect_exit 2 fbm_live t.fbmt --min-recall 0.9
expect_exit 2 fbm_live t.fbmt --score s.json

expect_exit 2 fbm_live t.fbmt --stride nan
expect_exit 2 fbm_live t.fbmt --warmup -1
for tool in "fbm_analyze t.fbmt" "fbm_live t.fbmt"; do
  # shellcheck disable=SC2086
  expect_exit 2 $tool --delta inf
  # shellcheck disable=SC2086
  expect_exit 2 $tool --threads -1
  # shellcheck disable=SC2086
  expect_exit 2 $tool --metrics-every nan
done
expect_exit 2 fbm_analyze t.fbmt --min-flows -1
expect_exit 2 fbm_live t.fbmt --max-windows -1
expect_exit 2 fbm_live t.fbmt --checkpoint-every nan
expect_exit 2 fbm_trace_gen g.fbmt --duration nan
expect_exit 2 fbm_trace_gen g.fbmt --tcp-fraction 2
expect_exit 2 fbm_trace_gen g.fbmt --profile -1
expect_exit 2 fbm_query s.fbms --downsample -inf
expect_exit 2 fbm_aggregate p.fbmp --metrics-every inf
# A finite Delta whose bin grid would not fit: refused, not a NaN report.
expect_exit 1 fbm_live t.fbmt --window 5 --delta 1e-300 --json
expect_exit 1 fbm_analyze t.fbmt --interval 5 --delta 1e-300 --json
echo "tools: all checks passed"
