#!/bin/bash
# End-to-end checks of the fbm_* tool binaries, run by ctest.
#
# Usage: test_tools.sh <dir with the tool binaries> <tests/data dir>
#
# - fbm_analyze reproduces the golden JSON;
# - fbm_live without --link equals --link 'all=*' with the link field
#   stripped, for tiling and overlapping windows at --threads 1 and 3;
# - a checkpoint cut by --max-windows, resumed with --restore, continues
#   the uninterrupted stream (kept prefix + resumed lines);
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

# expect_exit STATUS TOOL ARGS...: the tool exits with STATUS.
expect_exit() {
  local want=$1 rc=0
  shift
  "$bin/$@" > /dev/null 2>&1 || rc=$?
  test "$rc" -eq "$want" || fail "$* exited $rc, want $want"
}
scn=$data/scenario_ddos.scn
for tool in "fbm_live t.fbmt" "fbm_scenario $scn"; do
  # shellcheck disable=SC2086
  expect_exit 2 $tool --stride nan
  # shellcheck disable=SC2086
  expect_exit 2 $tool --warmup -1
done
for tool in "fbm_analyze t.fbmt" "fbm_live t.fbmt" "fbm_scenario $scn"; do
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
