#!/bin/sh
# Differential check of `tegrec_cli batch`: the in-process service and the
# spool farm (docs/farm.md, here with one background worker) run the same
# batch loop and must report every job alike.
#
# Both --json summaries are compared after dropping what legitimately
# differs: the in-process "wall_ms", "from_cache" and service counters, the
# spool's "spool" path, and "avg_runtime_ms", which is wall clock.  What is
# left — each job's file, status, kind, fingerprint and every other result
# field — must be identical.  Trailing commas are stripped so that a dropped
# last key does not show up as a difference.
#
# Usage: batch_spool_diff.sh <path-to-tegrec_cli> <specs-dir>
set -eu

CLI=$1
SPECS=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/tegrec_batch_diff.XXXXXX")
WORKER_PID=""
cleanup() {
  [ -n "$WORKER_PID" ] && kill -9 "$WORKER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$CLI" batch --specs "$SPECS" --json > "$WORK/local.json" \
  || { echo "FAIL: in-process batch exited non-zero"; exit 1; }

mkdir -p "$WORK/spool" "$WORK/cache"
"$CLI" worker --spool "$WORK/spool" --cache "$WORK/cache" --owner diff \
       --idle-exit-ms 3000 2> "$WORK/worker.err" &
WORKER_PID=$!
"$CLI" batch --spool "$WORK/spool" --cache "$WORK/cache" --wait-ms 120000 \
       --json --specs "$SPECS" > "$WORK/spool.json" \
  || { echo "FAIL: spool batch exited non-zero"; cat "$WORK/spool.json"; exit 1; }
wait "$WORKER_PID" || { echo "FAIL: worker exited non-zero"; cat "$WORK/worker.err"; exit 1; }
WORKER_PID=""

comparable() {
  grep -v -e '"wall_ms"' -e '"from_cache"' -e '"avg_runtime_ms"' \
          -e '"executed"' -e '"cache_hits"' -e '"coalesced"' -e '"spool"' \
          "$1" | sed 's/,$//'
}
comparable "$WORK/local.json" > "$WORK/local.cmp"
comparable "$WORK/spool.json" > "$WORK/spool.cmp"
if ! cmp -s "$WORK/local.cmp" "$WORK/spool.cmp"; then
  echo "FAIL: in-process and spool summaries differ:"
  diff "$WORK/local.cmp" "$WORK/spool.cmp"
  exit 1
fi

specs=$(ls "$SPECS"/*.spec | wc -l)
done_jobs=$(grep -c '"status": "done"' "$WORK/local.cmp" || true)
[ "$done_jobs" -eq "$specs" ] || {
  echo "FAIL: $done_jobs of $specs jobs done"; cat "$WORK/local.json"; exit 1;
}
echo "PASS: $specs jobs report alike in process and through the spool"
