#!/bin/sh
# `tegrec_cli batch` flag wiring: a flag is either honoured or rejected with
# an error that names it, never accepted and ignored.
#
#   reject — the spool-only flags without --spool, --jobs with --spool and
#            --cache-max-bytes without --cache each exit non-zero with the
#            flag named on stderr, before any job runs;
#   cap    — without --spool, --cache-max-bytes reaches the service's disk
#            cache: a 1-byte cap evicts every artifact the run publishes.
#   scheme — `simulate --scheme` with an unknown name exits non-zero with
#            an error that names `simulate` and every accepted value,
#            `all` included.
#   horizon — `predict --horizon` that is not > 0, or that spans the whole
#            trace, exits non-zero naming --horizon; a valid one still runs.
#
# Usage: cli_batch_flags.sh <path-to-tegrec_cli> <spec-file> reject|cap|scheme|horizon
set -eu

CLI=$1
SPEC=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/tegrec_batch_flags.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# expect_rejected FLAG ARGS...: the run must fail and name FLAG.
expect_rejected() {
  flag=$1
  shift
  if "$CLI" batch --specs "$SPEC" "$@" >"$WORK/out" 2>"$WORK/err"; then
    echo "FAIL: batch $* exited 0; $flag was ignored" >&2
    exit 1
  fi
  if ! grep -q -- "$flag" "$WORK/err"; then
    echo "FAIL: batch $* did not name $flag:" >&2
    cat "$WORK/err" >&2
    exit 1
  fi
}

case $3 in
  reject)
    expect_rejected --wait-ms --cache "$WORK/c" --wait-ms 5
    expect_rejected --stale-ms --cache "$WORK/c" --stale-ms 3
    expect_rejected --max-attempts --cache "$WORK/c" --max-attempts 9
    expect_rejected --jobs --spool "$WORK/s" --cache "$WORK/c" --jobs 2
    expect_rejected --cache-max-bytes --cache-max-bytes 1
    if [ -n "$(ls -A "$WORK/c" 2>/dev/null)" ]; then
      echo "FAIL: a rejected run still wrote to the cache" >&2
      exit 1
    fi
    ;;
  cap)
    "$CLI" batch --specs "$SPEC" --cache "$WORK/c" --cache-max-bytes 1
    left=$(find "$WORK/c" -type f 2>/dev/null | wc -l)
    if [ "$left" -ne 0 ]; then
      echo "FAIL: --cache-max-bytes 1 left $left file(s) in the cache:" >&2
      ls -l "$WORK/c" >&2
      exit 1
    fi
    ;;
  scheme)
    if "$CLI" simulate --spec "$SPEC" --scheme foo >"$WORK/out" 2>"$WORK/err"; then
      echo "FAIL: simulate --scheme foo exited 0" >&2
      exit 1
    fi
    for word in simulate "'foo'" dnor inor ehtr baseline all; do
      if ! grep -q -- "$word" "$WORK/err"; then
        echo "FAIL: simulate --scheme foo did not name $word:" >&2
        cat "$WORK/err" >&2
        exit 1
      fi
    done
    ;;
  horizon)
    "$CLI" trace --out "$WORK/t.csv" --seed 3 --modules 8 --duration 60 >/dev/null
    for h in -5 0 1e30; do
      if "$CLI" predict --trace "$WORK/t.csv" --horizon "$h" >"$WORK/out" 2>"$WORK/err"; then
        echo "FAIL: predict --horizon $h exited 0:" >&2
        cat "$WORK/out" >&2
        exit 1
      fi
      if ! grep -q -- --horizon "$WORK/err"; then
        echo "FAIL: predict --horizon $h did not name --horizon:" >&2
        cat "$WORK/err" >&2
        exit 1
      fi
    done
    "$CLI" predict --trace "$WORK/t.csv" --horizon 2 >/dev/null
    ;;
  *)
    echo "usage: cli_batch_flags.sh <tegrec_cli> <spec-file> reject|cap|scheme|horizon" >&2
    exit 2
    ;;
esac
echo "OK: $3"
