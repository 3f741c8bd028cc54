#!/usr/bin/env bash
# End-to-end crash/resume check through the real CLI binary.
#
# For each of five runs (offline DP on one dense grid, across the
# maintenance scenario's changing grids and on the reduced grids of
# --eps, online algorithm A, online algorithm B) this script:
#   1. records the uninterrupted run's result line,
#   2. re-runs with --checkpoint + --crash-after, expecting the
#      simulated crash (exit 3) to leave a checkpoint behind,
#   3. resumes from the checkpoint with --resume,
# and fails unless the resumed result line is byte-identical to the
# uninterrupted one.  The checked-in online fixtures, written by an
# older binary, must resume to the same line.  Two refusal legs follow:
# `online` must refuse an instance with time-varying fleet sizes
# (offline only), and `serve` an out-of-range --domains.  The daemon's log store then survives a
# crash (crash_resume_log), and `replay` of that store must agree with
# the scenario runner's costs.  See docs/robustness.md.  (Daemon-level
# serving, metrics, and crash/resume e2e live in the scenario fleet now:
# `rightsizer scenario run test/scenarios/*.sexp`, docs/scenarios.md.)
#
# Usage: scripts/e2e_checkpoint.sh [path-to-rightsizer-binary]

set -euo pipefail

BIN=${1:-_build/default/bin/rightsizer.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILED=0

if [ ! -x "$BIN" ]; then
  echo "e2e_checkpoint: binary not found at $BIN (run 'dune build' first)" >&2
  exit 2
fi

# First line of a command's stdout, without a SIGPIPE-prone `| head -1`
# (under pipefail the producer's EPIPE death would count as a failure).
first_line() {
  local out
  out=$("$@") || return 1
  printf '%s\n' "${out%%$'\n'*}"
}

check_case() {
  local name=$1; shift
  local crash_after=$1; shift
  local ck="$WORK/$name.snap"
  local status

  # The uninterrupted reference also runs with --checkpoint (same code
  # path and algorithm selection as the crashed run — the time-dependent
  # online case checkpoints the B stepper, while the plain run would
  # pick algorithm C); it just never crashes.
  if ! first_line "$BIN" "$@" --checkpoint "$WORK/$name.base.snap" \
      --checkpoint-every 2 > "$WORK/$name.base"; then
    echo "FAIL $name: uninterrupted run errored" >&2; FAILED=1; return 0
  fi

  status=0
  "$BIN" "$@" --checkpoint "$ck" --checkpoint-every 2 \
    --crash-after "$crash_after" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 3 ]; then
    echo "FAIL $name: expected simulated crash (exit 3), got exit $status" >&2
    FAILED=1; return 0
  fi
  if [ ! -f "$ck" ]; then
    echo "FAIL $name: crash left no checkpoint at $ck" >&2
    FAILED=1; return 0
  fi

  if ! first_line "$BIN" "$@" --checkpoint "$ck" --resume "$ck" \
      > "$WORK/$name.resumed"; then
    echo "FAIL $name: resume errored" >&2; FAILED=1; return 0
  fi

  if diff -u "$WORK/$name.base" "$WORK/$name.resumed"; then
    echo "OK   $name: resumed run identical ($(cat "$WORK/$name.base"))"
  else
    echo "FAIL $name: resumed result differs from uninterrupted run" >&2
    cp "$ck" "${ARTIFACT_DIR:-$WORK}/" 2>/dev/null || true
    FAILED=1
  fi
}

check_case solve-dp     3 solve  --scenario cpu-gpu      --horizon 10
check_case solve-cross-grid 5 solve --scenario maintenance --horizon 30
check_case solve-approx 5 solve  --scenario large-fleet  --horizon 24 --eps 0.25
check_case online-alg-a 5 online --scenario cpu-gpu      --horizon 12
check_case online-alg-b 5 online --scenario time-varying --horizon 12

# Checkpoints written by an older binary must still resume: each
# checked-in online fixture was written by `online --scenario S
# --horizon 24 --checkpoint F --checkpoint-every 5 --crash-after 10`.
# Resuming a copy of it must print the first line of the uninterrupted
# checkpointed run.
fixture_case() {
  local name=$1 fixture=$2 scenario=$3
  local ck="$WORK/$name.snap"
  cp "$(dirname "$0")/../test/fixtures/$fixture" "$ck"
  if ! first_line "$BIN" online --scenario "$scenario" --horizon 24 \
      --checkpoint "$WORK/$name.base.snap" --checkpoint-every 5 > "$WORK/$name.base"; then
    echo "FAIL $name: uninterrupted run errored" >&2; FAILED=1; return 0
  fi
  if ! first_line "$BIN" online --scenario "$scenario" --horizon 24 \
      --checkpoint "$ck" --resume "$ck" > "$WORK/$name.resumed"; then
    echo "FAIL $name: resume from $fixture errored" >&2; FAILED=1; return 0
  fi
  if diff -u "$WORK/$name.base" "$WORK/$name.resumed"; then
    echo "OK   $name: $fixture resumed identical ($(cat "$WORK/$name.base"))"
  else
    echo "FAIL $name: resume from $fixture differs from the uninterrupted run" >&2
    FAILED=1
  fi
}
fixture_case fixture-alg-a online_three_tier_v1.snap three-tier
fixture_case fixture-alg-b online_time_varying_v1.snap time-varying

# Time-varying fleet sizes (Section 4.3) are offline only: `online`
# must refuse the maintenance scenario, with the error that says so,
# instead of printing a schedule that breaks its maintenance window.
maintenance_case() {
  local status=0
  "$BIN" online --scenario maintenance > /dev/null 2> "$WORK/maintenance.err" \
    || status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL maintenance: online accepted a size-varying instance" >&2
    FAILED=1
  elif ! grep -q 'time-varying fleet sizes' "$WORK/maintenance.err"; then
    echo "FAIL maintenance: exit $status without the size-varying refusal:" >&2
    cat "$WORK/maintenance.err" >&2
    FAILED=1
  else
    echo "OK   maintenance: online refused it (exit $status): $(cat "$WORK/maintenance.err")"
  fi
}
maintenance_case

# `serve --domains 0` must be refused while the arguments are checked,
# with an error that names the flag.  A daemon that accepted it would
# listen until stopped, so the run is bounded by a timeout; its SIGTERM
# stops a listening daemon with status 0 (or 143 if it is killed).
serve_domains_case() {
  local status=0
  timeout --preserve-status 10 "$BIN" serve --unix "$WORK/refused.sock" --domains 0 \
    > /dev/null 2> "$WORK/serve-domains.err" || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -ge 128 ]; then
    echo "FAIL serve-domains: serve accepted --domains 0 (exit $status)" >&2
    FAILED=1
  elif ! grep -q -- '--domains' "$WORK/serve-domains.err"; then
    echo "FAIL serve-domains: exit $status without naming --domains:" >&2
    cat "$WORK/serve-domains.err" >&2
    FAILED=1
  else
    echo "OK   serve-domains: serve refused --domains 0 (exit $status): $(cat "$WORK/serve-domains.err")"
  fi
}
serve_domains_case

# Daemon crash/resume: the daemon serves with --log-dir (the
# incremental session log, its only durable state; docs/durability.md),
# survives a mid-cement fault plus a hard crash, and must answer the
# re-fed slots bit-identically after recovering from base + tail.  The
# scenario runner asserts the bit-identity; its JSON recovery report is
# kept as a CI artifact.  The run gets a private TMPDIR that must be
# empty afterwards: a passing scenario removes its workdir, store/
# included.
log_store_case() {
  local out="$WORK/log-store"
  local tmp="$WORK/log-store-tmp"
  mkdir -p "$out" "$tmp"
  if TMPDIR="$tmp" "$BIN" scenario run test/scenarios/crash_resume_log.sexp \
      --out "$out" > "$WORK/log-store.txt" 2>&1; then
    echo "OK   log-store: $(tail -1 "$WORK/log-store.txt")"
  else
    echo "FAIL log-store: crash_resume_log scenario failed" >&2
    cat "$WORK/log-store.txt" >&2
    FAILED=1
  fi
  if [ -n "$(ls -A "$tmp")" ]; then
    echo "FAIL log-store: the run left files in its TMPDIR:" >&2
    ls -AR "$tmp" >&2
    FAILED=1
  fi
  cp "$out"/*.json "${ARTIFACT_DIR:-$WORK}/" 2>/dev/null || true
}
log_store_case

# `replay` must judge a recorded session as the scenario runner judged
# it live.  A crash_resume_log run keeps its workdir (store/ included);
# replaying that store must print one row per session (4), each with
# the artifact's online cost, ratio and OPT at the table's precision.
replay_case() {
  local wd="$WORK/replay-wd"
  local out="$WORK/replay-art"
  mkdir -p "$wd" "$out"
  if ! "$BIN" scenario run test/scenarios/crash_resume_log.sexp \
      --workdir "$wd" --out "$out" > "$WORK/replay-run.txt" 2>&1; then
    echo "FAIL replay: crash_resume_log scenario failed" >&2
    cat "$WORK/replay-run.txt" >&2
    FAILED=1; return 0
  fi
  local status=0
  "$BIN" replay --store "$wd/store" > "$WORK/replay.txt" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL replay: exit $status" >&2
    cat "$WORK/replay.txt" >&2
    FAILED=1; return 0
  fi
  if python3 - "$out/crash-resume-log.json" "$WORK/replay.txt" <<'PY'
import json, sys
sessions = {s["id"]: s for s in json.load(open(sys.argv[1]))["sessions"]}
# columns: session scenario slots old old-cost old-ratio new new-cost new-ratio OPT delta%
rows = [r for r in map(str.split, open(sys.argv[2])) if r and r[0] in sessions]
bad = [] if len(rows) == 4 else ["%d rows, want 4" % len(rows)]
for r in rows:
    s = sessions[r[0]]
    want = ["%.3f" % s["online_cost"], "%.4f" % s["ratio"], "%.3f" % s["opt_cost"]]
    if [r[4], r[5], r[9]] != want:
        bad.append("%s: replay %s, runner %s" % (r[0], [r[4], r[5], r[9]], want))
for b in bad:
    print(b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
  then
    echo "OK   replay: 4 rows match the runner's online cost, ratio and OPT"
  else
    echo "FAIL replay: rows disagree with the runner's artifact:" >&2
    cat "$WORK/replay.txt" >&2
    FAILED=1
  fi
}
replay_case

exit $FAILED
