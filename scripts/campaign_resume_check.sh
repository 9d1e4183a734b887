#!/usr/bin/env bash
# Kill/resume equivalence harness for the campaign service.
#
# Runs example_ppsim_campaignd once uninterrupted (the reference), then runs
# the same campaign in a loop that kill -9s the process at arbitrary
# wall-clock points — each restart resumes from the checkpoint at a
# DIFFERENT thread count, and with one or four shards per checkpoint record
# (PPSIM_CKPT_EVERY) in turn, so kills also land inside multi-shard
# records — until a leg completes. The frame stream and the
# final results artifact of the killed-and-resumed campaign must be
# byte-identical to the reference, which is the service's core contract
# (tests/service/campaign_service_test.cpp pins the same property
# in-process at exact shard boundaries; this harness adds real SIGKILL at
# arbitrary byte positions, torn frame tails included). A last leg checks
# that a results file which cannot be written fails the run.
#
#   usage: campaign_resume_check.sh <path-to-example_ppsim_campaignd> [workdir]
#   env:   PPSIM_CAMPAIGN_N (default 32), PPSIM_CAMPAIGN_TRIALS (default 1024)
#
# The defaults give a ~1s campaign of 64 shards, so the 0.1-0.4s kill window
# lands several SIGKILLs before a leg finally completes.
set -euo pipefail

BIN=${1:?usage: campaign_resume_check.sh <path-to-example_ppsim_campaignd> [workdir]}
DIR=${2:-$(mktemp -d)}
N=${PPSIM_CAMPAIGN_N:-32}
TRIALS=${PPSIM_CAMPAIGN_TRIALS:-1024}
mkdir -p "$DIR"

echo "campaign_resume_check: workdir $DIR (n=$N, trials=$TRIALS per cell)"

# Reference: one uninterrupted run at a fixed thread count.
rm -f "$DIR"/ref.*
PPSIM_THREADS=2 "$BIN" "$DIR/ref.ckpt" "$DIR/ref.ndjson" "$N" "$TRIALS" \
    > /dev/null

# Victim: kill -9 at arbitrary points, resume at rotating thread counts.
rm -f "$DIR"/victim.*
attempt=0
kills=0
while true; do
  attempt=$((attempt + 1))
  if [ "$attempt" -gt 60 ]; then
    echo "FAIL: campaign did not complete within $attempt attempts" >&2
    exit 1
  fi
  threads=$(( (attempt % 4) + 1 ))
  every=$(( attempt % 2 == 1 ? 1 : 4 ))
  set +e
  PPSIM_THREADS=$threads PPSIM_CKPT_EVERY=$every "$BIN" "$DIR/victim.ckpt" \
      "$DIR/victim.ndjson" "$N" "$TRIALS" > /dev/null &
  pid=$!
  # Land the kill at an arbitrary wall-clock point; when the run finishes
  # first, the kill misses and `wait` reports a clean exit.
  sleep "0.$((RANDOM % 4 + 1))"
  kill -9 "$pid" 2> /dev/null && kills=$((kills + 1))
  wait "$pid"
  status=$?
  set -e
  if [ "$status" -eq 0 ]; then
    break
  elif [ "$status" -ne 137 ]; then
    echo "FAIL: campaignd exited $status (expected completion or SIGKILL)" >&2
    exit 1
  fi
done

cmp "$DIR/ref.ndjson" "$DIR/victim.ndjson"
cmp "$DIR/ref.ndjson.results.json" "$DIR/victim.ndjson.results.json"
echo "OK: $kills kill -9s across $attempt runs; frame stream and results" \
     "byte-identical to the uninterrupted reference"

# Full disk: with the results file symlinked to /dev/full every write of it
# fails (ENOSPC), so a completed campaign must exit nonzero and say so
# instead of reporting a results file it did not write.
rm -f "$DIR"/full.*
ln -s /dev/full "$DIR/full.ndjson.results.json"
set +e
"$BIN" "$DIR/full.ckpt" "$DIR/full.ndjson" "$N" "$TRIALS" \
    > /dev/null 2> "$DIR/full.err"
status=$?
set -e
if [ "$status" -eq 0 ] || ! grep -q "cannot write" "$DIR/full.err"; then
  echo "FAIL: campaignd exited $status with its results file on a full" \
       "disk (expected nonzero and 'cannot write')" >&2
  exit 1
fi
echo "OK: results file on a full disk -> exit $status"
