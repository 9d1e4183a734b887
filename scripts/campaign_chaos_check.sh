#!/usr/bin/env bash
# Chaos harness for the self-healing campaign service.
#
# Runs example_ppsim_campaignd once fault-free (the reference), then runs
# the same campaign under a battery of randomized failpoint schedules
# (PPSIM_FAILPOINTS, grammar in src/core/failpoint.hpp) and holds the
# service to its contract: every transient fault heals in place and the
# surviving frame stream + results artifact are BYTE-IDENTICAL to the
# fault-free run; abort-class faults exit with a documented code and a
# clean rerun resumes to the identical artifacts; a persistently failing
# shard is quarantined (exit 4, recorded in the checkpoint, results
# withheld) with the rest of the campaign completed — never a hang, a
# silent restart, or a corrupt stream. Every leg runs under `timeout` so
# a hang is a loud failure, not a stuck CI job.
#
#   usage: campaign_chaos_check.sh <path-to-example_ppsim_campaignd> [workdir]
#   env:   PPSIM_CAMPAIGN_N (default 16), PPSIM_CAMPAIGN_TRIALS (default 192),
#          PPSIM_CHAOS_TIMEOUT (seconds per leg, default 180),
#          PPSIM_CHAOS_SEED (seed for the randomized schedules; default
#          $RANDOM so every run draws fresh probabilistic patterns — the
#          seed is echoed for replay)
#
# The unit layer under this harness is `ctest -L chaos`
# (tests/core/failpoint_test.cpp + tests/service/self_healing_test.cpp).
set -euo pipefail

BIN=${1:?usage: campaign_chaos_check.sh <path-to-example_ppsim_campaignd> [workdir]}
DIR=${2:-$(mktemp -d)}
N=${PPSIM_CAMPAIGN_N:-16}
TRIALS=${PPSIM_CAMPAIGN_TRIALS:-192}
TO=${PPSIM_CHAOS_TIMEOUT:-180}
SEED=${PPSIM_CHAOS_SEED:-$RANDOM}
mkdir -p "$DIR"

echo "campaign_chaos_check: workdir $DIR (n=$N, trials=$TRIALS, seed=$SEED)"

# Fault-free reference.
rm -f "$DIR"/ref.*
PPSIM_THREADS=2 timeout "$TO" "$BIN" "$DIR/ref.ckpt" "$DIR/ref.ndjson" \
    "$N" "$TRIALS" > /dev/null

run_leg() {
  # run_leg <name> <failpoints> <threads> <expected-exit>
  local name=$1 spec=$2 threads=$3 want=$4 status
  set +e
  PPSIM_THREADS=$threads PPSIM_FAILPOINTS=$spec timeout "$TO" \
      "$BIN" "$DIR/victim.ckpt" "$DIR/victim.ndjson" "$N" "$TRIALS" \
      > "$DIR/victim.out" 2> "$DIR/victim.err"
  status=$?
  set -e
  if [ "$status" -eq 124 ]; then
    echo "FAIL[$name]: HUNG past ${TO}s under '$spec'" >&2
    exit 1
  fi
  if [ "$status" -ne "$want" ]; then
    echo "FAIL[$name]: exit $status under '$spec' (expected $want)" >&2
    cat "$DIR/victim.err" >&2
    exit 1
  fi
}

same_as_ref() {
  # same_as_ref <name> <failpoints>: the victim's stream and results are
  # byte-identical to the fault-free reference.
  local name=$1 spec=$2
  cmp "$DIR/ref.ndjson" "$DIR/victim.ndjson" || {
    echo "FAIL[$name]: frame stream diverged under '$spec'" >&2; exit 1; }
  cmp "$DIR/ref.ndjson.results.json" "$DIR/victim.ndjson.results.json" || {
    echo "FAIL[$name]: results diverged under '$spec'" >&2; exit 1; }
  echo "OK[$name]: healed '$spec' byte-identically"
}

heal_leg() {
  # A schedule the service must absorb completely: exit 0, stream and
  # results byte-identical to the fault-free reference.
  local name=$1 spec=$2 threads=$3
  rm -f "$DIR"/victim.*
  run_leg "$name" "$spec" "$threads" 0
  same_as_ref "$name" "$spec"
}

# --- Healed schedules: transient faults must be invisible in the output ----

# 1. EINTR storms on the frame sink, randomized probabilistic pattern.
heal_leg sink_eintr "service.file_sink.write=p250@${SEED}xeintr" 2

# 2. Short writes on the frame sink (randomized probabilistic pattern plus
#    a counted burst up front): partial progress must be completed, never
#    duplicated or torn.
heal_leg sink_short \
    "service.file_sink.write=2xshort:1+p250@${SEED}xshort:3" 2

# 3. Fail-once ENOSPC on a checkpoint write: the save fails, the retry
#    policy re-runs the whole idempotent save, the committed checkpoint
#    stays intact throughout.
heal_leg ckpt_enospc_once "service.ckpt.write=enospc" 2

# 4. Transient worker error below the quarantine limit: the shard retries
#    and heals (threads=1 makes the hit order deterministic).
heal_leg worker_transient "service.worker.shard=2xeintr" 1

# 5. Fail-then-recover mix across sink and checkpoint durability sites:
#    counted sink faults, then a randomized EAGAIN pattern, plus EINTR at
#    fsync/rename.
heal_leg mixed_recover \
    "service.file_sink.write=1xshort:1+2xeintr+p200@${SEED}xeagain;service.ckpt.fsync=2xeintr;service.ckpt.rename=1xeintr" \
    2

# 6. A checkpoint record append that writes 7 bytes and then hits ENOSPC:
#    the partial record is cut off the file, the retry re-appends it whole,
#    and the committed prefix survives — a clean rerun finds every shard
#    already checkpointed and runs none.
heal_leg ckpt_append_enospc_short "service.ckpt.append=short:7+enospc" 2
run_leg ckpt_append_enospc_short_rerun "" 2 0
grep -q "^ran 0 shards" "$DIR/victim.out" || {
  echo "FAIL[ckpt_append_enospc_short]: rerun did not find every shard" \
       "in the checkpoint" >&2; exit 1; }
cmp "$DIR/ref.ndjson" "$DIR/victim.ndjson"

# 7. EINTR on the fdatasync that makes each appended record durable.
heal_leg ckpt_datasync_eintr "service.ckpt.datasync=2xeintr" 2

# 8. The sites only a resume reaches: pause the campaign after a few
#    shards (exit 3), then resume under EINTR at the checkpoint load's
#    reads, the sink's truncate and flush, and the compacting snapshot's
#    open and directory fsync, plus an EAGAIN on the flush that backs off.
rm -f "$DIR"/victim.*
PPSIM_CAMPAIGN_STOP=3 run_leg resume_sites_pause "" 2 3
resume_spec="service.file_sink.flush=eintr+eagain;service.file_sink.truncate=eintr"
resume_spec+=";service.ckpt.open=eintr;service.ckpt.dir_fsync=eintr"
resume_spec+=";service.ckpt.read=2xeintr"
run_leg resume_sites "$resume_spec" 2 0
same_as_ref resume_sites "$resume_spec"

# --- Abort-class fault: documented exit, clean rerun resumes identically ---

rm -f "$DIR"/victim.*
run_leg ckpt_abort "service.ckpt.write=throw" 2 2
grep -q "refused:" "$DIR/victim.err" || {
  echo "FAIL[ckpt_abort]: no refusal diagnostic on stderr" >&2; exit 1; }
# Rerun with no failpoints: resume from whatever was committed and finish.
run_leg ckpt_abort_resume "" 2 0
cmp "$DIR/ref.ndjson" "$DIR/victim.ndjson" || {
  echo "FAIL[ckpt_abort_resume]: stream diverged after abort+resume" >&2
  exit 1; }
cmp "$DIR/ref.ndjson.results.json" "$DIR/victim.ndjson.results.json"
echo "OK[ckpt_abort]: abort-class fault exited 2, clean rerun resumed" \
     "byte-identically"

# The same at the record append: the snapshot the run created stays the
# checkpoint, and the rerun resumes from it.
rm -f "$DIR"/victim.*
run_leg ckpt_append_abort "service.ckpt.append=throw" 2 2
grep -q "refused:" "$DIR/victim.err" || {
  echo "FAIL[ckpt_append_abort]: no refusal diagnostic on stderr" >&2; exit 1; }
run_leg ckpt_append_abort_resume "" 2 0
cmp "$DIR/ref.ndjson" "$DIR/victim.ndjson" || {
  echo "FAIL[ckpt_append_abort_resume]: stream diverged after abort+resume" >&2
  exit 1; }
cmp "$DIR/ref.ndjson.results.json" "$DIR/victim.ndjson.results.json"
echo "OK[ckpt_append_abort]: append abort exited 2, clean rerun resumed" \
     "byte-identically"

# --- Persistent shard failure: quarantine, degrade, never lie -------------

rm -f "$DIR"/victim.*
# shard_max_attempts=3 and three injected failures on the first shard
# dispatched (threads=1): the shard exhausts its retries and is
# quarantined; the rest of the campaign completes.
run_leg quarantine "service.worker.shard=3xeintr" 1 4
grep -q "quarantined cell" "$DIR/victim.err" || {
  echo "FAIL[quarantine]: exit 4 without a quarantine report" >&2; exit 1; }
if [ -e "$DIR/victim.ndjson.results.json" ]; then
  echo "FAIL[quarantine]: degraded campaign still wrote results" >&2
  exit 1
fi
# The degraded stream is the reference minus exactly the quarantined
# shard's frame (shard 0 = line 1) — no other byte may move.
tail -n +2 "$DIR/ref.ndjson" > "$DIR/ref.degraded"
cmp "$DIR/ref.degraded" "$DIR/victim.ndjson" || {
  echo "FAIL[quarantine]: degraded stream is not reference-minus-shard" >&2
  exit 1; }
# A clean rerun must respect the recorded quarantine: still degraded
# (exit 4), zero shards re-run, reason preserved in the checkpoint.
run_leg quarantine_rerun "" 2 4
grep -q "quarantined cell" "$DIR/victim.err" || {
  echo "FAIL[quarantine_rerun]: rerun lost the quarantine record" >&2
  exit 1; }
cmp "$DIR/ref.degraded" "$DIR/victim.ndjson"
echo "OK[quarantine]: persistent shard failure degraded loudly (exit 4)," \
     "quarantine recorded and stable across rerun"

echo "OK: all chaos legs passed (seed $SEED)"
