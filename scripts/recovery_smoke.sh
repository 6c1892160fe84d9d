#!/usr/bin/env sh
# Durability smoke test: SIGKILL a durable queccctl run mid-flight, recover
# from its command log, resume the remainder of the deterministic stream,
# and require the final state hash to equal an uninterrupted run's.
#
# Runs with --pipeline-depth 2 so the kill lands while two batches are in
# flight (batch records of in-flight batches interleave with commit
# records — exactly the log shape recovery must handle). Because --recover
# resumes *durably in place*, a second --recover of the same log must be a
# pure replay of the full stream landing on the same hash — that asserts
# the resumed run really kept appending.
#
# Five legs: YCSB on the hash index (the original smoke), the full
# scan-based 5-txn TPC-C mix on the ordered index (--tpcc-full), which
# additionally exercises v3 checkpoints of ordered arenas and scan-fragment
# (key_hi) plan-log round-trips, the same TPC-C mix under conservative
# execution, YCSB on a two-node dist-quecc cluster, whose durability is
# the same stage driver's, and bank. TPC-C's doomed NewOrders are aborted
# while planning, so the two TPC-C legs replay plan-time aborts under both
# execution models. Bank's overdraft aborts read mutable rows, so they are
# decided at run time: the bank leg is the one that runs speculative
# recovery (cascades, rollback, re-execution, and escalation on most
# batches) both live and during replay.
#
# Usage: scripts/recovery_smoke.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD=${1:-build}
CTL=$BUILD/examples/queccctl
[ -x "$CTL" ] || { echo "recovery smoke: $CTL not built"; exit 1; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

run_leg() {
    NAME=$1
    ARGS=$2
    LOG="$TMP/log-$NAME"

    # Reference: the uninterrupted (in-memory) run of the same stream.
    REF=$($CTL $ARGS | sed -n 's/^state hash: //p')
    [ -n "$REF" ] || { echo "recovery smoke [$NAME]: no reference hash"; exit 1; }

    # Durable run, killed hard mid-flight (whatever batches managed to
    # fsync a commit record survive; an in-flight write may leave a torn
    # tail).
    $CTL $ARGS --durable --log-dir "$LOG" --checkpoint-every 8 \
        > "$TMP/run.out" 2>&1 &
    PID=$!
    sleep 0.4
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true

    # Recover + resume must land on the reference hash, wherever the kill
    # hit.
    GOT=$($CTL $ARGS --recover --log-dir "$LOG" | tee "$TMP/recover.out" \
          | sed -n 's/^state hash: //p')
    if [ "$REF" != "$GOT" ]; then
        echo "recovery smoke [$NAME]: hash mismatch (ref=$REF got=$GOT)"
        cat "$TMP/recover.out"
        exit 1
    fi

    # The resumed run continued the log in place: recovering it again must
    # be a full replay (no resumed txns left) that lands on the same hash.
    AGAIN=$($CTL $ARGS --recover --log-dir "$LOG" \
            | tee "$TMP/recover2.out" | sed -n 's/^state hash: //p')
    if [ "$REF" != "$AGAIN" ]; then
        echo "recovery smoke [$NAME]: resumed-log replay mismatch" \
             "(ref=$REF got=$AGAIN)"
        cat "$TMP/recover2.out"
        exit 1
    fi
    if grep -q '^resumed durably' "$TMP/recover2.out"; then
        echo "recovery smoke [$NAME]: second recovery still had txns to resume"
        cat "$TMP/recover2.out"
        exit 1
    fi
    echo "recovery smoke [$NAME]: ok (state hash $REF)"
}

# --partitions 4 (explicit) so the runs exercise sharded storage: four
# per-partition arenas, per-shard checkpoints, and shard-aware restore.
run_leg ycsb "--workload ycsb --batches 48 --batch-size 1024 --seed 7 \
--pipeline-depth 2 --partitions 4"

run_leg tpcc-full "--workload tpcc --tpcc-full --index ordered --batches 24 \
--batch-size 1024 --seed 7 --pipeline-depth 2 --partitions 4"

run_leg tpcc-full-cons "--workload tpcc --tpcc-full --index ordered \
--exec cons --batches 24 --batch-size 1024 --seed 7 --pipeline-depth 2 \
--partitions 4"

run_leg dist-quecc "--engine dist-quecc --nodes 2 --workload ycsb \
--mp-ratio 0.2 --batches 48 --batch-size 1024 --seed 7 --pipeline-depth 2 \
--partitions 4"

run_leg bank "--workload bank --batches 400 --batch-size 1024 --seed 7 \
--pipeline-depth 2 --partitions 4"
