#!/usr/bin/env bash
# Multi-process distributed e2e over loopback (docs/distributed.md).
#
#   tools/dist_e2e.sh [BUILD_DIR] [WORK_DIR]
#
# Four legs, all against one single-process reference state:
#   1. reference  -- sharded 2-way run in one process, canonical dump
#   2. healthy    -- real agg process + 2 real leaf processes; the merged
#                    dump must be BYTE-identical to the reference, and
#                    remote line-protocol queries must answer (a horizon
#                    CLUSTER with its k centroids)
#   3. crash      -- leaf 0's first incarnation stops after 12000 of the
#                    20000 stream rows (a deterministic crash point: the
#                    aggregator is left holding a mid-stream delta and a
#                    checkpoint is on disk); its restart recovers from
#                    the checkpoint, replays the remainder, and the
#                    final merged dump must again be byte-identical
#   4. failover   -- primary + standby aggregator; both leaves run with
#                    seeded --net-chaos mangling their wire and ship
#                    warm copies to the standby; leaf 0's first
#                    incarnation stops at leg 3's crash row, the primary is
#                    SIGKILLed while it holds that mid-stream delta, then
#                    the recovered leaf 0 and leaf 1 must each promote
#                    the standby, and the standby's final dump must
#                    STILL be byte-identical
#
# Exits 0 and prints DIST_E2E_PASS only if every leg holds. Safe under
# sanitizers (generous timeouts, ephemeral ports).
set -u

BUILD_DIR=${1:-build}
WORK_DIR=${2:-$(mktemp -d /tmp/dist_e2e.XXXXXX)}
CLI=$BUILD_DIR/tools/umicro_cli
POINTS=20000
DIMS=20
NMICRO=100
CRASH_ROWS=12000

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

fail() {
  echo "DIST_E2E_FAIL: $*" >&2
  for log in "$WORK_DIR"/*.log; do
    echo "---- $log ----" >&2
    tail -20 "$log" >&2 || true
  done
  exit 1
}

[ -x "$CLI" ] || fail "umicro_cli not found at $CLI"
mkdir -p "$WORK_DIR"

# Waits for "aggregator listening on HOST:PORT" and echoes the port.
scrape_port() {
  local log=$1
  for _ in $(seq 1 100); do
    local port
    port=$(sed -n 's/^aggregator listening on [^:]*:\([0-9]*\)$/\1/p' \
               "$log" 2>/dev/null | head -1)
    if [ -n "$port" ]; then echo "$port"; return 0; fi
    sleep 0.1
  done
  return 1
}

wait_for_file() {
  local file=$1 tries=$2
  for _ in $(seq 1 "$tries"); do
    [ -s "$file" ] && return 0
    sleep 0.5
  done
  return 1
}

# Echoes the aggregator's PID. It runs in a command substitution, so the
# caller adds that PID to PIDS for the exit trap.
start_agg() {  # start_agg STATE LOG [extra flags...]
  local state=$1 log=$2
  shift 2
  "$CLI" --role=agg --listen=127.0.0.1:0 --dims=$DIMS --nmicro=$NMICRO \
      --expect-points=$POINTS --expect-timeout=240 \
      --state-out="$state" --linger-seconds=120 "$@" >"$log" 2>&1 &
  echo $!
}

# Polls a background job with a deadline; SIGKILLs it on expiry so a
# wedged process fails the leg instead of hanging CI.
wait_with_watchdog() {  # wait_with_watchdog PID SECONDS
  local pid=$1 secs=$2
  for _ in $(seq 1 $((secs * 2))); do
    kill -0 "$pid" 2>/dev/null || { wait "$pid"; return $?; }
    sleep 0.5
  done
  kill -9 "$pid" 2>/dev/null
  return 124
}

# Echoes the aggregator's applied-delta count from its HEALTH answer.
scrape_health_deltas() {  # scrape_health_deltas PORT
  printf 'HEALTH\nQUIT\n' | \
      "$CLI" --role=query --connect=127.0.0.1:"$1" 2>/dev/null | \
      sed -n 's/^OK HEALTH .*deltas=\([0-9]*\)$/\1/p'
}

run_leaf() {  # run_leaf PORT OFFSET LOG [extra flags...]
  local port=$1 offset=$2 log=$3
  shift 3
  "$CLI" --role=leaf --leaf-id="$offset" --stride=2 --offset="$offset" \
      --connect=127.0.0.1:"$port" --synthetic=syndrift --points=$POINTS \
      --nmicro=$NMICRO --snapshot-every=0 "$@" >"$log" 2>&1
}

# ---- Leg 1: single-process reference --------------------------------
echo "[1/4] single-process sharded reference"
"$CLI" --synthetic=syndrift --points=$POINTS --threads=2 --batch=1 \
    --merge-every=0 --snapshot-every=0 --nmicro=$NMICRO \
    --state-out="$WORK_DIR/ref.state" >"$WORK_DIR/ref.log" 2>&1 \
  || fail "reference run failed"
[ -s "$WORK_DIR/ref.state" ] || fail "reference state missing"

# ---- Leg 2: healthy 2-leaf topology + remote queries ----------------
echo "[2/4] healthy topology: 2 leaf processes + 1 aggregator"
AGG_PID=$(start_agg "$WORK_DIR/agg.state" "$WORK_DIR/agg.log")
PIDS+=($AGG_PID)
PORT=$(scrape_port "$WORK_DIR/agg.log") || fail "no aggregator port"
run_leaf "$PORT" 0 "$WORK_DIR/leaf0.log" &
L0=$!; PIDS+=($L0)
run_leaf "$PORT" 1 "$WORK_DIR/leaf1.log" &
L1=$!; PIDS+=($L1)
wait $L0 || fail "leaf 0 exited nonzero"
wait $L1 || fail "leaf 1 exited nonzero"
wait_for_file "$WORK_DIR/agg.state" 240 || fail "aggregator never merged"
printf 'STATS\nCLUSTER 50000 3\nQUIT\n' | \
    "$CLI" --role=query --connect=127.0.0.1:"$PORT" \
    >"$WORK_DIR/query.out" 2>&1 || fail "query client failed"
grep -q '^OK STATS' "$WORK_DIR/query.out" || fail "no STATS answer"
grep -q '^OK CLUSTER .* centroids=3$' "$WORK_DIR/query.out" \
  || fail "CLUSTER over the retained history answered empty"
grep -q '^OK BYE' "$WORK_DIR/query.out" || fail "no BYE answer"
kill "$AGG_PID" 2>/dev/null
cmp -s "$WORK_DIR/ref.state" "$WORK_DIR/agg.state" \
  || fail "healthy topology state differs from reference"
echo "      merged state byte-identical; remote queries answered"

# ---- Leg 3: leaf crash at a checkpoint, recovery, replay ------------
echo "[3/4] crash topology: leaf 0 dies at row $CRASH_ROWS, recovers"
AGG2_PID=$(start_agg "$WORK_DIR/agg2.state" "$WORK_DIR/agg2.log")
PIDS+=($AGG2_PID)
PORT2=$(scrape_port "$WORK_DIR/agg2.log") || fail "no aggregator port (2)"
run_leaf "$PORT2" 1 "$WORK_DIR/leaf1b.log" &
L1B=$!; PIDS+=($L1B)
run_leaf "$PORT2" 0 "$WORK_DIR/leaf0-crash.log" \
    --max-rows=$CRASH_ROWS \
    --checkpoint-dir="$WORK_DIR/ckpt0" --checkpoint-every=2000 \
  || fail "leaf 0 (pre-crash) exited nonzero"
grep -q 'checkpoint' "$WORK_DIR/leaf0-crash.log" || true
run_leaf "$PORT2" 0 "$WORK_DIR/leaf0-recover.log" \
    --recover --checkpoint-dir="$WORK_DIR/ckpt0" \
  || fail "leaf 0 (recovered) exited nonzero"
grep -q 'recovered from' "$WORK_DIR/leaf0-recover.log" \
  || fail "leaf 0 restart did not recover a checkpoint"
wait $L1B || fail "leaf 1 exited nonzero (crash leg)"
wait_for_file "$WORK_DIR/agg2.state" 240 || fail "aggregator (2) never merged"
kill "$AGG2_PID" 2>/dev/null
cmp -s "$WORK_DIR/ref.state" "$WORK_DIR/agg2.state" \
  || fail "post-recovery state differs from reference"
echo "      recovered topology byte-identical to reference"

# ---- Leg 4: primary SIGKILL under chaos, standby promotion ----------
echo "[4/4] failover: primary killed under --net-chaos once leaf 0 stops" \
     "at row $CRASH_ROWS, standby takes over"
CHAOS='drop=0.02,delay=0.05,delay-ms=5,truncate=0.02,bitflip=0.02'
STANDBY_PID=$(start_agg "$WORK_DIR/standby.state" "$WORK_DIR/standby.log" \
    --start-as-standby)
PIDS+=($STANDBY_PID)
SPORT=$(scrape_port "$WORK_DIR/standby.log") || fail "no standby port"
grep -q '^aggregator role: standby$' "$WORK_DIR/standby.log" \
  || fail "standby did not announce the standby role"
PRIMARY_PID=$(start_agg "$WORK_DIR/primary.state" "$WORK_DIR/primary.log")
PIDS+=($PRIMARY_PID)
PPORT=$(scrape_port "$WORK_DIR/primary.log") || fail "no primary port"
HA_FLAGS=(--standby=127.0.0.1:"$SPORT" --delta-every=2000
          --net-chaos="$CHAOS")
CKPT0=(--checkpoint-dir="$WORK_DIR/ckpt0-ha" --checkpoint-every=2000)
# Leaf 0 stops at a deterministic point with the primary holding its
# mid-stream deltas (and the standby warm copies of them); only then is
# the primary killed the hard way, so no leaf can finish against it.
run_leaf "$PPORT" 0 "$WORK_DIR/leaf0-ha-crash.log" "${HA_FLAGS[@]}" \
    "${CKPT0[@]}" --net-chaos-seed=11 --max-rows=$CRASH_ROWS \
  || fail "leaf 0 (pre-kill) exited nonzero"
PRIMARY_DELTAS=$(scrape_health_deltas "$PPORT")
[ "${PRIMARY_DELTAS:-0}" -ge 3 ] 2>/dev/null \
  || fail "primary applied ${PRIMARY_DELTAS:-no} deltas before the kill"
kill -9 "$PRIMARY_PID" 2>/dev/null
# Both leaves now ship to a dead primary and must fail over.
run_leaf "$PPORT" 0 "$WORK_DIR/leaf0-ha.log" "${HA_FLAGS[@]}" \
    "${CKPT0[@]}" --net-chaos-seed=11 --recover &
L0H=$!; PIDS+=($L0H)
run_leaf "$PPORT" 1 "$WORK_DIR/leaf1-ha.log" "${HA_FLAGS[@]}" \
    --net-chaos-seed=22 &
L1H=$!; PIDS+=($L1H)
wait_with_watchdog $L0H 240 || fail "leaf 0 (failover) exited nonzero"
wait_with_watchdog $L1H 240 || fail "leaf 1 (failover) exited nonzero"
grep -q 'recovered from' "$WORK_DIR/leaf0-ha.log" \
  || fail "leaf 0 restart did not recover a checkpoint"
for log in leaf0-ha leaf1-ha; do
  grep -q ' [1-9][0-9]* promotions$' "$WORK_DIR/$log.log" \
    || fail "$log never failed over to the standby"
done
wait_for_file "$WORK_DIR/standby.state" 240 \
  || fail "standby never completed the merge"
printf 'ROLE\nQUIT\n' | \
    "$CLI" --role=query --connect=127.0.0.1:"$SPORT" \
    >"$WORK_DIR/role.out" 2>&1 || fail "ROLE query failed"
grep -q '^OK ROLE primary$' "$WORK_DIR/role.out" \
  || fail "standby did not promote itself to primary"
kill "$STANDBY_PID" 2>/dev/null
cmp -s "$WORK_DIR/ref.state" "$WORK_DIR/standby.state" \
  || fail "post-failover standby state differs from reference"
echo "      standby promoted; its state byte-identical to reference"

echo "DIST_E2E_PASS"
