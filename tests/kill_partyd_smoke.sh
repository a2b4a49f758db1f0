#!/usr/bin/env bash
# Kill-a-daemon smoke: three dash_partyd daemons form a mesh; party 2 is
# SIGKILLed while a job is in flight. Both kills wait for a file, never
# for a sleep: each killed job is streamed (SUBMIT's 'stream' token), and
# party 2 dies once its mid-job checkpoint is on disk. Required behavior:
#   * both SURVIVING DAEMONS STAY UP and fail ONLY the affected job,
#     with a transport status (Unavailable / DeadlineExceeded);
#   * a job submitted to the survivors DURING the outage is accepted and
#     waits (admission != execution);
#   * once party 2 restarts, the mesh re-forms on its own and the waiting
#     job completes with the simulator's exact checksum.
#
# A second round then repeats the kill on a fresh cohort: after the
# restart a fresh job on the same cohort must RESUME from the durable
# checkpoint (STATUS resumed_from > 0) and still reveal the simulator's
# exact checksum — crash + resume is bit-identical.
#
# Usage: kill_partyd_smoke.sh /path/to/dash_partyd /path/to/dash_jobctl.py
set -u

PARTYD="${1:?usage: kill_partyd_smoke.sh /path/to/dash_partyd /path/to/dash_jobctl.py}"
JOBCTL="${2:?usage: kill_partyd_smoke.sh /path/to/dash_partyd /path/to/dash_jobctl.py}"
WORKDIR="$(mktemp -d)"
trap 'kill -9 ${PIDS[@]:-} ${RESTART_PID:-} ${RESTART2_PID:-} 2>/dev/null; rm -rf "$WORKDIR"' EXIT
mkdir -p "$WORKDIR/ckpt"

read -r M0 M1 M2 C0 C1 C2 <<EOF
$(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(6)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(*(s.getsockname()[1] for s in socks))
for s in socks:
    s.close()
PY
)
EOF
CLUSTER="127.0.0.1:${M0},127.0.0.1:${M1},127.0.0.1:${M2}"
CPORTS="$C0,$C1,$C2"
CTL=(python3 "$JOBCTL")

start_daemon() {  # party control_port logfile
  # The checkpoint/stream flags only affect streamed jobs; the delay
  # stretches streamed panels so the kill lands mid-stream.
  "$PARTYD" --party "$1" --cluster "$CLUSTER" --control-port "$2" \
    --receive-timeout-ms 4000 --checkpoint-dir "$WORKDIR/ckpt" \
    --checkpoint-every 1 --stream-delay-ms 300 >"$WORKDIR/$3" 2>&1 &
}

PIDS=()
start_daemon 0 "$C0" err0; PIDS+=($!)
start_daemon 1 "$C1" err1; PIDS+=($!)
start_daemon 2 "$C2" err2; PIDS+=($!)

for i in 0 1 2; do
  for _ in $(seq 1 100); do
    grep -q "mesh up" "$WORKDIR/err$i" && break
    sleep 0.1
  done
  if ! grep -q "mesh up" "$WORKDIR/err$i"; then
    echo "FAIL: daemon $i never reported mesh up" >&2
    cat "$WORKDIR/err$i" >&2
    exit 1
  fi
done

fail=0

# Job 1: streamed, so --stream-delay-ms paces its 8 panels. Party 2's
# checkpoint exists only between its first panel and the job's end, so
# killing party 2 once the file appears provably lands mid-job.
"${CTL[@]}" --ports "$CPORTS" submit --job 1 --cohort big \
  --variants 512 --samples 2048 --covariates 4 --data-seed 5 --stream \
  >/dev/null || fail=1
for _ in $(seq 1 200); do
  [ -f "$WORKDIR/ckpt/big_p2.dck" ] && break
  sleep 0.05
done
if [ ! -f "$WORKDIR/ckpt/big_p2.dck" ]; then
  echo "FAIL: streamed job 1 wrote no checkpoint for party 2" >&2
  fail=1
fi
kill -9 "${PIDS[2]}"

# The survivors must FAIL job 1 (not hang, not die) within the receive
# timeout, naming a transport status.
for port in "$C0" "$C1"; do
  ok=0
  for _ in $(seq 1 100); do
    status="$("${CTL[@]}" --ports "$port" status --job 1 2>/dev/null)"
    case "$status" in
      *state=failed*Unavailable*|*state=failed*DeadlineExceeded*) ok=1; break ;;
      *state=done*) echo "FAIL: job 1 'done' on $port though party 2 died" >&2
                    fail=1; break ;;
    esac
    sleep 0.2
  done
  if [ "$ok" -ne 1 ] && [ "$fail" -eq 0 ]; then
    echo "FAIL: job 1 on $port did not fail with a transport status: $status" >&2
    fail=1
  fi
done

for i in 0 1; do
  if ! kill -0 "${PIDS[$i]}" 2>/dev/null; then
    echo "FAIL: surviving daemon $i exited after the kill" >&2
    fail=1
  fi
done

# Job 2 submitted DURING the outage: the survivors must accept it (it
# waits for the mesh), not reject or crash.
"${CTL[@]}" --ports "$C0,$C1" submit --job 2 --cohort small \
  --variants 48 --samples 64 >/dev/null || {
  echo "FAIL: survivors rejected a job during the outage" >&2; fail=1; }

# Restart party 2; its daemon and the survivors' monitors re-form the
# mesh without any operator action.
start_daemon 2 "$C2" err2_restart; RESTART_PID=$!
for _ in $(seq 1 200); do
  grep -q "mesh up" "$WORKDIR/err2_restart" && break
  sleep 0.1
done
if ! grep -q "mesh up" "$WORKDIR/err2_restart"; then
  echo "FAIL: restarted daemon never re-formed the mesh" >&2
  cat "$WORKDIR/err2_restart" >&2
  fail=1
fi
"${CTL[@]}" --ports "$C2" submit --job 2 --cohort small \
  --variants 48 --samples 64 >/dev/null || fail=1

# The waiting job now completes everywhere, bit-identical to the
# simulator.
if ! "${CTL[@]}" --ports "$CPORTS" --timeout 60 wait --job 2 >"$WORKDIR/wait2"; then
  echo "FAIL: job 2 did not complete identically after the restart" >&2
  cat "$WORKDIR/wait2" >&2
  fail=1
fi
WANT="$("$PARTYD" --simulate-job "2 small 48 64 3 7 masked 0 $((0xDA5B))" \
  --parties 3 | awk '{print $4}')"
GOT="$("${CTL[@]}" --ports "$C0" result --job 2 | awk '{print $3}')"
if [ -z "$WANT" ] || [ "$WANT" != "$GOT" ]; then
  echo "FAIL: job 2 checksum $GOT != simulator $WANT" >&2
  fail=1
fi

if ! grep -q "mesh restored" "$WORKDIR/err0"; then
  echo "FAIL: survivor 0 never logged the remesh" >&2
  fail=1
fi

# ---------------------------------------------------------------------
# Round 2: kill the daemon mid-STREAMED-job, restart, assert the next
# job on the cohort RESUMES from the durable checkpoint.
#
# 768 samples/party = 3 panels at 300 ms each: slow enough to kill
# party 2 after its first checkpoint is on disk, fast enough for CI.

if [ "$fail" -eq 0 ]; then
  "${CTL[@]}" --ports "$CPORTS" submit --job 3 --cohort strm \
    --variants 64 --samples 768 --data-seed 9 --stream >/dev/null || fail=1

  for _ in $(seq 1 200); do
    [ -f "$WORKDIR/ckpt/strm_p2.dck" ] && break
    sleep 0.05
  done
  if [ ! -f "$WORKDIR/ckpt/strm_p2.dck" ]; then
    echo "FAIL: streamed job 3 wrote no checkpoint for party 2" >&2
    fail=1
  fi
  kill -9 "$RESTART_PID"

  # Survivors fail job 3 but must KEEP their checkpoints for the resume.
  for port in "$C0" "$C1"; do
    for _ in $(seq 1 100); do
      status="$("${CTL[@]}" --ports "$port" status --job 3 2>/dev/null)"
      case "$status" in *state=failed*|*state=done*) break ;; esac
      sleep 0.2
    done
  done
  for p in 0 1; do
    if [ ! -f "$WORKDIR/ckpt/strm_p$p.dck" ]; then
      echo "FAIL: survivor $p dropped its checkpoint on the failed job" >&2
      fail=1
    fi
  done

  # Queue the follow-up job at the survivors DURING the outage, restart
  # party 2, submit there too — the proven remesh pattern from job 2.
  "${CTL[@]}" --ports "$C0,$C1" submit --job 4 --cohort strm \
    --variants 64 --samples 768 --data-seed 9 --stream >/dev/null || fail=1
  start_daemon 2 "$C2" err2_restart2; RESTART2_PID=$!
  for _ in $(seq 1 200); do
    grep -q "mesh up" "$WORKDIR/err2_restart2" && break
    sleep 0.1
  done
  "${CTL[@]}" --ports "$C2" submit --job 4 --cohort strm \
    --variants 64 --samples 768 --data-seed 9 --stream >/dev/null || fail=1

  if ! "${CTL[@]}" --ports "$CPORTS" --timeout 90 wait --job 4 \
      >"$WORKDIR/wait4"; then
    echo "FAIL: streamed job 4 did not complete identically after the" \
         "restart" >&2
    cat "$WORKDIR/wait4" >&2
    fail=1
  fi

  # Every party resumed (survivors from their kept checkpoints, party 2
  # from the one that outlived the SIGKILL)...
  for port in "$C0" "$C1" "$C2"; do
    status="$("${CTL[@]}" --ports "$port" status --job 4 2>/dev/null)"
    resumed="$(printf '%s\n' "$status" |
      sed -n 's/.* resumed_from=\([0-9]*\).*/\1/p')"
    if [ -z "$resumed" ] || [ "$resumed" -le 0 ]; then
      echo "FAIL: port $port did not resume job 4 from a checkpoint:" \
           "$status" >&2
      fail=1
    fi
  done

  # ...and the resumed result is bit-identical to the simulator.
  WANT_S="$("$PARTYD" --simulate-job "4 strm 64 768 3 9 masked 0" \
    --parties 3 | awk '{print $4}')"
  GOT_S="$("${CTL[@]}" --ports "$C0" result --job 4 | awk '{print $3}')"
  if [ -z "$WANT_S" ] || [ "$WANT_S" != "$GOT_S" ]; then
    echo "FAIL: streamed job 4 checksum $GOT_S != simulator $WANT_S" >&2
    fail=1
  fi

  # Success removes the checkpoints (not the packed studies).
  for p in 0 1 2; do
    if [ -f "$WORKDIR/ckpt/strm_p$p.dck" ]; then
      echo "FAIL: party $p left its checkpoint behind after job 4" >&2
      fail=1
    fi
  done
fi

"${CTL[@]}" --ports "$CPORTS" shutdown >/dev/null 2>&1

if [ "$fail" -ne 0 ]; then
  for f in err0 err1 err2 err2_restart err2_restart2; do
    echo "--- $f ---" >&2
    cat "$WORKDIR/$f" >&2 2>/dev/null
  done
else
  echo "PASS: survivors failed only the in-flight job; the queued job"
  echo "      completed after the restart with the simulator's checksum;"
  echo "      the streamed job resumed from checkpoints after a second"
  echo "      kill, still bit-identical to the simulator"
fi
exit "$fail"
