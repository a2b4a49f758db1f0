#!/usr/bin/env bash
# File-based CLI smoke: dash_simulate_cli writes a 3-party study as flat
# CSVs and dash_scan_cli scans it. Required behavior:
#   * --mode masked and --mode additive write byte-identical --out files
#     (both secure modes open the same ring total);
#   * the printed top hit is one of the causal variants in truth.csv;
#   * the removed mode and option (--mode shamir, --projection beaver)
#     exit 2.
#
# Usage: scan_cli_smoke.sh /path/to/dash_simulate_cli /path/to/dash_scan_cli
set -u

SIM="${1:?usage: scan_cli_smoke.sh /path/to/dash_simulate_cli /path/to/dash_scan_cli}"
SCAN="${2:?usage: scan_cli_smoke.sh /path/to/dash_simulate_cli /path/to/dash_scan_cli}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

if ! "$SIM" --out-dir "$WORKDIR" --parties 300,400,350 --variants 500 \
    --causal 3 --effect 0.3 --seed 7 >"$WORKDIR/sim.log" 2>&1; then
  echo "FAIL: dash_simulate_cli" >&2
  cat "$WORKDIR/sim.log" >&2
  exit 1
fi
PARTIES=()
for p in 0 1 2; do
  PARTIES+=(--party "$WORKDIR/x$p.csv:$WORKDIR/y$p.csv:$WORKDIR/c$p.csv")
done

fail=0
for mode in masked additive; do
  if ! "$SCAN" "${PARTIES[@]}" --mode "$mode" --out "$WORKDIR/$mode.csv" \
      >"$WORKDIR/$mode.log" 2>&1; then
    echo "FAIL: dash_scan_cli --mode $mode" >&2
    cat "$WORKDIR/$mode.log" >&2
    fail=1
  fi
done
if ! cmp -s "$WORKDIR/masked.csv" "$WORKDIR/additive.csv"; then
  echo "FAIL: the masked and additive result CSVs differ" >&2
  fail=1
fi

TOP="$(sed -n 's/^top hit: variant \([0-9]*\) .*/\1/p' "$WORKDIR/masked.log")"
if [ -z "$TOP" ] ||
    ! tail -n +2 "$WORKDIR/truth.csv" | cut -d, -f1 | grep -qx "$TOP"; then
  echo "FAIL: top hit '$TOP' is not a causal variant of truth.csv" >&2
  fail=1
fi

for flags in "--mode shamir" "--projection beaver"; do
  # $flags is two words on purpose.
  # shellcheck disable=SC2086
  "$SCAN" "${PARTIES[@]}" $flags >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: dash_scan_cli $flags exited $rc, want 2" >&2
    fail=1
  fi
done

[ "$fail" -eq 0 ] && echo "scan_cli_smoke: OK (top hit variant $TOP)"
exit "$fail"
