#!/usr/bin/env bash
# serve_smoke.sh — advisord graceful-shutdown smoke: start the service
# on a fresh state directory with preloaded tenants, drive a little
# traffic, SIGTERM it mid-flight, and assert the drain-then-stop contract:
#
#   * the process exits 0,
#   * it reports drained=true,
#   * every tenant wrote a final checkpoint generation at shutdown,
#   * requests sent after the drain began were answered (503), not hung.
#
# Then restart advisord on the same state directory and assert the round
# trip: every tenant is restored from the generation its shutdown wrote,
# and the second instance shuts down cleanly too.
#
# Usage: scripts/serve_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18091}"
dir="$(mktemp -d)"
# pid/lg start empty so the trap is safe under `set -u` even when a build
# failure exits before either process is spawned; the trap must also reap
# the background loadgen, not just advisord.
pid=""
lg=""
trap 'kill "$pid" "$lg" 2>/dev/null || true; rm -rf "$dir"' EXIT

go build -o "$dir/advisord" ./cmd/advisord
go build -o "$dir/loadgen" ./cmd/loadgen

start_advisord() { # $1: output file
  "$dir/advisord" -addr "127.0.0.1:$port" -state-dir "$dir/state" -preload 3 \
    -scale 0.05 -offline-episodes 2 -workers 2 > "$1" 2>&1 &
  pid=$!
  # Wait for readiness: recovery and preload done, request paths open.
  for _ in $(seq 1 300); do
    if curl -sf "http://127.0.0.1:$port/readyz" > /dev/null 2>&1; then return; fi
    sleep 0.1
  done
  echo "FAIL: advisord never became ready" >&2; cat "$1" >&2; exit 1
}

start_advisord "$dir/advisord.out"

# Put real traffic in flight so the drain has something to drain.
"$dir/loadgen" -addr "http://127.0.0.1:$port" -tenants 3 -concurrency 2 \
  -duration 3s -repeat 50 > "$dir/loadgen.out" 2>&1 &
lg=$!
sleep 1.5

kill -TERM "$pid"
# A request racing the drain must be answered promptly — served (it beat
# the gate), refused (503/429), or connection-refused — but never hung.
rc=0
code="$(curl -s -o /dev/null -w '%{http_code}' --max-time 5 \
  -X POST "http://127.0.0.1:$port/tenants/t1/batch" -d '{"repeat":1}')" || rc=$?

if ! wait "$pid"; then
  echo "FAIL: advisord exited non-zero after SIGTERM" >&2
  cat "$dir/advisord.out" >&2
  exit 1
fi
wait "$lg" || true

grep -q "drained=true" "$dir/advisord.out" \
  || { echo "FAIL: no drained=true in output" >&2; cat "$dir/advisord.out" >&2; exit 1; }
declare -A gen
for t in t1 t2 t3; do
  path="$(grep -o "checkpoint .*/ckpt/$t/gen-[0-9]*\.ckpt" "$dir/advisord.out" | cut -d' ' -f2)" \
    || { echo "FAIL: no shutdown generation line for $t" >&2; cat "$dir/advisord.out" >&2; exit 1; }
  [ -s "$path" ] \
    || { echo "FAIL: missing/empty shutdown generation $path for $t" >&2; exit 1; }
  gen[$t]="$(basename "$path" .ckpt | sed 's/^gen-0*//')"
  gen[$t]="${gen[$t]:-0}"
done
if [ "$rc" -eq 28 ]; then
  echo "FAIL: in-drain request hung past 5s (HTTP $code)" >&2
  exit 1
fi
grep -q "shutdown complete" "$dir/advisord.out" \
  || { echo "FAIL: shutdown did not complete" >&2; cat "$dir/advisord.out" >&2; exit 1; }

# Round trip: a restart on the same state directory restores every tenant
# from the generation its shutdown wrote.
start_advisord "$dir/advisord2.out"
for t in t1 t2 t3; do
  grep -q "recovery: tenant $t restored generation ${gen[$t]} " "$dir/advisord2.out" \
    || { echo "FAIL: $t not restored from its shutdown generation ${gen[$t]}" >&2; cat "$dir/advisord2.out" >&2; exit 1; }
done
kill -TERM "$pid"
if ! wait "$pid"; then
  echo "FAIL: restarted advisord exited non-zero after SIGTERM" >&2
  cat "$dir/advisord2.out" >&2
  exit 1
fi

echo "serve smoke passed: SIGTERM -> drain -> per-tenant generations -> exit 0 -> restart restores each"
