#!/usr/bin/env bash
# serve_overload.sh — graceful-degradation smoke: run advisord with a
# small envelope, drive it at 2x its closed-loop capacity for ~20s, and
# let loadgen -check assert the overload contract:
#
#   * zero 5xx / transport errors (overload sheds, it never crashes),
#   * every shed is a 429 carrying Retry-After,
#   * p95 latency of admitted requests stays bounded,
#   * background advising pauses under load,
#   * the degradation tier returns to normal after cooldown.
#
# The JSON summary lands in the file named by the first argument
# (default BENCH_serve.json).
#
# Usage: scripts/serve_overload.sh [out.json] [port] [duration]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_serve.json}"
port="${2:-18092}"
duration="${3:-20s}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"; kill "$pid" 2>/dev/null || true' EXIT

go build -o "$dir/advisord" ./cmd/advisord
go build -o "$dir/loadgen" ./cmd/loadgen

# Deliberately small envelope so 2x load reliably exercises the queue
# bounds and the tier ladder.
"$dir/advisord" -addr "127.0.0.1:$port" -state-dir "$dir/state" -preload 3 \
  -scale 0.05 -offline-episodes 2 -workers 2 -global-queue 8 -tenant-queue 4 \
  > "$dir/advisord.out" 2>&1 &
pid=$!
for _ in $(seq 1 300); do
  if curl -sf "http://127.0.0.1:$port/readyz" > /dev/null 2>&1; then break; fi
  sleep 0.1
done

"$dir/loadgen" -addr "http://127.0.0.1:$port" -tenants 3 -concurrency 2 \
  -overload 2 -duration "$duration" -repeat 50 -deadline-ms 2000 \
  -check -check-p95-ms 5000 -out "$out" \
  || { echo "FAIL: overload contract violated" >&2; cat "$dir/advisord.out" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "FAIL: advisord did not survive the overload run" >&2; exit 1; }
echo "overload smoke passed; summary in $out"
