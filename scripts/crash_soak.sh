#!/usr/bin/env bash
# crash_soak.sh — kill-9 crash-restart soak for advisord (DESIGN.md §10.4).
# Builds the real advisord + loadgen binaries and drives
# internal/chaos.RunCrashSoak: N seeded SIGKILL/restart cycles under live
# traffic. It asserts what only a real process shows:
#
#   * every preloaded tenant is back after every kill, with no recovery
#     error, within a bounded readiness gap,
#   * no tenant's restored generation goes backwards across restarts,
#   * after /readyz answers 200 traffic is 5xx-free, and the bridged
#     loadgen run absorbs the whole kill window with retries
#     (0 terminal 5xx / transport errors).
#
# It plants no faults. Torn writes, lost unsynced data and every other
# crash point of the state directory's writes are enumerated in-process:
#   go test -run TestCrashPoints -v ./internal/serve
#
# Usage: scripts/crash_soak.sh [cycles] [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

cycles="${1:-3}"
seed="${2:-1}"

CRASH_SOAK=1 go test -count=1 -timeout 20m -v ./internal/chaos \
  -run 'TestCrashRestartSoak' -crash.cycles="$cycles" -crash.seed="$seed"
