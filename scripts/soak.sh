#!/usr/bin/env bash
# soak.sh — run one regime of the seeded soak harness (internal/chaos):
#
#   faults       generated crash/rejoin, partition, straggler and transient
#                fault schedules over full online-advisor episodes (a node
#                is lost forever every third episode)
#   guarded      the same with the online guard armed
#   skew         an adversarial celebrity trace (Zipf keys plus a
#                flash-crowd spike) against hot-shard detection and
#                mitigation
#   skew-faulty  the same with a node crashed at the first detection,
#                rejoin and self-healing armed
#
# Every episode is replayed once for the bit-identical determinism check;
# DESIGN.md lists each regime's invariants. Exits non-zero on a usage
# error (an unknown regime) or any invariant violation.
#
# Usage: scripts/soak.sh <regime> [episodes] [seed]   (defaults: 3 episodes, seed 1)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: scripts/soak.sh faults|guarded|skew|skew-faulty [episodes] [seed]" >&2
  exit 2
fi

go run ./cmd/expdriver -soak "$1" -soak-episodes "${2:-3}" -seed "${3:-1}"
