#!/usr/bin/env bash
# The ten soak gates of the serving stack — the one list of them. check.sh
# and CI both call this script; a gate is added, changed or retired here
# and nowhere else. Each command exits nonzero unless its invariants hold;
# chaos-bench's module doc (crates/cli/src/cmd_chaos_bench.rs) says what
# each mode asserts.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== chaos soak (fault injection + worker panic must be survived) =="
cargo run --release -q -p npcgra-cli -- chaos-bench \
  --machine 4x4 --workers 4 --clients 8 --seconds 10 \
  --fault-rate 1e-4 --panic-worker 0 >/dev/null

echo "== detection soak (silent corruption must be caught and healed) =="
cargo run --release -q -p npcgra-cli -- chaos-bench \
  --machine 4x4 --workers 4 --clients 8 --seconds 8 \
  --fault-rate 5e-4 --assert-detection >/dev/null

echo "== fast-tier detection soak (ABFT must catch corruption on the fast tier too) =="
cargo run --release -q -p npcgra-cli -- chaos-bench \
  --machine 4x4 --workers 4 --clients 8 --seconds 8 \
  --fault-rate 5e-4 --tier fast --assert-detection >/dev/null

echo "== gray soak (wedges/stalls/slowdowns must be preempted and recovered) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --gray \
  --workers 4 --clients 6 --seconds 4 --assert-liveness >/dev/null

echo "== gray control (armed watchdog must never preempt a healthy fleet) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --gray \
  --gray-rate 0 --workers 4 --clients 6 --seconds 2 --assert-liveness >/dev/null

echo "== overload soak (2x capacity; admitted Interactive must hold its SLO) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --overload \
  --machine 4x4 --workers 4 --clients 8 --seconds 4 --assert-slo >/dev/null

echo "== pipeline soak (stage kill/wedge/corruption must heal from checkpoints, bit-exact) =="
# Zero-overload control for the combined gate below: no deadlines, no
# brownout, no watchdog — healing alone must carry the soak.
cargo run --release -q -p npcgra-cli -- chaos-bench --pipeline \
  --stages 4 --spares 1 --checkpoint-every 1 --requests 24 --assert-liveness >/dev/null

echo "== pipeline overload soak (2x capacity + stage wedge/kill; SLO, watchdog and brownout must hold) =="
cargo run --release -q -p npcgra-cli -- chaos-bench --pipeline --overload \
  --assert-slo >/dev/null

echo "== net soak (2x wire capacity over 500+ connections + slow-loris/malformed/disconnect attackers) =="
# The soak's built-in phase 0 is the zero-chaos control: the same inputs
# through the socket front-end and through in-process submit must produce
# bit-identical tensors before any attacker population comes up.
# --slo-ms 400: wire p99 sits near 20ms, but the timing calibration runs
# on the shared CI box — 400ms absorbs noisy-neighbor slowdowns without
# weakening the no-lost/no-wrong/every-attacker-caught gates.
cargo run --release -q -p npcgra-cli -- chaos-bench --net \
  --machine 4x4 --workers 4 --seconds 4 --slo-ms 400 --assert-slo >/dev/null

echo "== crash soak (journaled core hard-killed; keys must survive exactly-once) =="
# The net soak above stays the no-journal control for the wire path; this
# gate hard-kills the journaled core three times under keyed load and
# fails unless nothing admitted is lost, nothing executes twice, every
# reply is bit-exact, and the journal-off control phase shows the journal
# is inert when disabled.
cargo run --release -q -p npcgra-cli -- chaos-bench --crash \
  --machine 4x4 --workers 4 --assert-durability >/dev/null

echo "ALL TEN SOAK GATES PASSED"
