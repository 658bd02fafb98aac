#!/usr/bin/env bash
# Full verification: format, lints, the knob census (scripts/knobs.sh),
# intra-doc links, tests (incl. the heavy full-size ones), examples,
# every evaluation rendering, the benchmark's smoke run and own tests and
# the ten soak gates (scripts/soaks.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== preflight (offline dependency resolution) =="
# Every dependency is a path crate (see vendor/README.md); resolution must
# never touch a registry. If this fails, a registry dependency crept back in
# and the default registry (see ~/.cargo/config.toml) is unreachable from
# this environment — vendor the crate under vendor/ instead.
if ! cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
  echo "error: dependency resolution needs network access (registry unreachable)." >&2
  echo "       All external crates must be vendored as path dependencies under vendor/ —" >&2
  echo "       see vendor/README.md for the pattern." >&2
  exit 1
fi

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== knob census (no config field or builder that nothing sets) =="
scripts/knobs.sh

echo "== doc links (a moved item must not leave a dangling intra-doc link) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --offline --no-deps -p npcgra-serve -p npcgra-net -p npcgra-sim

echo "== tests =="
cargo test --workspace

echo "== serving integration tests =="
cargo test -p npcgra --test serving

echo "== heavy tests (full-size Table 5 layers) =="
cargo test --workspace --release -- --ignored

echo "== examples =="
for ex in quickstart schedule_viewer fir_filter; do
  cargo run --release --example "$ex" >/dev/null
done
cargo run --release --example mobilenet >/dev/null
cargo run --release --example alexnet >/dev/null

echo "== evaluation (every paper table, figure, study and ablation) =="
cargo run --release -q -p npcgra-eval -- --all >/dev/null

echo "== npbench smoke run (all seven workloads; any failed operation fails it) =="
scripts/npbench_smoke.sh

echo "== npbench's own tests =="
cargo test --release --offline --manifest-path npbench/Cargo.toml

scripts/soaks.sh

echo "ALL CHECKS PASSED"
