#!/usr/bin/env bash
# The benchmark as a smoke run: all seven workloads for two seconds each
# (untraced, then traced), then every workload's `failed` count read back
# from the run's results.json. npbench itself exits nonzero only on a
# *wrong* reply; a refusal, a typed error or a timeout is a failed
# operation it reports and exits 0 on — so this script fails on any
# non-zero `failed`, and on a workload that attempted nothing. Host-time
# numbers from a shared runner are not compared against anything here.
#
#   scripts/npbench_smoke.sh            # seed 1
#   scripts/npbench_smoke.sh 7          # another seed
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo run --release --offline --quiet --manifest-path npbench/Cargo.toml -- \
  --all --seed "$seed" --seconds 2 --out "$out" >/dev/null

# results.json: workloads.<name>.count.{attempted,failed}.value. Keys are
# tracked by brace depth, so the file's indentation does not matter.
awk '
  function key(line) { sub(/^[ \t]*"/, "", line); sub(/".*/, "", line); return line }
  {
    line = $0
    opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
    if ($0 ~ /^[ \t]*"[^"]+":[ \t]*\{/) {
      k = key($0)
      if (k == "workloads") wdepth = depth + 1
      else if (wdepth && depth == wdepth) { workload = k; names[++n] = k }
      else if (wdepth && depth == wdepth + 2 && (k == "attempted" || k == "failed")) want = k
    } else if (want != "" && $0 ~ /"value":/) {
      v = $0; sub(/.*:/, "", v); gsub(/[^0-9.eE+-]/, "", v); count[workload, want] = v + 0; want = ""
    }
    depth += opens - closes
    if (wdepth && depth < wdepth) wdepth = 0
  }
  END {
    bad = (n == 0)
    if (n == 0) print "npbench smoke: no workloads in results.json"
    for (i = 1; i <= n; i++) {
      w = names[i]; a = count[w, "attempted"]; f = count[w, "failed"]
      verdict = (f != 0 || a == 0) ? "FAIL" : "ok"
      printf "%-22s %8d attempted %6d failed  %s\n", w, a, f, verdict
      if (verdict == "FAIL") bad = 1
    }
    exit bad
  }
' "$out/results.json"
