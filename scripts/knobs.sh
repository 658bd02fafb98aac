#!/usr/bin/env bash
# Knob census: every pub field of the five config structs, and every
# `pub fn with_*` on them, must be set somewhere outside the file that
# defines it — by a test, a soak, an example, npbench or a README recipe.
# Prints the table; exits 1 on a zero. It is a grep: a same-named field
# elsewhere can over-count, nothing under-counts, so a zero is always real.
set -euo pipefail
cd "$(dirname "$0")/.."
WHERE=(crates tests examples npbench README.md)

# members FILE STRUCT → "field|nested|fn NAME" per pub field / with_* builder.
members() {
  awk -v s="$2" '
    $0 ~ "^pub struct " s " \\{" { in_s = 1; next }
    $0 ~ "^impl " s " \\{"       { in_i = 1; next }
    /^}/                         { in_s = in_i = 0 }
    in_s && /^    pub [a-z_]+:/  { sub(":", "", $2); print ($3 ~ /Config,$/ ? "nested" : "field"), $2 }
    in_i && /^    pub fn with_/  { sub("\\(.*", "", $3); print "fn", $3 }
  ' "$1"
}

fail=0 values=0 builders=0
census() { # FILE STRUCT
  while read -r kind name; do
    case "$2.$name" in # fields a constructor sets count by that constructor
      ServeConfig.spec)   re='for_spec\(' ;;
      JournalConfig.path) re='JournalConfig::new\(' ;;
      NetConfig.tenants)  re='\.with_tenant\(' ;;
      *) [[ $kind == fn ]] && re="\.$name\(" || re="\.with_$name\(|\b$name:|\.$name(\.[a-z_]+)? *=[^=]" ;;
    esac
    n=$(grep -rE --include='*.rs' --include='*.md' --exclude-dir=target -- "$re" "${WHERE[@]}" | grep -vc "^$1:" || true)
    # The one exception: only journal.rs's own in-module test sets the dedup
    # window (to 0), and ROADMAP 8b has yet to decide that knob's contract.
    [[ $name == *dedup_capacity ]] && n="$n (exempt: ROADMAP 8b)"
    printf '%-14s %-7s %-28s %s\n' "$2" "$kind" "$name" "$n"
    case $kind in field) values=$((values + 1)) ;; fn) builders=$((builders + 1)) ;; esac
    if [[ $n == 0 ]]; then fail=1; fi
  done < <(members "$1" "$2")
}
for s in ServeConfig OverloadConfig ChaosConfig; do census crates/serve/src/config.rs "$s"; done
census crates/net/src/lib.rs NetConfig
census crates/serve/src/journal.rs JournalConfig
echo "census: $values settable values, $builders builders across 5 config structs"
[[ $fail == 0 ]] || { echo "error: a knob above is set by nothing outside its defining file — delete it or use it" >&2; exit 1; }
