#!/usr/bin/env bash
# Dynamic-fault campaign sweep: run the three canned `hexctl campaign`
# regimes (burst / crash / churn) on the paper's 50x20 grid and record
# the per-disturbance re-stabilization tables as CAMPAIGN.md. Before a
# regime is recorded, its stdout is required to be byte-identical across
# both queue policies — the determinism claim the committed table rests
# on, re-proven at generation time.
#
# Usage: scripts/campaign_sweep.sh [output-file]   (default: CAMPAIGN.md)
#
# Knobs:
#   HEX_RUNS   runs per regime, default 10 (CI smokes with HEX_RUNS=2)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-CAMPAIGN.md}"
runs="${HEX_RUNS:-10}"
pulses=10

cargo build -q --release --bin hexctl

campaign() { # campaign <regime> <HEX_QUEUE> — JSON on stdout
  HEX_RUNS="$runs" HEX_QUEUE="$2" \
    target/release/hexctl campaign --regime "$1" --pulses "$pulses"
}

{
  echo "# Dynamic fault campaigns"
  echo
  echo "Per-disturbance re-stabilization on the paper's 50x20 grid,"
  echo "scenario (iii), seed 42, $runs runs x $pulses pulses per regime"
  echo "(\`scripts/campaign_sweep.sh\`, driving \`hexctl campaign\`)."
  echo "Columns: pulses-to-restabilize is 1-based — the count from the"
  echo "first pulse launched at/after the disturbance to the first pulse"
  echo "of the persistent criterion-satisfying suffix of its segment."
  echo
  echo "Every table below was verified byte-identical across"
  echo "HEX_QUEUE=binary_heap|calendar at generation time."
} > "$out"

for regime in burst crash churn; do
  err_file="$(mktemp)"
  ref="$(campaign "$regime" calendar 2>"$err_file")"
  got="$(campaign "$regime" binary_heap 2>/dev/null)"
  if [ "$got" != "$ref" ]; then
    echo "campaign $regime diverged under HEX_QUEUE=binary_heap" >&2
    exit 1
  fi
  {
    echo
    echo "## $regime"
    echo
    echo '```text'
    cat "$err_file"
    echo '```'
    echo
    echo '```json'
    echo "$ref"
    echo '```'
  } >> "$out"
  rm -f "$err_file"
  echo "campaign $regime: byte-identical across both queue policies" >&2
done

echo "wrote $out" >&2
