#!/usr/bin/env bash
# Re-pin the golden output digests checked by
# crates/hex-bench/tests/golden.rs.
#
# Usage: scripts/regen_golden.sh
#
# Only run this for a deliberate output change (a canonical-version bump,
# a fixed defect), and add a CHANGES.md line saying which digests moved
# and why: the golden test exists so outputs never change silently.
set -euo pipefail
cd "$(dirname "$0")/.."

out=crates/hex-bench/tests/GOLDEN.txt
digests="$(cargo test -q -p hex-bench --test golden -- \
  --ignored --exact print_current_digests --nocapture | sed -n 's/^golden //p')"
[ -n "$digests" ] || { echo "regen_golden: no digests printed" >&2; exit 1; }
{
  echo "# FNV-1a digests pinned by crates/hex-bench/tests/golden.rs."
  echo "# Regenerate only with scripts/regen_golden.sh, plus a CHANGES.md line."
  echo "$digests"
} > "$out"
echo "regen_golden: wrote $(echo "$digests" | wc -l) digests to $out"
