#!/usr/bin/env bash
# Regenerates docs/public-api.txt — a normalized snapshot of the public
# API surface of every library crate in the workspace. CI diffs the
# committed snapshot against a fresh one, so any drift of the public API
# is a deliberate, reviewed change (update with: scripts/public-api.sh).
#
# The dump is intentionally simple and dependency-free: the first line of
# every `pub` item signature (functions, types, traits, consts, modules,
# re-exports) in each crate's `src` (binaries under `src/bin` excluded),
# normalized and sorted. `pub(crate)` and other restricted visibilities
# are excluded. Each crate gets its own sorted section, so an identical
# signature in two crates counts once per crate.
set -euo pipefail
cd "$(dirname "$0")/.."
out="docs/public-api.txt"
mkdir -p docs
{
  echo "# Public API snapshot of every library crate, one section per crate."
  echo "# Regenerate with scripts/public-api.sh; CI fails on drift."
  for dir in . crates/*; do
    [ -f "$dir/src/lib.rs" ] || continue
    name=$(sed -nE 's/^name = "([^"]+)"/\1/p' "$dir/Cargo.toml" | head -n1)
    echo
    echo "## $name ($dir)"
    grep -rhoE '^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use) [^;{(]*' \
      --include='*.rs' --exclude-dir=bin "$dir/src" \
      | sed -E 's/^[[:space:]]+//; s/[[:space:]]+$//; s/[[:space:]]+/ /g' \
      | LC_ALL=C sort -u
  done
} > "$out"
echo "wrote $out ($(grep -c '' "$out") lines)"
