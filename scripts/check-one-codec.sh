#!/usr/bin/env bash
# Fails when an `impl Encode for` or `impl Decode for` (generic or not)
# appears in crates, src, examples or tests for a type that
# docs/codec-impls.txt does not list with a reason, or when the list names
# one that no longer exists. Every other wire and sealed format is declared
# once, through `impl_wire_struct!` or `impl_wire_enum!` in
# teechain_util::codec, so its encoder and decoder cannot disagree. The
# list holds one per line as `<file> <type> <reason>`, the type written
# without spaces (`[u8;N]`, `BTreeMap<K,V>`).
#
# Usage: scripts/check-one-codec.sh
set -euo pipefail
cd "$(dirname "$0")/.."
allow=docs/codec-impls.txt
impl='impl(<[^{]*>)?[[:space:]]+([A-Za-z_$]+::)*(Encode|Decode)[[:space:]]+for[[:space:]]+[^{]*[^{[:space:]]'
status=0
found=$(mktemp)
trap 'rm -f "$found"' EXIT
while IFS=: read -r file line text; do
  ty=$(printf '%s\n' "$text" | sed -E 's/.*[[:space:]]for[[:space:]]+//; s/[[:space:]]+//g')
  echo "$file $ty" >>"$found"
  if ! grep -qF "$file $ty " "$allow"; then
    echo "$file:$line: hand-written codec for \`$ty\`; declare it with impl_wire_struct!/impl_wire_enum!, or list it in $allow with a reason" >&2
    status=1
  fi
done < <(grep -rnoE --include='*.rs' "$impl" crates src examples tests 2>/dev/null || true)
while read -r file ty _; do
  if ! grep -qxF "$file $ty" "$found"; then
    echo "$allow lists \`$file $ty\`, which has no hand-written codec any more" >&2
    status=1
  fi
done < <(grep -vE '^[[:space:]]*(#|$)' "$allow")
[ "$status" -eq 0 ] && echo "every hand-written Encode/Decode impl is listed in $allow"
exit "$status"
