#!/usr/bin/env bash
# Fails when crates/core/src or crates/net/src declares a HashMap or
# HashSet that docs/hashmaps.txt does not list, or when the list names one
# that no longer exists. A declaration is a line with `name: ...HashMap<`
# (a field, a binding or a parameter); the list holds one per line as
# `<file> <name> <reason>`. Hot-path state is slot-indexed instead (see
# "One index space" in docs/ARCHITECTURE.md), so a new map needs a reason.
#
# Usage: scripts/check-hashmaps.sh
set -euo pipefail
cd "$(dirname "$0")/.."
allow=docs/hashmaps.txt
decl='([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*:[[:space:]]*&?(mut[[:space:]]+)?(std::collections::)?Hash(Map|Set)<'
status=0
found=$(mktemp)
trap 'rm -f "$found"' EXIT
while IFS=: read -r file line text; do
  name=$(printf '%s\n' "$text" | grep -oE "$decl" | head -n1 | sed -E 's/[[:space:]]*:.*//' || true)
  if [ -z "$name" ]; then
    echo "$file:$line: a HashMap/HashSet this check cannot name; declare it as \`name: HashMap<..>\`" >&2
    status=1
    continue
  fi
  echo "$file $name" >>"$found"
  if ! grep -qE "^$file[[:space:]]+$name[[:space:]]" "$allow"; then
    echo "$file:$line: \`$name\` is not listed in $allow (add it with a reason, or index slots)" >&2
    status=1
  fi
done < <(grep -rnE 'Hash(Map|Set)<' crates/core/src crates/net/src)
while read -r file name _; do
  if ! grep -qxF "$file $name" "$found"; then
    echo "$allow lists \`$file $name\`, which declares no such map any more" >&2
    status=1
  fi
done < <(grep -vE '^[[:space:]]*(#|$)' "$allow")
[ "$status" -eq 0 ] && echo "every HashMap/HashSet in crates/core and crates/net is listed in $allow"
exit "$status"
