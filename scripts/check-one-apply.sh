#!/usr/bin/env bash
# Fails when a `StateDelta` variant is matched outside the codec
# (crates/core/src/msg.rs) and the module that owns the one state
# transition (crates/core/src/durable.rs). Live handlers, WAL replay and
# backup replicas all run `DurableState::apply`; anywhere else a delta is
# only built. A match is a variant, with its optional `{..}`/`(..)`
# pattern, followed by `=>`, `|` or an `if` guard, or one after `let` or
# inside `matches!`.
#
# Usage: scripts/check-one-apply.sh
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
while IFS= read -r file; do
  case "$file" in
    crates/core/src/msg.rs | crates/core/src/durable.rs) continue ;;
  esac
  perl -0777 -ne '
    my $group = qr/(?<br>\{(?:[^{}]++|(?&br))*\})|(?<pa>\((?:[^()]++|(?&pa))*\))/;
    while (/(?<pre>\blet\s+|matches!\s*\([^,]*,\s*)?\bStateDelta::(?<var>\w+)(?:\s*(?:$group))?(?<arm>\s*(?:=>|\||\bif\b))?/g) {
      next unless defined $+{pre} || defined $+{arm};
      my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
      print "$ARGV:$line: StateDelta::$+{var} is matched here; only DurableState::apply may match a delta\n";
    }
  ' "$file" | grep . >&2 && status=1
done < <(grep -rlE 'StateDelta::' --include='*.rs' crates src tests examples 2>/dev/null || true)
[ "$status" -eq 0 ] && echo "StateDelta is matched only in crates/core/src/msg.rs and crates/core/src/durable.rs"
exit "$status"
