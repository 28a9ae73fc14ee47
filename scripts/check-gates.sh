#!/usr/bin/env bash
# Fails when `require_unfrozen` or `require_counter_ready` is called
# anywhere but the dispatcher's gate, `TeechainEnclave::pass` in
# crates/core/src/enclave.rs. Every command and sealed message passes its
# row of the gate table before its handler runs, and the handlers that
# gate themselves (delivery, the admission pump, the swap tick) call
# `pass` too: no handler checks the freeze or the counter by hand.
#
# Usage: scripts/check-gates.sh
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
while IFS= read -r file; do
  perl -0777 -ne '
    my $body = qr/(?<br>\{(?:[^{}]++|(?&br))*\})/;
    my ($lo, $hi) = (0, -1);
    ($lo, $hi) = ($-[0], $+[0])
      if $ARGV eq "crates/core/src/enclave.rs" && /\bfn\s+pass\s*\([^{]*$body/;
    while (/(?<!fn )\b(require_unfrozen|require_counter_ready)\s*\(/g) {
      next if $-[0] >= $lo && $-[0] < $hi;
      my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
      print "$ARGV:$line: $1 is called outside TeechainEnclave::pass\n";
    }
  ' "$file" | grep . >&2 && status=1
done < <(grep -rlE 'require_(unfrozen|counter_ready)\s*\(' --include='*.rs' crates src tests examples 2>/dev/null || true)
[ "$status" -eq 0 ] && echo "the freeze and counter checks run only in TeechainEnclave::pass"
exit "$status"
