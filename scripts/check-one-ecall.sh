#!/usr/bin/env bash
# Fails when `enclave.call(` appears in crates/core/src/node.rs anywhere
# but the host's one enclave-call path, `TeechainNode::ecall`: every ecall
# records its trace span and maps a crashed enclave to `Frozen` there, and
# host reactions share one refusal policy (`TeechainNode::reaction`).
#
# Usage: scripts/check-one-ecall.sh
set -euo pipefail
cd "$(dirname "$0")/.."
file=crates/core/src/node.rs
found=$(perl -0777 -ne '
  my $body = qr/(?<br>\{(?:[^{}]++|(?&br))*\})/;
  my ($lo, $hi) = (0, -1);
  ($lo, $hi) = ($-[0], $+[0]) if /\bfn\s+ecall\s*\([^{]*$body/;
  while (/\benclave\s*\.\s*call\s*\(/g) {
    next if $-[0] >= $lo && $-[0] < $hi;
    my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
    print "$ARGV:$line: enclave.call outside TeechainNode::ecall\n";
  }
' "$file")
if [ -n "$found" ]; then
  echo "$found" >&2
  exit 1
fi
echo "the host calls its enclave only through TeechainNode::ecall"
