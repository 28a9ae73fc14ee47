#!/usr/bin/env bash
# Fails when an operation's outcome is written out a second time. The
# enclave emits each terminal outcome once, as `Effect::Done { key,
# outcome }`, and `HostEvent` holds only requests to the host. So:
# - crates/core/src/ops.rs, which completes operations, never names
#   `HostEvent` (no event-to-outcome translation such as `outcome_of`);
# - no `HostEvent` variant carries the name of one of the outcome
#   notifications it used to hold, neither in the enum in
#   crates/core/src/enclave.rs nor as a `HostEvent::<Name>` path anywhere.
#
# Usage: scripts/check-one-outcome.sh
set -euo pipefail
cd "$(dirname "$0")/.."
deleted='Identity|NewAddress|CommitteeAddress|SessionEstablished|ChannelOpen|DepositApproved|DepositAssociated|DepositDissociated|PaymentReceived|PaymentAcked|PaymentNacked|PaymentRejected|SettledOffChain|SettlementBroadcast|MultihopComplete|MultihopFailed|MultihopReceived|CoSignResult|BackupAttached|ReplicaState|Frozen|Recovered|SwapResolved'
status=0
if grep -nw 'HostEvent' crates/core/src/ops.rs >&2; then
  echo "crates/core/src/ops.rs names HostEvent: outcomes reach it as Effect::Done" >&2
  status=1
fi
DELETED="$deleted" perl -0777 -ne '
  my $body = qr/(?<br>\{(?:[^{}]++|(?&br))*\})/;
  /\bpub\s+enum\s+HostEvent\s*$body/ or die "$ARGV: no HostEvent enum\n";
  my ($start, $enum) = ($-[0], $+{br});
  # Top-level variants: an identifier at the start of a line, outside any
  # nested braces of the enum body.
  my $depth = 0;
  my $at = $start + index(substr($_, $start), $enum);
  for my $line (split /\n/, $enum) {
    if ($depth == 1 && $line =~ /^\s*($ENV{DELETED})\b/) {
      my $n = 1 + (substr($_, 0, $at) =~ tr/\n//);
      print "$ARGV:$n: HostEvent::$1 is an outcome; emit Effect::Done instead\n";
    }
    $depth += () = $line =~ /\{/g;
    $depth -= () = $line =~ /\}/g;
    $at += length($line) + 1;
  }
' crates/core/src/enclave.rs | grep . >&2 && status=1
grep -rnE "\bHostEvent::($deleted)\b" --include='*.rs' crates src tests examples >&2 && status=1
[ "$status" -eq 0 ] && echo "outcomes leave the enclave once, as Effect::Done; HostEvent holds requests only"
exit "$status"
