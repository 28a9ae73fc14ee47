#!/usr/bin/env bash
# Fails when the host grows a co-signing path beside the sealed one.
# Committee members co-sign over their chain's sealed sessions
# (`ProtocolMsg::{SigRequest, SigResponse}`, walked down and back up the
# chain by the enclaves), so the host keeps no committee state:
#   - `NodeWire` declares no variant but `Enclave`, the envelope around
#     sealed traffic;
#   - the host's files (node, driver, testkit, live, live_sched) name no
#     `SigRequest` or `SigResponse` and keep no committee peer list.
#
# Usage: scripts/check-one-cosign.sh
set -euo pipefail
cd "$(dirname "$0")/.."
host="crates/core/src/node.rs crates/core/src/driver.rs crates/core/src/testkit.rs
      crates/core/src/live.rs crates/core/src/live_sched.rs"
found=$(perl -0777 -ne '
  # Comments may describe the protocol; only code counts.
  (my $code = $_) =~ s{//[^\n]*}{}g;
  my $line = sub { 1 + (substr($code, 0, $_[0]) =~ tr/\n//) };
  if ($ARGV =~ m{/node\.rs$}) {
    my $body = qr/(?<br>\{(?:[^{}]++|(?&br))*\})/;
    while ($code =~ /\benum\s+NodeWire\s*$body/g) {
      my ($at, $b) = ($-[0], $+{br});
      for my $v ($b =~ /^\s*([A-Z]\w*)\b/mg) {
        print "$ARGV:" . $line->($at) . ": NodeWire declares $v\n" if $v ne "Enclave";
      }
    }
    while ($code =~ /impl_wire_enum!\s*\(\s*NodeWire\b[^{]*$body/g) {
      my ($at, $b) = ($-[0], $+{br});
      for my $v ($b =~ /^\s*([A-Z]\w*)\s*=/mg) {
        print "$ARGV:" . $line->($at) . ": NodeWire codec declares $v\n" if $v ne "Enclave";
      }
    }
  }
  while ($code =~ /\b(Sig(?:Request|Response)|(?:committee|co_?sign)\w*_(?:peers|members|nodes))\b/g) {
    print "$ARGV:" . $line->($-[0]) . ": the host names $1\n";
  }
' $host)
if [ -n "$found" ]; then
  echo "$found" >&2
  exit 1
fi
echo "one co-signing path: committee members sign over the chain's sealed sessions"
