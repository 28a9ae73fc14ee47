#!/usr/bin/env bash
# Fails when the host grows a co-signing path beside the sealed one, or a
# wire format of its own around the enclave's. Committee members co-sign
# over their chain's sealed sessions (`ProtocolMsg::{SigRequest,
# SigResponse}`, walked down and back up the chain by the enclaves), and
# the host relays the enclave's frames as they are. So the host's files
# (node, driver, testkit, live, live_sched):
#   - declare no wire format: no `impl_wire_enum!` or `impl_wire_struct!`
#     and no hand-written `impl Encode` or `impl Decode`;
#   - name no `SigRequest` or `SigResponse` and keep no committee peer
#     list.
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
  while ($code =~ /\b(impl_wire_(?:enum|struct))\s*!/g) {
    print "$ARGV:" . $line->($-[0]) . ": the host declares a wire format with $1!\n";
  }
  while ($code =~ /\bimpl\s*(?:<[^{]*?>)?\s+(?:\w+::)*(Encode|Decode)\s+for\b/g) {
    print "$ARGV:" . $line->($-[0]) . ": the host hand-writes a wire format (impl $1)\n";
  }
  while ($code =~ /\b(Sig(?:Request|Response)|(?:committee|co_?sign)\w*_(?:peers|members|nodes))\b/g) {
    print "$ARGV:" . $line->($-[0]) . ": the host names $1\n";
  }
' $host)
if [ -n "$found" ]; then
  echo "$found" >&2
  exit 1
fi
echo "one co-signing path and no host wire format: the host relays sealed enclave frames as they are"
