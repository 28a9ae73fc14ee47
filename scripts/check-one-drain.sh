#!/usr/bin/env bash
# Fails when crates/core/src builds a `HostEvent::PumpAt` from the current
# time: its argument calls `now_ns()` or names a `now` binding. A node
# learns that its queued input has drained from one signal, the input
# hint (`Command::Deliver::more`); what a payee or a chain member owes is
# released by the next ecall that is not a delivery with more messages
# behind it, so no enclave asks its host to wake it at `now`. Every pump
# it asks for is a deadline, a backoff or the counter's `ready_at`, all
# in the future.
#
# Usage: scripts/check-one-drain.sh
set -euo pipefail
cd "$(dirname "$0")/.."
found=$(find crates/core/src -name '*.rs' -print0 | xargs -0 perl -0777 -ne '
  my $args = qr/(?<pa>\((?:[^()]++|(?&pa))*\))/;
  # Line comments may quote the old request; only code counts.
  (my $code = $_) =~ s{//[^\n]*}{}g;
  while ($code =~ /\bPumpAt\s*$args/g) {
    my ($at, $arg) = ($-[0], $+{pa});
    next unless $arg =~ /\bnow_ns\s*\(|\bnow\b/;
    my $line = 1 + (substr($code, 0, $at) =~ tr/\n//);
    print "$ARGV:$line: PumpAt$arg asks for a pump at the current time\n";
  }
')
held=$(find crates/core/src -name '*.rs' -print0 | xargs -0 perl -0777 -ne '
  (my $code = $_) =~ s{//[^\n]*}{}g;
  # The one release site: the body of `fn handle`, blanked out with its
  # newlines kept so line numbers still hold.
  my $body = qr/(?<br>\{(?:[^{}]++|(?&br))*\})/;
  if ($ARGV =~ m{crates/core/src/enclave\.rs$}
      && $code =~ /\bfn\s+handle\s*\([^)]*\)[^{;]*$body/) {
    my ($from, $len) = ($-[1], $+[1] - $-[1]);
    substr($code, $from, $len) = substr($code, $from, $len) =~ tr/\n//cdr;
  }
  while ($code =~ /\.held\b(?!\s*\.\s*(?:len|is_empty)\s*\(\s*\))/g) {
    my $line = 1 + (substr($code, 0, $-[0]) =~ tr/\n//);
    print "$ARGV:$line: the held deltas are taken outside TeechainEnclave::handle\n";
  }
')
# A chain head's owed pays (`owed_pays` on its pending entries and on the
# ecall's staging) are sealed only where a chain ack releases them
# (`on_rep_ack`) and where something else is about to be sealed to their
# peer (`seal_at`), by `seal_owed_pays`. They leave their lists only
# there, at their own ecall's commit (`commit_staged`, which moves them to
# the ecall's pending entry) and in a failed ecall (`handle`, which drops
# its own); elsewhere a list may be pushed to, counted or asked.
pays=$(find crates/core/src -name '*.rs' -print0 | xargs -0 perl -0777 -ne '
  (my $code = $_) =~ s{//[^\n]*}{}g;
  my $body = qr/(?<br>\{(?:[^{}]++|(?&br))*\})/;
  # Function bodies where owed pays may leave their lists, and whether
  # they may seal them too. A body is blanked out with its newlines kept,
  # so line numbers still hold; a call it may not make is kept.
  my %allowed = (
    "crates/core/src/replication.rs" => { on_rep_ack => 1 },
    "crates/core/src/enclave.rs" => { seal_at => 1, commit_staged => 0, handle => 0 },
  );
  my $fns = $allowed{$ARGV} || {};
  for my $fn (sort keys %$fns) {
    next unless $code =~ /\bfn\s+$fn\s*\([^)]*\)[^{;]*$body/;
    my ($from, $len) = ($-[1], $+[1] - $-[1]);
    (my $kept = substr($code, $from, $len)) =~ s/\bseal_owed_pays\b/\x00/g;
    $kept =~ tr/\n\x00//cd;
    $kept =~ s/\x00/seal_owed_pays(/g unless $fns->{$fn};
    $kept =~ tr/\x00//d;
    substr($code, $from, $len) = $kept;
  }
  while ($code =~ /(?<!fn )\bseal_owed_pays\s*\(/g) {
    my $line = 1 + (substr($code, 0, $-[0]) =~ tr/\n//);
    print "$ARGV:$line: owed pays are sealed outside on_rep_ack and seal_at\n";
  }
  while ($code =~ /\.owed_pays\b(?!\s*\.\s*(?:len|is_empty|owe|owed_to|none_staged|settled)\s*\()/g) {
    my $line = 1 + (substr($code, 0, $-[0]) =~ tr/\n//);
    print "$ARGV:$line: owed pays leave their lists outside their release, pre-seal or commit\n";
  }
')
if [ -n "$found$held$pays" ]; then
  printf '%s\n' "$found" "$held" "$pays" | grep . >&2
  exit 1
fi
echo "no enclave asks for a pump at the current time; the input hint is the one drain signal"
echo "only TeechainEnclave::handle takes the chain head's held deltas"
echo "only on_rep_ack and seal_at seal a chain head's owed pays"
