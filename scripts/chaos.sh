#!/usr/bin/env bash
# Chaos determinism gate.
#
# Runs the fixed-seed chaos suite (`chaos_run`: degraded downlink,
# supervised decoder crash, corrupted feed — see
# crates/bench/src/bin/chaos_run.rs) twice and diffs the digests. The
# digest covers injected-fault counts, repair/completeness stats, and
# an FNV hash over every delivered PNG byte, so any nondeterminism in
# fault injection, stream repair, supervision, or delivery fails the
# gate. Also runs the seeded chaos acceptance tests (tests/chaos.rs, and
# tests/chaos_threads.rs, whose thread-leak check needs a binary of its
# own).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q --offline --test chaos --test chaos_threads

cargo build --release --offline -p geostreams-bench --bin chaos_run
out_a=$(mktemp)
out_b=$(mktemp)
trap 'rm -f "$out_a" "$out_b"' EXIT
./target/release/chaos_run > "$out_a"
./target/release/chaos_run > "$out_b"
if ! diff -u "$out_a" "$out_b"; then
  echo "chaos suite is nondeterministic: same seed produced different digests" >&2
  exit 1
fi
echo "chaos suite OK: $(wc -l < "$out_a") scenarios byte-identical across runs"
