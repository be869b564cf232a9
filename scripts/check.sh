#!/bin/sh
# One-command gate: build everything, lint, run the full test suite and
# every determinism gate (double runs, sanitized and sharded re-runs,
# the committed test/baseline snapshots), then run the benchmark
# harness. The harness writes BENCH_1.json and E14's exports (under
# artifacts/) relative to its working directory, so it runs in a
# temporary one: the gate leaves no tracked file modified. Can be
# started from any directory.
set -eu
cd "$(dirname "$0")/.."
dune build
# Project-law static analysis (lib/simlint): determinism, polymorphic
# compare, [@hot_path] allocation discipline, pool acquire/release
# pairing, observability-hook gating, fault-seam containment,
# steer-seam confinement. Zero findings or the build fails.
dune build @lint
# The machine-readable lint surface: --json must emit a well-formed
# (here: empty) findings array on stdout alongside the summary line.
test "$(dune exec bin/simlint_cli.exe -- --json lib 2>/dev/null)" = "[]"
# Steering programs are build artefacts with proofs: every shipped
# program must pass the static verifier (totality, target validity,
# bounded per-packet cost, determinism) before anything installs it.
dune exec bin/steer_verify.exe
dune runtest
# Chaos determinism: the loss sweep under a fixed seed, twice, must be
# byte-identical — completion-timeline digests included.
a=$(mktemp) b=$(mktemp)
trap 'rm -f "$a" "$b"' EXIT
dune exec bin/figures.exe -- losssweep > "$a"
dune exec bin/figures.exe -- losssweep > "$b"
diff "$a" "$b"
# Trace determinism: two E14 runs must agree on the report AND on every
# exported artefact — the Perfetto JSONs and pcaps, byte for byte.
da=$(mktemp -d) db=$(mktemp -d)
trap 'rm -f "$a" "$b"; rm -rf "$da" "$db"' EXIT
E14_OUT_DIR="$da" dune exec bin/figures.exe -- trace > "$a"
E14_OUT_DIR="$db" dune exec bin/figures.exe -- trace > "$b"
diff "$a" "$b"
for f in "$da"/*; do
  diff "$f" "$db/$(basename "$f")"
done
# Failover determinism: E15 kills and restarts a server mid-sweep and
# sweeps overload with shedding on/off; under the fixed plan seed two
# runs must be byte-identical (recovery times, shed counts, timeline
# digests and all).
dune exec bin/figures.exe -- failover > "$a"
dune exec bin/figures.exe -- failover > "$b"
diff "$a" "$b"
# Sanitized re-runs: LAUBERHORN_SANITIZE=1 arms the runtime protocol
# sanitizers (pool leak/double-release/poisoning, event-loop
# monotonicity, coherence generation discipline, sched-mirror
# convergence) in fail-fast mode. The runs must complete with zero
# trips AND stay byte-identical to the unsanitized outputs — the
# checkers observe without perturbing.
dune exec bin/figures.exe -- fig2 > "$a"
LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- fig2 > "$b"
diff "$a" "$b"
dune exec bin/figures.exe -- losssweep > "$a"
LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- losssweep > "$b"
diff "$a" "$b"
dune exec bin/figures.exe -- failover > "$a"
LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- failover > "$b"
diff "$a" "$b"
# Shard determinism: the same experiments stepped through the
# Shard_engine's conservative lookahead windows (LAUBERHORN_SHARDS=4)
# must be byte-identical to the plain single-heap runs — with the
# sanitizers armed, so windowed stepping can't silently break pool or
# protocol discipline either.
for sec in fig2 losssweep failover; do
  LAUBERHORN_SHARDS=1 dune exec bin/figures.exe -- "$sec" > "$a"
  LAUBERHORN_SHARDS=4 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- "$sec" > "$b"
  diff "$a" "$b"
done
# E16: cross-shard RPC rack with real multi-domain execution — the
# experiment itself asserts per-host byte-identity across 1/2/4/8
# domains and fails loudly if the merge order ever diverges.
dune exec bin/figures.exe -- parallel > "$a"
# E17: the full rack — ToR switch, per-host stacks, control plane and
# balancer over the per-pair lookahead matrix. Two runs must be
# byte-identical, and the 16-host section (which takes its domain
# count from the environment) must not move between 1 and 4 domains
# with the sanitizers armed.
dune exec bin/figures.exe -- rack > "$a"
dune exec bin/figures.exe -- rack > "$b"
diff "$a" "$b"
LAUBERHORN_SHARDS=1 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- rack > "$a"
LAUBERHORN_SHARDS=4 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- rack > "$b"
diff "$a" "$b"
# E18: the rack-scale observability plane — cross-fabric tracing armed,
# per-shard profiler installed, metrics merged in fixed shard order.
# Two runs must agree on the report AND on every exported artefact
# (multi-plane Perfetto JSON, merged metrics JSON, port-tap pcaps),
# byte for byte; and the report must not move between 1 and 4 domains
# even with the whole tracing plane recording.
ea=$(mktemp -d) eb=$(mktemp -d)
trap 'rm -f "$a" "$b"; rm -rf "$da" "$db" "$ea" "$eb"' EXIT
E18_OUT_DIR="$ea" dune exec bin/figures.exe -- obstrace > "$a"
E18_OUT_DIR="$eb" dune exec bin/figures.exe -- obstrace > "$b"
diff "$a" "$b"
for f in "$ea"/*; do
  diff "$f" "$eb/$(basename "$f")"
done
E18_OUT_DIR="$ea" LAUBERHORN_SHARDS=1 dune exec bin/figures.exe -- obstrace > "$a"
E18_OUT_DIR="$eb" LAUBERHORN_SHARDS=4 dune exec bin/figures.exe -- obstrace > "$b"
diff "$a" "$b"
for f in "$ea"/*; do
  diff "$f" "$eb/$(basename "$f")"
done
# E19: the chaos soak — every cluster fault class armed at once (link
# flaps with seeded jitter, port wedges, switch brownouts, asymmetric
# partitions, a master crash/restart). The soak itself fails the run
# if call or frame conservation breaks; here two runs must also be
# byte-identical, sanitized and unsanitized alike, and the report must
# not move between 1 and 4 domains.
dune exec bin/figures.exe -- chaossoak > "$a"
dune exec bin/figures.exe -- chaossoak > "$b"
diff "$a" "$b"
LAUBERHORN_SHARDS=1 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- chaossoak > "$a"
LAUBERHORN_SHARDS=4 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- chaossoak > "$b"
diff "$a" "$b"
# E20: verified application-defined steering — the key-affinity-vs-RSS
# comparison (with its in-run NIC-counter/reference-evaluator
# agreement assertion) and the 4-host rack with verified programs on
# every NIC. Two runs must be byte-identical, and the report must not
# move between 1 and 4 domains with the sanitizers armed.
dune exec bin/figures.exe -- steering > "$a"
dune exec bin/figures.exe -- steering > "$b"
diff "$a" "$b"
LAUBERHORN_SHARDS=1 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- steering > "$a"
LAUBERHORN_SHARDS=4 LAUBERHORN_SANITIZE=1 dune exec bin/figures.exe -- steering > "$b"
diff "$a" "$b"
# Steering is opt-in: with no program installed the NIC charges zero
# and dispatches exactly as before this subsystem existed. Every
# pre-steering section must be byte-identical to its committed
# test/baseline snapshot — the executable form of the
# "off means off" claim.
for f in test/baseline/*.txt; do
  sec=$(basename "$f" .txt)
  E14_OUT_DIR="$ea" E18_OUT_DIR="$ea" \
    dune exec bin/figures.exe -- "$sec" > "$a" 2>/dev/null
  diff "$f" "$a"
done
# The benchmark harness, every section including micro, run from a
# temporary directory so its BENCH_1.json and E14 artefacts land there.
dune build bench/main.exe
bd=$(mktemp -d)
trap 'rm -f "$a" "$b"; rm -rf "$da" "$db" "$ea" "$eb" "$bd"' EXIT
repo=$(pwd)
(cd "$bd" && "$repo/_build/default/bench/main.exe")
