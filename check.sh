#!/bin/sh
# Full tier-1 gate: build everything, lint, run the suites, then run them
# again with the runtime invariant sanitizer armed. Any stage failing
# fails the script.
set -e

cd "$(dirname "$0")"

echo "== build =="
dune build

echo "== build flags (no -opaque, warnings are errors) =="
# dune-workspace selects the release profile, which compiles without
# -opaque, so Sim and the schedulers inline Event_store's accessors; the
# root dune file's env stanza keeps the dev profile's warning flags.
# Fail if the default build loses either.
sim_rule=$(dune rules lib/sim/.leed_sim.objs/native/leed_sim__Sim.cmx)
echo "$sim_rule" | grep -qF 'lib/sim/sim.ml' \
  || { echo "no native compile rule found for lib/sim/sim.ml"; exit 1; }
if echo "$sim_rule" | grep -qF -- '-opaque'; then
  echo "lib/sim/sim.ml compiles with -opaque: cross-module inlining is off"; exit 1
fi
env_flags=$(dune printenv .)
for flag in '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' -strict-sequence; do
  echo "$env_flags" | grep -qF -- "$flag" \
    || { echo "default build flags lack $flag (warnings must stay errors)"; exit 1; }
done

echo "== lint (determinism / effect discipline) =="
dune build @lint

echo "== interface coverage (every lib module has an .mli) =="
missing=0
for ml in $(find lib -name '*.ml'); do
  if [ ! -f "${ml}i" ]; then
    echo "missing interface: ${ml}i"
    missing=1
  fi
done
[ "$missing" -eq 0 ] || { echo "interface coverage failed"; exit 1; }

echo "== tests =="
dune runtest

echo "== tests under the invariant sanitizer (LEED_SANITIZE=1) =="
LEED_SANITIZE=1 dune runtest --force

echo "== examples (each must exit 0) =="
# The examples build their clusters from the library's default configs,
# so a config change that breaks one shows up here. ycsb_cluster runs a
# 20 ms window to keep the stage at a few seconds, once per backend; the
# KVell run uses 4 KB objects, so its slab slots must follow -s.
for ex in quickstart failover swap_demo; do
  dune exec "examples/$ex.exe" > /dev/null
done
dune exec examples/ycsb_cluster.exe -- -d 0.02 > /dev/null
dune exec examples/ycsb_cluster.exe -- -b fawn -d 0.02 > /dev/null
dune exec examples/ycsb_cluster.exe -- -b kvell -s 4096 -d 0.02 > /dev/null

# The chaos stages run as a replication-protocol matrix: every schedule
# must pass the same invariants (including the linearizability oracle)
# under both CRRS chain replication and the ABD quorum register, and
# both must stay bit-identical across same-seed runs.
for proto in crrs abd; do

echo "== chaos smoke [$proto] (seeded fault schedule, sanitized, determinism diff) =="
# --runs 2 replays the identical seed and diffs the digests: exit 2 on
# nondeterminism, exit 1 on any end-state invariant (acked-write loss,
# unrepaired chain, unbounded outage, non-linearizable history).
dune exec bin/leed.exe -- chaos --fast --sanitize --seed 42 --runs 2 --proto "$proto"

echo "== bit-rot chaos [$proto] (scrub + read-repair under faults, determinism diff) =="
# Adds seeded flash bit rot to the schedule: the run must serve zero
# corrupt payloads, the background scrubber and replica read-repair must
# heal every flipped replica (post-run verify walk finds no bad CRC),
# and the two same-seed runs must still be bit-identical.
dune exec bin/leed.exe -- chaos --fast --sanitize --bit-rot --seed 7 --runs 2 --proto "$proto"

echo "== full-size bit-rot chaos [$proto] (seed 8: expulsion during a scrub re-copy, determinism diff) =="
# The full-size schedule of seed 8 expels a node while a scrub escalation
# re-copies a rotted vnode's arcs. Every membership COPY walks a frozen
# copy of the ring, so the run must complete with every invariant held
# and two same-seed runs bit-identical.
dune exec bin/leed.exe -- chaos --sanitize --bit-rot --seed 8 --runs 2 --proto "$proto"

echo "== fail-slow chaos [$proto] (gray failure: hedging + ladder + shedding, determinism diff) =="
# Adds a 10x fail-slow node (plus an inbound jitter ramp) to the
# schedule with hedged reads, adaptive timeouts, deadline shedding and
# the slow-outlier ladder all armed: invariants must hold, the fenced
# node must rejoin after the heal, and hedging's first-response-wins
# races must still produce bit-identical same-seed digests.
dune exec bin/leed.exe -- chaos --fast --sanitize --fail-slow --seed 11 --runs 2 --proto "$proto"

echo "== cached chaos [$proto] (in-network cache armed, determinism diff) =="
# Arms the switch-resident hot-object cache (DESIGN.md §15): the same
# schedule must pass all six invariants — including the linearizability
# oracle, which a single stale cached read would trip — and stay
# bit-identical across same-seed runs. Under abd the cache must stay
# silent (quorum reads are never intercepted).
dune exec bin/leed.exe -- chaos --fast --sanitize --cache --seed 42 --runs 2 --proto "$proto"

done

echo "== race smoke (perturbed equal-time orderings, every target) =="
# The detector reruns each registered target under 8 seeded equal-time
# orderings and diffs the observable digests: the chaos schedules (plain
# and bit-rot) and the sharded YCSB loads must be order-invariant, and
# the deliberately racy fixture must diverge with its first commuting
# event pair named (exit 1 otherwise).
dune exec bin/leed.exe -- race --fast --runs 8

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== bench gates (cache, chaos and replication vs the committed BENCH files) =="
# Each bench writes its BENCH file into the current directory, so all
# three run in the stage's temp directory and the working tree stays
# clean. `cache fast` sweeps Zipf skew and a flash crowd across cache-off
# and cache+CRRS; the validator checks every (scenario x config) cell is
# present, metrics are finite, cache-off rows report no cache traffic,
# and some armed cell hit. Every field of BENCH_cache.json is simulated
# (no wall clock) and goes through Backend.measure's counter deltas, so
# it must reproduce the committed file byte for byte. `chaos fast` (seed
# 42 plus the fail-slow points) and `repl fast` (CRRS vs ABD) must
# reproduce theirs in every field except the wall-clock `wall_s`. A
# change that moves one on purpose commits the regenerated file.
dune build bench/main.exe
bench_exe="$(pwd)/_build/default/bench/main.exe"
strip_wall() { sed -E 's/"wall_s":[-+0-9.eE]+//g' "$1"; }
for b in cache chaos repl; do
  (cd "$tmp" && "$bench_exe" "$b" fast > "$tmp/bench-$b.log")
  if [ "$b" = cache ]; then
    "$bench_exe" cache-validate "$tmp/BENCH_cache.json"
    cmp BENCH_cache.json "$tmp/BENCH_cache.json" \
      || { echo "BENCH_cache.json differs from the committed file"; exit 1; }
  else
    strip_wall "BENCH_$b.json" > "$tmp/BENCH_$b.committed.nowall"
    strip_wall "$tmp/BENCH_$b.json" > "$tmp/BENCH_$b.nowall"
    cmp "$tmp/BENCH_$b.committed.nowall" "$tmp/BENCH_$b.nowall" \
      || { echo "BENCH_$b.json differs from the committed file (wall_s aside)"; exit 1; }
  fi
done

echo "== traced chaos smoke (capture under faults + schema validation) =="
# Re-run the chaos schedule with the tracer armed and validate that the
# capture is a well-formed Chrome trace (every async end has a begin,
# counters numeric, timestamps monotone per track).
dune exec bin/leed.exe -- chaos --fast --sanitize --seed 42 --trace "$tmp/chaos-trace.json"
dune exec bin/leed.exe -- trace-validate "$tmp/chaos-trace.json"

echo "== trace determinism (two same-seed captures, byte-identical) =="
dune exec bin/leed.exe -- trace --seed 42 --out "$tmp/trace-a.json" > /dev/null
dune exec bin/leed.exe -- trace --seed 42 --out "$tmp/trace-b.json" > /dev/null
cmp "$tmp/trace-a.json" "$tmp/trace-b.json"
dune exec bin/leed.exe -- trace-validate "$tmp/trace-a.json"

echo "== oracle scheduler parity (profile ycsb-b: heap vs default wheel and calendar, simulated metrics identical) =="
# The binary heap is kept as the reference oracle; the default scheduler
# (the timing wheel) and the calendar queue must reproduce its simulated
# end-to-end metrics to the last digit on the benchmark's own workload.
# Wall-clock metrics differ by design and are not compared.
sim_metrics='^(throughput_ops_s|get_p[0-9]+_us|put_p[0-9]+_us|slo_met_frac|ok_frac|avail_frac) '
bash bench/profile/run.sh --workload ycsb-b --seconds 1 --sched heap \
  | grep -E "$sim_metrics" > "$tmp/profile-heap.txt"
bash bench/profile/run.sh --workload ycsb-b --seconds 1 \
  | grep -E "$sim_metrics" > "$tmp/profile-default.txt"
bash bench/profile/run.sh --workload ycsb-b --seconds 1 --sched calendar \
  | grep -E "$sim_metrics" > "$tmp/profile-calendar.txt"
[ "$(wc -l < "$tmp/profile-heap.txt")" -eq 8 ] || { echo "expected 8 simulated metric lines"; exit 1; }
diff "$tmp/profile-heap.txt" "$tmp/profile-default.txt"
diff "$tmp/profile-heap.txt" "$tmp/profile-calendar.txt"

echo "== cross-commit golden gate (simulated numbers vs checked-in goldens) =="
# The stages above compare two runs of this commit; this one compares it
# with goldens checked in by an earlier commit (test/golden/): the event
# count and simulated metrics of each bench/profile workload, the digest of
# every chaos stage, the checksum of the seed-42 trace capture and the
# output of four fast paper experiments (fig1, fig11, fig13, table3;
# fig13 is the one that runs both compactors). A change
# that moves any of them fails here unless it reruns tools/rebaseline.sh
# and commits the new goldens on purpose. The recursive diff also fails
# on a golden that only one side has.
sh tools/rebaseline.sh "$tmp/golden"
diff -ru test/golden "$tmp/golden"

echo "== api docs (odoc, when available) =="
# CI installs odoc and builds the full doc tree; containers without odoc
# still enforce doc coverage of the curated interfaces via simlint R5.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "odoc not installed; skipping @doc (simlint R5 covers doc coverage)"
fi

echo "check.sh: all stages passed"
