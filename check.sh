#!/bin/sh
# Full tier-1 gate: build everything, lint, run the suites and the golden
# rules, run the suites again with the runtime invariant sanitizer armed,
# then the examples, the race smoke, the bench gates and the scheduler
# parity. Any stage failing fails the script.
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

echo "== tests and goldens =="
# Besides the suites, `dune runtest` runs test/golden's rules: every
# sanitized chaos stage (with its same-seed determinism diff), the traced
# chaos smoke, the seed-42 trace capture (twice, byte-compared) and the
# bench/profile and paper-experiment runs, each diffed against its
# checked-in golden (test/golden/dune).
dune runtest

echo "== tests under the invariant sanitizer (LEED_SANITIZE=1) =="
# --force reruns the actions attached to runtest. test/golden's producers
# are file rules, not alias actions, so they do not run again: only their
# diffs against the goldens do, and the chaos stages were sanitized above.
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

echo "== oracle scheduler parity (profile ycsb-b: heap and calendar vs the golden's default-wheel metrics) =="
# The binary heap is kept as the reference oracle; the calendar queue
# must reproduce its simulated end-to-end metrics to the last digit on
# the benchmark's own workload. Both are diffed against the 8 metric
# lines of test/golden/profile-ycsb-b.txt, which `dune runtest` above
# already checked the default scheduler (the timing wheel) against.
# Wall-clock metrics differ by design and are not compared.
sim_metrics='^(throughput_ops_s|get_p[0-9]+_us|put_p[0-9]+_us|slo_met_frac|ok_frac|avail_frac) '
grep -E "$sim_metrics" test/golden/profile-ycsb-b.txt > "$tmp/profile-wheel.txt"
[ "$(wc -l < "$tmp/profile-wheel.txt")" -eq 8 ] || { echo "expected 8 simulated metric lines"; exit 1; }
for sched in heap calendar; do
  bash bench/profile/run.sh --workload ycsb-b --seconds 1 --sched "$sched" > "$tmp/profile-$sched.out"
  grep -E "$sim_metrics" "$tmp/profile-$sched.out" > "$tmp/profile-$sched.txt"
  diff "$tmp/profile-wheel.txt" "$tmp/profile-$sched.txt"
done

echo "== api docs (odoc, when available) =="
# CI installs odoc and builds the full doc tree; containers without odoc
# still enforce doc coverage of the curated interfaces via simlint R5.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "odoc not installed; skipping @doc (simlint R5 covers doc coverage)"
fi

echo "check.sh: all stages passed"
