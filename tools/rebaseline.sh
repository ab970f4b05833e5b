#!/bin/sh
# Write the simulated goldens of this checkout into DIR (default
# test/golden), from the root of the repository:
#
#   sh tools/rebaseline.sh            # regenerate the checked-in goldens
#   sh tools/rebaseline.sh /tmp/now   # what check.sh diffs against them
#
# profile-<workload>.txt
#                     the `# events` line and the 8 simulated end-to-end
#                     metrics of a 1 s bench/profile run, one file for each
#                     of its four workloads (ycsb-b, ycsb-a, hotspot-open,
#                     faults-abd)
# chaos-digests.txt   the digest of every chaos stage check.sh runs: the
#                     --fast matrix, then the full-size bit-rot seed 8
# trace-seed42.txt    the cksum of the Chrome trace `leed trace --seed 42`
#                     writes, so a change that reorders, adds or drops any
#                     traced event shows up
# experiments-fast.txt
#                     the stdout of `bench/main.exe fast fig1 fig11 fig13
#                     table3` without its wall-clock `[... done in Xs]`
#                     lines: the device, single-JBOF engine, compaction and
#                     baseline-store paths the paper experiments measure
#                     (fig13's squeezed stores are the only golden run in
#                     which both compactors work)
#
# Every number here is simulated, so it repeats exactly on any machine.
# A change that should not move simulated behaviour must leave every file
# byte-identical; a change that moves it on purpose reruns this script
# and commits the new goldens with the change.
#
# Each producer writes to a temp file before anything filters it, so a
# producer that fails (a chaos run whose invariants break, an experiment
# that raises) stops the script instead of leaving a golden behind.
set -e

cd "$(dirname "$0")/.."
out=${1:-test/golden}
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dune build 2>&1

sim_lines='^(# events|throughput_ops_s|get_p[0-9]+_us|put_p[0-9]+_us|slo_met_frac|ok_frac|avail_frac) '
for workload in ycsb-b ycsb-a hotspot-open faults-abd; do
  bash bench/profile/run.sh --workload "$workload" --seconds 1 > "$tmp/profile.out" \
    || { echo "rebaseline: bench/profile $workload failed"; exit 1; }
  grep -E "$sim_lines" "$tmp/profile.out" > "$out/profile-$workload.txt"
  [ "$(wc -l < "$out/profile-$workload.txt")" -eq 9 ] \
    || { echo "rebaseline: expected 9 simulated profile lines from $workload"; exit 1; }
done

: > "$out/chaos-digests.txt"
# chaos_digest NAME PROTO FLAGS...: append "NAME PROTO DIGEST" of one
# sanitized chaos run.
chaos_digest() {
  name=$1
  proto=$2
  shift 2
  dune exec bin/leed.exe -- chaos --sanitize "$@" --proto "$proto" > "$tmp/chaos.out" \
    || { echo "rebaseline: chaos $name [$proto] failed"; exit 1; }
  digest=$(awk '$1 == "digest" { print $2 }' "$tmp/chaos.out")
  [ -n "$digest" ] || { echo "rebaseline: no digest from chaos $name [$proto]"; exit 1; }
  echo "$name $proto $digest" >> "$out/chaos-digests.txt"
}
for proto in crrs abd; do
  for stage in "smoke --seed 42" "bit-rot --bit-rot --seed 7" "fail-slow --fail-slow --seed 11" \
    "cache --cache --seed 42"; do
    # shellcheck disable=SC2086 # the stage string is a name then flags
    set -- $stage
    name=$1
    shift
    chaos_digest "$name" "$proto" --fast "$@"
  done
done
for proto in crrs abd; do
  chaos_digest bit-rot-full "$proto" --bit-rot --seed 8
done

dune exec bin/leed.exe -- trace --seed 42 --out "$tmp/trace.json" > /dev/null \
  || { echo "rebaseline: leed trace failed"; exit 1; }
cksum < "$tmp/trace.json" > "$out/trace-seed42.txt"

dune exec bench/main.exe -- fast fig1 fig11 fig13 table3 > "$tmp/experiments.out" \
  || { echo "rebaseline: bench/main.exe fast fig1 fig11 fig13 table3 failed"; exit 1; }
grep -v '^\[.* done in [0-9.]*s\]$' "$tmp/experiments.out" > "$out/experiments-fast.txt"
