#!/bin/sh
# Build (on first use) and run the profile benchmark from the root of a
# checkout, e.g.
#   bash bench/profile/run.sh --workload ycsb-b --seed 1 --seconds 10 --trace 0
# --root . pins the dune workspace to this directory, so a directory
# without the rest of the repository fails to build instead of picking up
# an enclosing project.
exec dune exec --root . --display quiet -- bench/profile/profile.exe "$@"
