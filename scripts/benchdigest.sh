#!/bin/sh
# benchdigest — checks that the benchmark's workloads still simulate exactly
# what they did, and allocate no more than they did. For each seed named in
# testdata/bench_digests.txt (one "workload seed digest" line per pair) or
# testdata/bench_allocs.txt (one "workload seed ceiling" line per pair) it
# runs every workload once,
#
#   sh bench/run.sh --workload all --seed S --seconds 0 --trace 0
#
# reads each workload's digest from the run's stderr and its allocs row from
# the run's stdout, and fails, naming the workload, on a digest mismatch or
# an allocs reading above its ceiling. Run from the repository root
# (`make benchdigest`):
#
#   sh scripts/benchdigest.sh
set -eu

FILE=testdata/bench_digests.txt
ALLOCS=testdata/bench_allocs.txt
DIR=$(mktemp -d /tmp/scorpio-benchdigest.XXXXXX)
trap 'st=$?; rm -rf "$DIR"; exit $st' EXIT

grep -v '^#' "$FILE" | awk 'NF' >"$DIR/pins"
grep -v '^#' "$ALLOCS" | awk 'NF' >"$DIR/ceilings"
fail=0
for seed in $(awk '{ print $2 }' "$DIR/pins" "$DIR/ceilings" | sort -un); do
    if ! sh bench/run.sh --workload all --seed "$seed" --seconds 0 --trace 0 >"$DIR/out" 2>"$DIR/err"; then
        echo "benchdigest: the seed $seed run failed:"
        cat "$DIR/err"
        exit 1
    fi
    while read -r w s want; do
        [ "$s" = "$seed" ] || continue
        got=$(sed -n "s/^$w: .*; digest \([0-9a-f]*\)\$/\1/p" "$DIR/err")
        if [ "$got" = "$want" ]; then
            echo "benchdigest: $w seed $seed: $got ok"
        else
            echo "benchdigest: $w seed $seed: digest ${got:-missing}, want $want"
            fail=1
        fi
    done <"$DIR/pins"
    while read -r w s ceiling; do
        [ "$s" = "$seed" ] || continue
        got=$(awk -v row="$w.allocs" '$1 == row { print $2 }' "$DIR/out")
        if [ -n "$got" ] && [ "$got" -le "$ceiling" ]; then
            echo "benchdigest: $w seed $seed: $got allocs ok (ceiling $ceiling)"
        else
            echo "benchdigest: $w seed $seed: ${got:-no} allocs, ceiling $ceiling"
            fail=1
        fi
    done <"$DIR/ceilings"
done
exit $fail
