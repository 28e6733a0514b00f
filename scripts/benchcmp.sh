#!/usr/bin/env bash
# Gates the working tree on its benchmarks against a base revision
# measured beside it on this machine:
#
#   bash scripts/benchcmp.sh HEAD^1
#
# Run it from the repository root. The base revision is checked out into
# a temporary git worktree. Each of 10 rounds runs the go-bench suite and
# every BENCHMARK.json workload (perfbench, seeded by the round) in both
# trees, the two sides of each item back to back: the base first in odd
# rounds, the change first in even ones. Each side's raw output collects
# in benchcmp.out/base.out and benchcmp.out/change.out, and benchreport
# compare, built from the working tree, judges the pairs. Exit status:
# 0 pass, 1 a row past -warn, 2 a row past its bound or a failed change
# run (benchreport's), 3 a round could not run.
set -Eeuo pipefail
trap 'exit 3' ERR
if [ $# -ne 1 ]; then
  echo "usage: bash scripts/benchcmp.sh BASE-REVISION" >&2
  exit 3
fi
root=$(pwd)
out=$root/benchcmp.out
base=$(mktemp -d)
trap 'git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"' EXIT
rm -rf "$out"
mkdir -p "$out"
git worktree add --detach --quiet "$base" "$1"
go build -o "$out/benchreport" ./cmd/benchreport
workloads=$(grep -o '"name": *"[^"]*", *"why"' BENCHMARK.json | cut -d'"' -f4)

# run SIDE DIR ROUND ITEM runs one item in the tree at DIR and appends its
# output to SIDE's file: the go-bench lines, or perfbench's result line
# prefixed by the workload name (a run that ends without one counts as
# incorrect).
run() {
  local side=$1 dir=$2 round=$3 item=$4 last
  if [ "$item" = bench ]; then
    (cd "$dir" && go test -run '^$' -bench . -benchtime 100ms -count 1 -benchmem .) >> "$out/$side.out"
    return
  fi
  last=$(cd "$dir" && bash perfbench/run.sh --workload "$item" --seed "$round" --seconds 25 --trace 0 | tail -n 1) || true
  [[ $last == '{'* ]] || last='{"correct": false}'
  echo "$item $last" >> "$out/$side.out"
}

for round in $(seq 1 10); do
  for item in bench $workloads; do
    echo "round $round: $item" >&2
    if (( round % 2 )); then
      run base "$base" "$round" "$item"
      run change "$root" "$round" "$item"
    else
      run change "$root" "$round" "$item"
      run base "$base" "$round" "$item"
    fi
  done
done
status=0
"$out/benchreport" compare "$out/base.out" "$out/change.out" || status=$?
exit "$status"
