#!/bin/sh
# Print the simulated-clock outcome of every repository-benchmark
# workload (perfbench/): correct, attempted, failed and each end-to-end
# metric read off the simulated clock (sim_*, attempts_per_op,
# space_amp, recovery_sim_s).  The wall-clock metrics (setup_s,
# recovery_s, heap_peak_mb) are left out: they differ from run to run.
#
#   test/sim_outcomes.sh [SOURCE_TREE] > sim.txt
#
# Each workload runs at seed 1 with --seconds 0, that is its fixed
# number of simulated repetitions and no more.  The simulated metrics
# pool only those repetitions, so they equal a longer run's; only
# attempted grows with run length.  SOURCE_TREE defaults to the current
# directory.  To check a change that should not move the simulated
# clock, run it on a checkout of the parent commit and on the change,
# then diff the two outputs.  Each workload's block ends with its exit
# status; the script exits non-zero if any workload did.
set -u
root=${1:-.}
dune build --root "$root" ./perfbench/main.exe >&2 || exit 1
out=$(mktemp -d) || exit 2
trap 'rm -rf "$out"' EXIT
status=0
for w in namespace bulk shared-load; do
  echo "== $w"
  res=$("$root/_build/default/perfbench/main.exe" --workload "$w" --seed 1 \
    --seconds 0 --trace 0 --out "$out")
  rc=$?
  printf '%s\n' "$res" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
for k in ("correct", "attempted", "failed"):
    print(k, json.dumps(r[k]))
for k, m in sorted(r["metrics"].items()):
    if k.startswith("sim_") or k in ("attempts_per_op", "space_amp", "recovery_sim_s"):
        print(k, repr(m["value"]))
' || rc=1
  echo "== $w exit=$rc"
  [ "$rc" -eq 0 ] || status=1
done
exit $status
