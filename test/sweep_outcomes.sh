#!/bin/sh
# Print the outcome lines of every differential sweep, with the
# buffer-cache counters (cache=, ra=) stripped: those move with any
# change to I/O order.
#
# The other fields are same-seed invariants of a change that keeps both
# behaviour and I/O order, but not of one that reorders or relocates
# device I/O.  Faultsim fires its scheduled faults on the Nth device
# read or write, so a change to I/O order moves which block a bitrot or
# stuck fault hits, and the counts on a scrub media line (ops=,
# crashes=, media_events=, ...) can then differ while every run still
# ends mismatches=0.  Timings printed on the simulated clock (a cluster
# sweep's hb=/msgs=) move when the device cost of the same I/O changes,
# for example when blocks are laid out differently.
# A change to the simulated CPU cost of an operation moves every figure
# read off the simulated clock.  On the load and overload level lines
# that is achieved= and slo_good=, and, through deadline shedding,
# applied= and shed=.  On a cluster sweep, the crash and heartbeat
# schedule then lands differently, so its stale=, redirects=, replays=,
# migr=, faults=, lost=, indet= and ops= counts can move with hb=/msgs=.
# The net sweep's bytes= moves when a run begins a different number of
# transactions: a lock-conflict error reply names the holder's xid in
# its text.
# Explain each such line; only mismatches= and the exit status must
# never move.
#
#   test/sweep_outcomes.sh [--full] [SOURCE_TREE] > outcomes.txt
#   test/sweep_outcomes.sh --built DIR > outcomes.txt
#
# By default each sweep runs its --quick mode; --full runs each at its
# full seed count, as its own alias (@crash, @net, ...) does.
# SOURCE_TREE defaults to the current directory.  To check a refactor,
# run it on a checkout of the parent commit and on the change, then diff
# the two outputs.  Each sweep's block ends with its exit status.
# --built runs the --quick mode of sweep executables already built in
# DIR with the seed and size variables (NAME_SEEDS, NAME_OPS, ...)
# cleared; `dune runtest` does so and diffs the output against
# test/sweep_outcomes.expected (`dune promote` accepts a moved line).
set -u
mode=--quick
if [ "${1:-}" = "--full" ]; then mode=; shift; fi
sweeps="crash scrub net load overload shard vacuum"
if [ "${1:-}" = "--built" ]; then
  bin=$2
  # The golden is the fixed quick configuration: drop the knobs that
  # would add seeds or resize a run.
  for s in $sweeps; do
    S=$(printf '%s' "$s" | tr a-z A-Z)
    unset "${S}_SEEDS" "${S}_OPS" "${S}_CLIENTS"
  done
  unset OVERLOAD_DEADLINE_MS
else
  root=${1:-.}
  bin=$root/_build/default/test
  targets=""
  for s in $sweeps; do targets="$targets ./test/${s}_sweep.exe"; done
  # shellcheck disable=SC2086
  dune build --root "$root" $targets >&2 || exit 1
fi
status=0
for s in $sweeps; do
  echo "== $s"
  # shellcheck disable=SC2086
  out=$("$bin/${s}_sweep.exe" $mode 2>/dev/null)
  rc=$?
  printf '%s\n' "$out" | sed -E 's/ (cache|ra)=[^ ]*//g'
  echo "== $s exit=$rc"
  [ "$rc" -eq 0 ] || status=1
done
exit $status
