#!/bin/sh
# Print the outcome lines of every differential sweep, with the
# buffer-cache counters (cache=, ra=) stripped: those move with any
# change to I/O order, while every other field is a same-seed invariant
# of a behaviour-preserving change.
#
#   test/sweep_outcomes.sh [--full] [SOURCE_TREE] > outcomes.txt
#
# By default each sweep runs its --quick mode; --full runs each at its
# full seed count, as its own alias (@crash, @net, ...) does.
# SOURCE_TREE defaults to the current directory.  To check a refactor,
# run it on a checkout of the parent commit and on the change, then diff
# the two outputs.  Each sweep's block ends with its exit status.
set -u
mode=--quick
if [ "${1:-}" = "--full" ]; then mode=; shift; fi
root=${1:-.}
sweeps="crash scrub net load overload creategap shard vacuum"
targets=""
for s in $sweeps; do targets="$targets ./test/${s}_sweep.exe"; done
# shellcheck disable=SC2086
dune build --root "$root" $targets >&2 || exit 1
status=0
for s in $sweeps; do
  echo "== $s"
  # shellcheck disable=SC2086
  out=$("$root/_build/default/test/${s}_sweep.exe" $mode 2>/dev/null)
  rc=$?
  printf '%s\n' "$out" | sed -E 's/ (cache|ra)=[^ ]*//g'
  echo "== $s exit=$rc"
  [ "$rc" -eq 0 ] || status=1
done
exit $status
