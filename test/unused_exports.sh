#!/bin/sh
# Dead-export guard: list every value a lib/**/*.mli exports that no
# .ml file outside its own module and outside test/ names, and fail
# unless each one is in the allowlist (test/unused_exports.allow, one
# "name reason" per line).  A value that only test/*.ml files (the
# Alcotest suites and the sweep drivers) name is listed as TEST-ONLY:
# it stays only with a reason line, such as a counter a test reads as
# its oracle.  "Appears" is a whole-word match, so the check is coarse:
# it misses a dead value that shares its name with a live one, but a
# name it reports really has no caller in lib/, bin/, bench/,
# perfbench/ or examples/.
#
#   test/unused_exports.sh [ROOT]
#
# ROOT (default: the current directory) is the repository root.
set -u
root=${1:-.}
cd "$root" || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

# "file word" for every identifier of every .ml file, once per file.
for d in lib bin bench perfbench examples test; do
  [ -d "$d" ] && find "$d" -name '*.ml' -not -path '*/_build/*'
done | sort | while read -r f; do
  grep -ow "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u | sed "s|^|$f |"
done > "$tmp/words"

# "own.ml name mli" for every exported value.
find lib -name '*.mli' -not -path '*/_build/*' | sort | while read -r m; do
  sed -n "s/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$m" |
    sed "s|^|${m%.mli}.ml |; s|\$| $m|"
done > "$tmp/vals"

# "UNUSED mli: name" when no other file names it, "TEST-ONLY mli: name"
# when only test/ files do.
awk 'FNR == NR { if ($1 ~ /^test\//) t[$2]++; else n[$2]++; has[$1, $2] = 1; next }
     n[$2] - has[$1, $2] == 0 {
       print (t[$2] > 0 ? "TEST-ONLY" : "UNUSED") " " $3 ": " $2 }' \
  "$tmp/words" "$tmp/vals" | sort -u > "$tmp/unused"

allow=test/unused_exports.allow
status=0
while read -r kind line; do
  name=${line##*: }
  if grep -q "^$name " "$allow"; then
    echo "allowed    $line"
  else
    printf '%-10s %s\n' "$kind" "$line"
    status=1
  fi
done < "$tmp/unused"
[ "$status" -eq 0 ] || echo "Delete each listed value, or hide it in its .mli if its own module uses it;
a TEST-ONLY value may instead stay with a reason line in $allow."
exit $status
