#!/bin/sh
# Dead-export guard: list every value a lib/**/*.mli exports that no
# .ml file outside its own module and outside test/ names, and fail
# unless each one is in the allowlist (test/unused_exports.allow, one
# "Module.name reason" per line).  It fails too on an allowlist line
# that names nothing it lists (STALE): a value that is gone, or that
# now has a caller outside test/.  A value that only test/*.ml files
# (the Alcotest suites and the sweep drivers) name is listed as
# TEST-ONLY: it stays only with a reason line, such as a counter a test
# reads as its oracle.
#
# Dead-option guard, by the same rule: every optional argument ?label
# of a val in a lib/**/*.mli is listed as Module.name?label unless some
# .ml file outside its own module and outside test/ passes it (has
# ~label or ?label, and the word Module), and fails unless the
# allowlist has a "Module.name?label reason" line.  An option that no
# caller passes is a configuration that nothing runs: make it a
# constant.
#
# A file names value v of module M when, outside its comments and
# string literals, it has the word v and also the word M (M.v, open M,
# module X = Lib.M, ...): so a common word such as "write" is not taken
# for a use of Fsops.write by a file that never mentions Fsops.  The
# check is still coarse: it misses a dead value whose name a file uses
# for something else while it also uses the module, but a value it
# reports really has no caller in lib/, bin/, bench/, perfbench/ or
# examples/.
#
#   test/unused_exports.sh [ROOT]
#
# ROOT (default: the current directory) is the repository root.
set -u
root=${1:-.}
cd "$root" || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

# An OCaml source with its comments (nested), string literals ("...",
# {|...|}) and character literals blanked out.
cat > "$tmp/code.awk" <<'EOF'
{
  out = ""; n = length($0); i = 1
  while (i <= n) {
    c = substr($0, i, 1); c2 = substr($0, i, 2)
    if (instr) {
      if (c == "\\") i += 2
      else { if (c == "\"") instr = 0; i++ }
    } else if (inq) {
      if (c2 == "|}") { inq = 0; i += 2 } else i++
    } else if (c == "\"") { instr = 1; i++; out = out " " }
    else if (c2 == "(*") { depth++; i += 2; out = out " " }
    else if (depth > 0 && c2 == "*)") { depth--; i += 2 }
    else if (depth > 0) i++
    else if (c2 == "{|") { inq = 1; i += 2; out = out " " }
    else if (c2 == "'\\") { i += 3; while (i <= n && substr($0, i, 1) != "'") i++; i++ }
    else if (c == "'" && substr($0, i + 2, 1) == "'") i += 3
    else { out = out c; i++ }
  }
  print out
}
EOF

# "file word" for every identifier of every .ml file, once per file,
# and "file ~label" for every label it passes (~label or ?label).
for d in lib bin bench perfbench examples test; do
  [ -d "$d" ] && find "$d" -name '*.ml' -not -path '*/_build/*'
done | sort | while read -r f; do
  LC_ALL=C awk -f "$tmp/code.awk" "$f" > "$tmp/code"
  { grep -ow "[A-Za-z_][A-Za-z0-9_']*" "$tmp/code"
    grep -o "[~?][a-z_][A-Za-z0-9_']*" "$tmp/code" | tr '?' '~'; } |
    sort -u | sed "s|^|$f |"
done > "$tmp/words"

# "own.ml name mli" for every exported value.
find lib -name '*.mli' -not -path '*/_build/*' | sort | while read -r m; do
  sed -n "s/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$m" |
    sed "s|^|${m%.mli}.ml |; s|\$| $m|"
done > "$tmp/vals"

# "own.ml name?label mli" for every optional argument of an exported
# value, read with comments and strings blanked: a val runs from its
# keyword to the next signature item.
cat > "$tmp/opts.awk" <<'EOF'
function flush(  s, lab) {
  s = decl
  while (match(s, /[?][a-z_][A-Za-z0-9_']*[ \t]*:/)) {
    lab = substr(s, RSTART + 1, RLENGTH - 1); sub(/[ \t]*:$/, "", lab)
    print ml, name "?" lab, mli
    s = substr(s, RSTART + RLENGTH)
  }
  name = ""; decl = ""
}
/^[ \t]*(val|type|module|end|exception|include|open|external)([ \t]|$)/ { flush() }
/^[ \t]*val[ \t]/ { name = $2; sub(/:.*/, "", name) }
name != "" { decl = decl " " $0 }
END { flush() }
EOF
find lib -name '*.mli' -not -path '*/_build/*' | sort | while read -r m; do
  LC_ALL=C awk -f "$tmp/code.awk" "$m" |
    awk -v ml="${m%.mli}.ml" -v mli="$m" -f "$tmp/opts.awk"
done > "$tmp/opts"

# "UNUSED mli: M.name" when no other file names it, "TEST-ONLY mli:
# M.name" when only test/ files do; an option "name?label" counts as
# named by a file that passes ~label (or ?label) and has the word M.
awk 'FNR == NR { has[$1, $2] = 1; in_files[$2] = in_files[$2] " " $1; next }
     { m = $1; sub(/.*\//, "", m); sub(/\.ml$/, "", m)
       m = toupper(substr(m, 1, 1)) substr(m, 2)
       w = $2; if (sub(/.*[?]/, "~", w) == 0) w = $2
       n = 0; t = 0
       k = split(in_files[w], f, " ")
       for (i = 1; i <= k; i++)
         if (f[i] != $1 && has[f[i], m]) { if (f[i] ~ /^test\//) t++; else n++ }
       if (n == 0) print (t > 0 ? "TEST-ONLY" : "UNUSED") " " $3 ": " m "." $2 }' \
  "$tmp/words" "$tmp/vals" "$tmp/opts" | sort -u > "$tmp/unused"

allow=test/unused_exports.allow
status=0
while read -r kind line; do
  name=${line##*: }
  if cut -d' ' -f1 "$allow" | grep -qxF "$name"; then
    echo "allowed    $line"
  else
    printf '%-10s %s\n' "$kind" "$line"
    status=1
  fi
done < "$tmp/unused"
[ "$status" -eq 0 ] || echo "Delete each listed value, or hide it in its .mli if its own module uses it;
make each listed option (name?label) a constant; a TEST-ONLY value or
option may instead stay with a reason line in $allow."

# An allowlist line must still excuse a listed name: one whose value is
# gone, or now has a caller outside test/, is stale.
sed 's/.*: //' "$tmp/unused" > "$tmp/listed"
cut -d' ' -f1 "$allow" | grep -v '^$' > "$tmp/allowed"
stale=0
while read -r name; do
  if ! grep -qxF "$name" "$tmp/listed"; then
    echo "STALE      $allow: $name"
    stale=1
  fi
done < "$tmp/allowed"
[ "$stale" -eq 0 ] || { echo "Delete each STALE line from $allow."; status=1; }
exit $status
