#!/bin/sh
# Print every value a lib/**/*.mli exports that no .ml file outside its
# own module uses, and exit 1 if there is one: such a value belongs
# private to its module, or deleted.  The .ml files searched are those
# under lib, bin, bench, test, perfbench and examples.  A use is the
# name qualified by the module or by an alias of it (`M.name`, or
# `A.name` after `module A = Lib.M`), or the bare name in a file that
# opens the module or an alias of it.  Run from the repo root.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# "FILE Module.name" for every use in every .ml file
find lib bin bench test perfbench examples -name '*.ml' | sort | xargs awk '
  function last(path,   n, parts) { n = split(path, parts, /\./); return parts[n] }
  function resolve(m) { return (m in alias) ? alias[m] : m }
  function flush(   m, w) { for (m in opened) for (w in words) print file, m "." w }
  FNR == 1 {
    if (file != "") flush()
    file = FILENAME
    split("", alias); split("", opened); split("", words)
  }
  {
    if (match($0, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*/)) {
      def = substr($0, RSTART, RLENGTH)
      sub(/^module[ \t]+/, "", def)
      name = def; sub(/[ \t]*=.*/, "", name)
      target = def; sub(/^[^=]*=[ \t]*/, "", target)
      target = resolve(last(target))
      alias[name] = target
    }
    s = $0
    while (match(s, /open!?[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
      m = substr(s, RSTART, RLENGTH); sub(/^open!?[ \t]+/, "", m)
      opened[resolve(last(m))] = 1
      s = substr(s, RSTART + RLENGTH)
    }
    s = $0
    while (match(s, /[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*/)) {
      q = substr(s, RSTART, RLENGTH)
      dot = index(q, ".")
      print file, resolve(substr(q, 1, dot - 1)) "." substr(q, dot + 1)
      s = substr(s, RSTART + RLENGTH)
    }
    n = split($0, ws, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (ws[i] != "") words[ws[i]] = 1
  }
  END { if (file != "") flush() }' | sort -u > "$tmp/uses"
# "FILE.mli name" for every exported value, and "FILE.mli Sub" for
# every submodule signature, whose values are used as `Sub.name`
find lib -name '*.mli' | sort | xargs grep -oE '^\s*val\s+[a-z_][A-Za-z0-9_]*' \
  | sed -E 's/:\s*val\s+/ /' > "$tmp/vals"
find lib -name '*.mli' | sort | xargs grep -oE '^\s*module\s+[A-Z][A-Za-z0-9_]*\s*:\s*sig' \
  | sed -E 's/:\s*module\s+/ /; s/\s*:\s*sig$//' > "$tmp/subs"
awk '
  FILENAME == ARGV[1] { users[$2] = users[$2] " " $1 " "; next }
  FILENAME == ARGV[2] { subs[$1] = subs[$1] " " $2; next }
  {
    ml = $1; sub(/\.mli$/, ".ml", ml)
    b = $1; sub(/.*\//, "", b); sub(/\.mli$/, "", b)
    n = split(toupper(substr(b, 1, 1)) substr(b, 2) subs[$1], mods, " ")
    u = ""
    for (i = 1; i <= n; i++) u = u users[mods[i] "." $2]
    gsub(" " ml " ", "", u)
    if (u !~ /[^ ]/) { print $1, $2; bad = 1 }
  }
  END { exit bad }' "$tmp/uses" "$tmp/subs" "$tmp/vals"
