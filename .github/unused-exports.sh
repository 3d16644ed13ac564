#!/bin/bash
# Print every value a lib/**/*.mli exports that no .ml file outside its
# own module names (a whole-word grep over lib, bin, bench, test,
# perfbench and examples), and exit 1 if there is one: such a value
# belongs private to its module, or deleted.  Run from the repo root.
status=0
for mli in $(find lib -name '*.mli'); do
  ml=${mli%.mli}.ml
  for v in $(grep -oE '^\s*val\s+[a-z_][A-Za-z0-9_]*' "$mli" | awk '{print $2}'); do
    if ! grep -rlw --include='*.ml' -- "$v" lib bin bench test perfbench examples \
        | grep -qv "^$ml$"; then
      echo "$mli $v"
      status=1
    fi
  done
done
exit $status
