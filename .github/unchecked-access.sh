#!/bin/sh
# List every unchecked array or string access (`unsafe_get`/`unsafe_set`)
# in the .ml files under lib, bin and bench, and exit 1 if one sits in a
# file outside the allowlist below, or if a dune file there builds with
# -unsafe.  Each allowed file checks, before its unchecked loops run,
# the range they touch:
#   lib/dialects/bufview.ml  `check`: each view's lowest and highest index,
#                            once per kernel call; `scaled_sum_into` (the
#                            fabric's promoted delivery): every term's
#                            range inside its column and the length inside
#                            the receive buffer, before the first write
#   lib/ir/parser.ml         every read is behind a test against the
#                            source length
# Run from the repo root.
allow="lib/dialects/bufview.ml lib/ir/parser.ml"
status=0
hits=$(grep -rn --include='*.ml' -E 'unsafe_(get|set)' lib bin bench | sort -t: -k1,1 -k2,2n)
[ -n "$hits" ] && printf '%s\n' "$hits"
for file in $(printf '%s\n' "$hits" | cut -d: -f1 | sort -u); do
  case " $allow " in
    *" $file "*) ;;
    *)
      echo "unchecked access outside the allowlist: $file"
      status=1
      ;;
  esac
done
if grep -rln --include=dune -e '-unsafe' lib bin bench; then
  echo "the dune files above build with -unsafe"
  status=1
fi
exit $status
