#!/bin/sh
# List every unchecked array or string access (`unsafe_get`/`unsafe_set`)
# in the .ml files under lib, bin and bench, and exit 1 if one sits in a
# file outside the allowlist below, or if a dune file there builds with
# -unsafe.  Each allowed file checks, before its unchecked loops run,
# the range they touch:
#   lib/core/bufview.ml     `check`: each view's lowest and highest index,
#                           once per kernel call
#   lib/wse/fabric.ml       `deliver`: the chunk inside the column's c_nz
#                           elements and the receive buffer
#   lib/dialects/interp.ml  `row_op`: its callers pass row buffers of one
#                           width and a count no larger
#   lib/ir/parser.ml        every read is behind a test against the
#                           source length
# Run from the repo root.
allow="lib/core/bufview.ml lib/wse/fabric.ml lib/dialects/interp.ml lib/ir/parser.ml"
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
