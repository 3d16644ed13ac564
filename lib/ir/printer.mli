(** Textual printer for the generic IR form (MLIR-like generic syntax).
    Output round-trips through {!Parser}, floats included: integral
    values below 1e15 print as ["%.6f"], every other float as an exact
    ["%.17g"] (with a [".0"] when that is bare digits), and infinities
    and NaN as [inf], [-inf], [nan], [-nan].  NaN payloads other than
    [Float.nan]'s are not kept. *)

val typ_to_string : Ir.typ -> string
val attr_to_string : Ir.attr -> string
val op_to_string : Ir.op -> string

(** [op_to_string] to stdout, with a newline. *)
val print_op : Ir.op -> unit
