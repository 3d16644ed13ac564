(** Textual printer for the generic IR form (MLIR-like generic syntax).
    Output round-trips through {!Parser}. *)

val typ_to_string : Ir.typ -> string
val pp_attr : Format.formatter -> Ir.attr -> unit
val op_to_string : Ir.op -> string
val print_op : ?out:Format.formatter -> Ir.op -> unit
