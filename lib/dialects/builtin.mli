(** The [builtin] dialect: the top-level module container. *)

open Wsc_ir.Ir

(** A [builtin.module] holding [ops] in a single block. *)
val module_op : op list -> op

val body : op -> op list
val set_body : op -> op list -> unit
