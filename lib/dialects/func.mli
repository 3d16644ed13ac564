(** The [func] dialect: functions, calls and returns. *)

open Wsc_ir.Ir

(** Define a function; [body] receives a builder and the fresh entry
    block arguments and must end by inserting a [func.return]. *)
val func :
  name:string ->
  args:typ list ->
  results:typ list ->
  (Wsc_ir.Builder.t -> value list -> unit) ->
  op

val return_ : value list -> op
val call : callee:string -> value list -> results:typ list -> op

val entry : op -> block

(** Find a function by symbol name anywhere under the root. *)
val lookup : op -> string -> op option
