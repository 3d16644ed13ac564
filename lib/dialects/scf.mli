(** The [scf] dialect: structured control flow.  The benchmarks' top-level
    timestep loop is an [scf.for] carrying the grids as iteration
    arguments; group 4 converts it into the actor task graph. *)

open Wsc_ir.Ir

(** [for_ ~lb ~ub ~step ~iter_args body]: [body] receives a builder, the
    induction variable and the carried values, and must end with an
    [scf.yield] of the next carried values. *)
val for_ :
  lb:value ->
  ub:value ->
  step:value ->
  iter_args:value list ->
  (Wsc_ir.Builder.t -> value -> value list -> unit) ->
  op

val yield : value list -> op

val if_ :
  cond:value ->
  results:typ list ->
  (Wsc_ir.Builder.t -> unit) ->
  (Wsc_ir.Builder.t -> unit) ->
  op

val for_iter_inits : op -> value list
val for_body : op -> block
val for_iter_args : op -> value list

(** Constant trip count when the bounds are constant-defined. *)
val trip_count : op -> op -> int option
