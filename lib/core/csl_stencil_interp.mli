(** Reference semantics for [csl_stencil.apply] and
    [csl_stencil.prefetch], staged into the sequential interpreter: per
    2-D point, the receive-chunk region runs once per chunk with views of
    the neighbours' column slices (pre-scaled and distance-reduced when
    coefficients are promoted), then the done region combines the
    accumulator with local data.  Handles both the tensor form (post
    group 2) and the bufferized form (post group 3). *)

(** Run function [name] of a module that may hold csl_stencil ops. *)
val run_func :
  Wsc_ir.Ir.op ->
  name:string ->
  Wsc_dialects.Interp.rtvalue list ->
  Wsc_dialects.Interp.rtvalue list

(** Make {!stage} the default stager of {!Wsc_dialects.Interp.run_func},
    for callers that do not pass [~ext]. *)
val register : unit -> unit
