(** The [stencil] dialect (Open Earth Compiler / xDSL flavour): a
    [stencil.apply] runs its body for every point of the compute bounds,
    reading neighbours through constant-offset [stencil.access] ops and
    producing point values through [stencil.return]. *)

open Wsc_ir.Ir

(** Flat encoding of a bounds list ([lb0; ub0; lb1; ub1; ...]). *)
val bounds_attr : (int * int) list -> attr

val bounds_of_attr : attr -> (int * int) list

(** Create a [stencil.apply].  The result type carries the full
    (halo-extended) bounds so grids flow unchanged through a timestep
    loop's iteration arguments; [compute_bounds] restricts where the body
    runs (the interior) — points outside keep the first input's value
    (Dirichlet boundary semantics). *)
val apply :
  ?compute_bounds:(int * int) list ->
  inputs:value list ->
  result_type:typ ->
  (Wsc_ir.Builder.t -> value list -> unit) ->
  op

val compute_bounds : op -> (int * int) list

(** Access a neighbouring value at a constant offset from the current
    point; the result is the grid's element type. *)
val access : value -> offset:int list -> op

val return_ : value list -> op

(** @raise Invalid_argument when the operand is not a field. *)
val load : value -> op

val store : value -> value -> op
val is_apply : op -> bool
val apply_body : op -> block

(** Offsets of all accesses in an apply body, in order. *)
val offsets : op -> int list list
