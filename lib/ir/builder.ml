(** Sequential IR builder.

    Dialect constructors return ops; the builder collects them in order and
    finally produces a block.  This mirrors how lowering passes in the
    pipeline assemble replacement regions. *)

open Ir

type t = { mutable rev_ops : op list }

let create () = { rev_ops = [] }

(** Append [op] and return its first result. *)
let insert (b : t) (op : op) : value =
  b.rev_ops <- op :: b.rev_ops;
  match op.results with v :: _ -> v | [] -> invalid_arg "Builder.insert: op has no results"

(** Append [op] that produces no results. *)
let insert0 (b : t) (op : op) : unit = b.rev_ops <- op :: b.rev_ops

(** Append [op] and return all results. *)
let insert_multi (b : t) (op : op) : value list =
  b.rev_ops <- op :: b.rev_ops;
  op.results

let ops (b : t) : op list = List.rev b.rev_ops

(** Build a single-block region from a construction function that receives
    the fresh block arguments. *)
let region_with_args (arg_types : typ list) (f : t -> value list -> unit) : region =
  let args = List.map new_value arg_types in
  let b = create () in
  f b args;
  new_region [ new_block ~args (ops b) ]

let region_no_args (f : t -> unit) : region =
  let b = create () in
  f b;
  new_region [ new_block (ops b) ]
