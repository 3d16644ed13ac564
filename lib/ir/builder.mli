(** Sequential IR builder: collects ops in order and produces blocks and
    single-block regions, the shape every lowering pass assembles. *)

type t

val create : unit -> t

(** Append an op and return its first result.
    @raise Invalid_argument if the op has no results. *)
val insert : t -> Ir.op -> Ir.value

(** Append an op that produces no results. *)
val insert0 : t -> Ir.op -> unit

(** Append an op and return all of its results. *)
val insert_multi : t -> Ir.op -> Ir.value list

(** The collected ops, in insertion order. *)
val ops : t -> Ir.op list

(** Build a single-block region whose entry block has arguments of the
    given types; [f] receives the builder and the fresh arguments. *)
val region_with_args :
  Ir.typ list -> (t -> Ir.value list -> unit) -> Ir.region

val region_no_args : (t -> unit) -> Ir.region
