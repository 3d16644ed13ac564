(** IR statistics: op histograms and the stencil-specific measurements
    (FLOPs per point, access sets) that drive the performance models. *)

(** Histogram of op names under the given root, sorted by name. *)
val op_histogram : Ir.op -> (string * int) list

(** Occurrences of the named op under the root. *)
val count : Ir.op -> string -> int

(** Total op count under the root (root included). *)
val total_ops : Ir.op -> int
