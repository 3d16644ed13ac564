(** The [arith] dialect: constants and elementwise arithmetic.  Float ops
    are rank-polymorphic over scalars and tensors (the elementwise trait
    the tensorize pass relies on, paper §5.1). *)

open Wsc_ir.Ir

val constant_f : ?typ:typ -> float -> op
val constant_i : ?typ:typ -> int -> op
val constant_index : int -> op

(** Splat constant over a tensor shape (tensorized coefficients). *)
val constant_dense : shape:int list -> float -> op

val is_constant : op -> bool

(** Numeric value of a constant op, int constants included. *)
val constant_value : op -> float option

val addf : value -> value -> op
val subf : value -> value -> op
val mulf : value -> value -> op
val divf : value -> value -> op
val addi : value -> value -> op

(** [pred] is one of slt, sle, sgt, sge, eq, ne. *)
val cmpi : pred:string -> value -> value -> op
