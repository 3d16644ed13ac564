(** Varith optimization passes (paper §5.7): collapse binary add/mul
    chains into variadic ops, turn n-fold repeated additions of one value
    into a multiplication. *)

val to_varith_pass : Wsc_ir.Pass.t

val fuse_repeated_pass : Wsc_ir.Pass.t
