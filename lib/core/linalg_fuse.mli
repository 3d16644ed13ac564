(** [linalg-fuse-multiply-add] (paper §5.7): rewrites a scalar multiply
    into a temporary followed by an accumulate into a single
    [linalg.fmac], which group 5 lowers to the [@fmacs] CSL builtin. *)

val pass : Wsc_ir.Pass.t
