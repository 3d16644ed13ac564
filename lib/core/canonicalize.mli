(** Canonicalization: constant folding of float arithmetic (with the
    x+0 / x*1 / x*0 identities), common-subexpression elimination of
    duplicate constants and stencil accesses, and dead-code elimination —
    run to a fixpoint. *)

val pass : Wsc_ir.Pass.t
