(** Group 5 (paper §5.5): lowering to the csl dialect — linalg ops to the
    DSD arithmetic builtins, memref views to DSD definitions, and the
    wrapper module to the (layout, program) pair of csl modules. *)

exception Csl_lowering_error of string

val pass : Wsc_ir.Pass.t
