(** Group 3 (paper §5.3): memory realization within a PE.  Rewrites the
    tensor-valued regions of [csl_stencil.apply] to reference semantics:
    memrefs, destination-passing-style [linalg] ops, in-place accumulator
    reuse, and automatic temporaries where an expression cannot be
    computed in place. *)

exception Bufferize_error of string

(** [fuse_fmac] emits a [linalg.fmac] for each multiply-accumulate
    (paper §5.7); off, the multiply + add shape of the "no fmac fusion"
    ablation. *)
val pass : fuse_fmac:bool -> Wsc_ir.Pass.t
