(** Group 3 (paper §5.3): memory realization within a PE.  Rewrites the
    tensor-valued regions of [csl_stencil.apply] to reference semantics:
    memrefs, destination-passing-style [linalg] ops, in-place accumulator
    reuse, and automatic temporaries where an expression cannot be
    computed in place. *)

exception Bufferize_error of string

type options = {
  fuse_fmac : bool;
      (** emit [linalg.fmac] directly (paper §5.7); off produces the
          multiply + add shape for the standalone fuse pass / ablation *)
}

val pass : ?options:options -> unit -> Wsc_ir.Pass.t
