(** Stencil inlining (paper §5.7): merges consecutive [stencil.apply] ops
    into a single fused kernel, replacing accesses to the producer's
    result at offset [o] by a clone of the producer's body with its
    accesses shifted by [o] (redundant computation at the halo).  A
    producer value with other uses is passed through as an extra
    result. *)

val pass : Wsc_ir.Pass.t
