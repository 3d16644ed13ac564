(** Group 2 (paper §5.2): convert-stencil-to-csl-stencil.

    Replaces each [dmp.swap] + [stencil.apply] pair with one
    [csl_stencil.apply] with explicit chunked communication: the returned
    expression is decomposed into additive terms; remote-pure terms form
    the receive-chunk region (reduced chunk-by-chunk into the
    accumulator, with coefficients promoted into the communication layer
    when every remote term is coefficient × access); the rest forms the
    done region.  Terms mixing local and remote factors fall back to
    pack mode (raw columns staged, all compute in the done region).
    Chunk size is the largest divisor of the communicated z range whose
    receive buffers fit the memory budget. *)

exception Lowering_error of string

type options = {
  comm_budget_bytes : int;  (** receive-buffer budget per PE *)
  promote_coefficients : bool;  (** §5.7 coefficient promotion *)
  one_shot_reduction : bool;
      (** §5.7: reduce all directions into one staging buffer and consume
          it with a single builtin call *)
  num_chunks_override : int option;  (** ablation: force a chunk count *)
}

val default_options : options

(** Chunk counts [k] that are legal as [num_chunks_override] for a
    communicated z range of [len] elements (the divisors of [len], in
    ascending order).  This is the override-feasible space searched by
    the autotuner. *)
val feasible_chunk_counts : len:int -> int list

val lower_swaps_pass : Wsc_ir.Pass.t

val pass : ?options:options -> unit -> Wsc_ir.Pass.t
