(** The complete lowering pipeline (paper Figure 3): the five
    transformation groups plus the §5.7 optimization passes, assembled
    into one pass list with options for everything the evaluation
    ablates. *)

type options = {
  inline_stencils : bool;  (** §5.7 stencil-inlining *)
  use_varith : bool;  (** §5.7 varith conversion + fuse-repeated-operands *)
  promote_coefficients : bool;  (** §5.7 coefficient promotion *)
  one_shot_reduction : bool;  (** §5.7 one-shot reduction off the staging buffer *)
  fuse_fmac : bool;  (** §5.7 multiply-add fusion during bufferization *)
  fuse_fmac_pass : bool;
      (** when direct fusion is off, run the standalone
          linalg-fuse-multiply-add pass instead; both off ablates the
          optimization entirely *)
  comm_budget_bytes : int;  (** per-PE receive-buffer budget for chunking *)
  num_chunks_override : int option;  (** ablation: force a chunk count *)
  program_name : string;
}

val default_options : options

(** Canonical, total rendering — the configuration half of the compile
    service's cache key.  Covers every field (enforced by a record
    pattern), so equal strings mean identical compilation behavior. *)
val options_to_string : options -> string

(** Group 1 + optimizations (module stays interpretable afterwards). *)
val frontend_passes : options -> Wsc_ir.Pass.t list

(** Groups 2–3: communication realization, wrapping and bufferization
    (still interpretable by {!Csl_stencil_interp.run_func}). *)
val middle_passes : options -> Wsc_ir.Pass.t list

(** Groups 4–5: actor lowering and csl-ir generation. *)
val backend_passes : options -> Wsc_ir.Pass.t list

val passes : options -> Wsc_ir.Pass.t list

(** Compile a stencil-dialect module to the pair of csl modules (inside a
    builtin.module). *)
val compile :
  ?options:options -> ?pass_options:Wsc_ir.Pass.options -> Wsc_ir.Ir.op ->
  Wsc_ir.Ir.op

(** The (layout, program) csl modules of a compiled result. *)
val modules_of : Wsc_ir.Ir.op -> Wsc_ir.Ir.op * Wsc_ir.Ir.op
