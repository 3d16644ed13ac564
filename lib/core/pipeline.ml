(** The complete lowering pipeline (paper Figure 3).

    Assembles the five transformation groups plus the optimization passes
    into one pass list, parameterized by the options the evaluation's
    ablations toggle. *)

type options = {
  inline_stencils : bool;  (** §5.7 stencil-inlining *)
  use_varith : bool;  (** §5.7 varith conversion + fuse-repeated-operands *)
  promote_coefficients : bool;  (** §5.7 coefficient promotion *)
  one_shot_reduction : bool;  (** §5.7 one-shot reduction off the staging buffer *)
  fuse_fmac : bool;  (** §5.7 multiply-add fusion during bufferization *)
  comm_budget_bytes : int;
  num_chunks_override : int option;
  program_name : string;
}

let default_options =
  {
    inline_stencils = true;
    use_varith = true;
    promote_coefficients = true;
    one_shot_reduction = true;
    fuse_fmac = true;
    comm_budget_bytes = To_csl_stencil.default_options.comm_budget_bytes;
    num_chunks_override = None;
    program_name = "stencil_program";
  }

(** Canonical, total rendering of the options — the configuration half
    of the compile service's content-addressed cache key.  Every field
    appears (adding a field to [options] without extending this is a
    type error via the record pattern), so two option values render
    equally iff they compile identically. *)
let options_to_string (o : options) : string =
  let {
    inline_stencils;
    use_varith;
    promote_coefficients;
    one_shot_reduction;
    fuse_fmac;
    comm_budget_bytes;
    num_chunks_override;
    program_name;
  } =
    o
  in
  Printf.sprintf
    "inline_stencils=%b;use_varith=%b;promote_coefficients=%b;\
     one_shot_reduction=%b;fuse_fmac=%b;comm_budget_bytes=%d;\
     num_chunks_override=%s;program_name=%s"
    inline_stencils use_varith promote_coefficients one_shot_reduction fuse_fmac
    comm_budget_bytes
    (match num_chunks_override with None -> "none" | Some n -> string_of_int n)
    program_name

(** Group 1 + optimizations: the architecture-independent part, after
    which the module is still executable by the sequential interpreter. *)
let frontend_passes (o : options) : Wsc_ir.Pass.t list =
  (if o.inline_stencils then [ Stencil_inlining.pass ] else [])
  @ [
      (* inlining re-materializes producer bodies per consumer access;
         canonicalization folds the duplicate constants and accesses *)
      Canonicalize.pass;
      Distribute.distribute_pass;
      Distribute.tensorize_pass;
    ]
  @
  if o.use_varith then
    [ Varith_passes.to_varith_pass; Varith_passes.fuse_repeated_pass ]
  else []

(** Groups 2–3: communication realization and bufferization.  The module
    remains interpretable (by {!Csl_stencil_interp.run_func}). *)
let middle_passes (o : options) : Wsc_ir.Pass.t list =
  [
    To_csl_stencil.lower_swaps_pass;
    To_csl_stencil.pass
      ~options:
        {
          To_csl_stencil.comm_budget_bytes = o.comm_budget_bytes;
          promote_coefficients = o.promote_coefficients;
          one_shot_reduction = o.one_shot_reduction;
          num_chunks_override = o.num_chunks_override;
        }
      ();
    Wrap.pass ~name:o.program_name ();
    Bufferize.pass ~fuse_fmac:o.fuse_fmac;
  ]

(** Groups 4–5: actor lowering and csl-ir generation. *)
let backend_passes (_o : options) : Wsc_ir.Pass.t list =
  [ To_actors.pass; To_csl.pass ]

let passes (o : options) : Wsc_ir.Pass.t list =
  frontend_passes o @ middle_passes o @ backend_passes o

(** Compile a module all the way to the pair of csl modules. *)
let compile ?(options = default_options) ?pass_options (m : Wsc_ir.Ir.op) :
    Wsc_ir.Ir.op =
  match pass_options with
  | Some po -> Wsc_ir.Pass.run_pipeline ~options:po (passes options) m
  | None -> Wsc_ir.Pass.run_pipeline (passes options) m

(** The layout and program csl modules of a compiled result. *)
let modules_of (compiled : Wsc_ir.Ir.op) : Wsc_ir.Ir.op * Wsc_ir.Ir.op =
  match Wsc_dialects.Builtin.body compiled with
  | [ layout; program ] -> (layout, program)
  | _ -> invalid_arg "Pipeline.modules_of: expected layout + program modules"
