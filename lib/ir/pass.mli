(** Pass manager: named transformations over a module op, composed into
    pipelines with optional per-pass verification, remarks and IR
    snapshots. *)

type t = { pass_name : string; run : Ir.op -> Ir.op }

(** [make name run] — a pass that may replace the module. *)
val make : string -> (Ir.op -> Ir.op) -> t

(** [make_inplace name f] — a pass that mutates the module in place. *)
val make_inplace : string -> (Ir.op -> unit) -> t

(** What one pass did to the module: wall-time cost and IR-size effect.
    Fed to [options.on_remark] as each pass finishes. *)
type remark = {
  r_pass : string;
  r_wall_s : float;  (** the pass's own run time, seconds *)
  r_verify_s : float;  (** post-pass verifier time (0 when not verifying) *)
  r_ops_before : int;  (** total ops in the module before the pass *)
  r_ops_after : int;
}

type options = {
  verify_each : bool;
      (** run the verifier after every pass; a failure is wrapped in
          {!Pass_failed} and its message includes the offending op's
          textual form (truncated) *)
  on_remark : (remark -> unit) option;
      (** called after each pass (and its verification) completes; op
          counting only happens when this is set *)
  on_ir : (string -> Ir.op -> unit) option;
      (** per-pass IR snapshot hook: called with the pass name and the
          module after each pass completes (and verified, when
          [verify_each]); exceptions it raises propagate unwrapped *)
}

val default_options : options

(** Raised when a pass (or the verifier after it) fails; carries the pass
    name and the original exception. *)
exception Pass_failed of string * exn

(** Run [passes] over a module in order. *)
val run_pipeline : ?options:options -> t list -> Ir.op -> Ir.op

val pass_names : t list -> string list
