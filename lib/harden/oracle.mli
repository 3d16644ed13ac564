(** Differential oracle: one fuzzer program, three executions that must
    agree — the sequential reference interpreter, the mid-level
    [csl_stencil] interpretation after groups 1–3, and the fabric
    simulation of the fully lowered program — plus a
    print→parse→print fixpoint check of the IR at every pass boundary
    (hung off {!Wsc_ir.Pass.options.on_ir}). *)

(** Why a program failed the oracle.  {!failure_key} buckets these so
    the reducer can insist a candidate reproduces the *same* defect. *)
type failure =
  | Pass_crash of { pass : string; msg : string }
      (** a pass (or the verifier after it) raised *)
  | Roundtrip of { pass : string; msg : string }
      (** the IR after [pass] is not a printer/parser fixpoint *)
  | Mismatch of { tier : string; diff : float }
      (** executions disagree beyond {!tolerance}; [tier] is ["interp"]
          or ["fabric"] *)
  | Multiwafer of { wafers : string; diff : float }
      (** the multi-wafer co-simulation is not *bit-identical* to the
          single-wafer fabric ([wafers] is e.g. ["2x1"]) *)
  | Mwfault of { kind : string; wafers : string; diff : float }
      (** the co-simulation under injected wafer faults ([kind] is e.g.
          ["crash"]) recovered but is not bit-identical *)
  | Crash of { stage : string; msg : string }
      (** a non-pass stage raised: reference, interpreter, simulator *)

(** Stable bucket for "the same defect": the constructor plus the pass /
    tier / stage name, never the message or the numeric diff. *)
val failure_key : failure -> string

val failure_to_string : failure -> string

type report = {
  failure : failure option;  (** [None]: all three executions agree *)
  ir_before : string option;
      (** IR entering the failing pass (crash/round-trip failures) or
          the executed module (mismatches) *)
  ir_after : string option;  (** IR after the failing pass, when it exists *)
}

val ok : report -> bool

(** Max |difference| the executions may disagree by:
    {!Wsc_frontends.Stencil_program.tolerance}. *)
val tolerance : float

(** Run all tiers.  [inject_bug] splices a deliberately wrong pass
    (["harden-test-bug"], perturbs the first float constant) between
    pipeline groups — test-only, for proving the harness catches
    defects.  The final tier co-simulates the program on 1×1 and 2×1
    wafer grids, which must drain fields bit-identical to the
    single-wafer fabric.  [mwfaults] (default off:
    each fault kind costs one more co-simulation) adds the chaos tier —
    the 2×1 co-simulation under low-rate seeded halo-drop /
    halo-corrupt / crash faults with the resilience protocol on must
    *recover* bit-identically (degraded runs are excused: exhausting
    the retry budget is by design, not a miscompile).  [options]
    (default {!Wsc_core.Pipeline.default_options}) selects the pipeline
    configuration every tier compiles under — the autotuner's gate: a
    candidate config only ships once [check ~options] comes back clean.
    Never raises: every exception becomes a {!failure}. *)
val check :
  ?inject_bug:bool ->
  ?mwfaults:bool ->
  ?machine:Wsc_wse.Machine.t ->
  ?options:Wsc_core.Pipeline.options ->
  Wsc_frontends.Stencil_program.t ->
  report
