(** Trace/oracle-guided autotuning of the lowering pipeline (closes the
    ROADMAP loop: predictor → measurer → correctness gate).

    For one benchmark program the tuner searches the
    {!Wsc_core.Pipeline.options} space — the five §5.7 ablation booleans,
    [num_chunks_override] over the feasible chunk counts
    ({!Wsc_core.To_csl_stencil.feasible_chunk_counts} of the program's z
    extent) and [comm_budget_bytes] steps:

    + {b Screening}: every candidate is scored by its steady-state
      cycles per iteration on the proxy grid
      ({!Wsc_perf.Wse_perf.steady_state}).  Candidates are deduplicated
      by their rendered options, so no proxy run is requested twice.
    + {b Oracle gate}: walking the screened ranking best-first, a
      candidate only becomes the winner once the full differential
      oracle ({!Wsc_harden.Oracle.check} with the candidate's options,
      multiwafer bit-identity tiers included) passes on the program.
      The walk stops at the default config, which is always screened:
      candidates ranked after it are no faster.

    The search is deterministic from [seed]: candidate enumeration uses
    pure SplitMix64 draws, and candidate evaluation fans out across a
    {!Wsc_serve.Pool} of domains into per-candidate slots — so a rerun
    with the same config replays byte-for-byte (same winners, same
    JSON).

    Winners ship through {!register} into a {!Wsc_serve.Tuned} store —
    content-addressed by the program's canonical text — which
    [wsc serve] / [wsc batch] consult per request. *)

module B = Wsc_benchmarks.Benchmarks

type config = {
  seed : int;
  screen : int;  (** max candidates entering screening (clamped ≥ 1) *)
  extent : int;  (** proxy-grid PE extent per side *)
  domains : int;  (** worker domains for candidate fan-out *)
  machine : Wsc_wse.Machine.t;
  oracle : bool;  (** run the differential-oracle gate (default on) *)
}

val default_config : config

type candidate = {
  c_options : Wsc_core.Pipeline.options;
  c_rendered : string;  (** [Pipeline.options_to_string] of the options *)
  c_predicted : (float, string) Stdlib.result;
      (** screening score: steady-state cycles/iteration, or why the
          candidate failed to compile/simulate *)
}

type result = {
  r_bench : string;
  r_machine : string;
  r_seed : int;
  r_extent : int;
  r_program_key : string;
      (** program-only canonical digest — the tuned-config store key *)
  r_space_size : int;  (** full feasible search space *)
  r_screened : int;
  r_default_cycles : float;  (** screened cycles/iter, default config *)
  r_tuned_cycles : float;  (** screened cycles/iter, winning config *)
  r_tuned_options : Wsc_core.Pipeline.options;
  r_improvement_pct : float;
  r_oracle_ok : bool option;  (** [None] when the gate was disabled *)
  r_oracle_checks : int;  (** oracle runs the gate performed *)
  r_oracle_failure : string option;
      (** first gate failure encountered, for the report *)
  r_candidates : candidate list;  (** screening order, for the report *)
}

(** Tune one benchmark.  Deterministic: same config, same result
    (including the JSON rendering). *)
val run : ?config:config -> B.descr -> result

(** The canonical source text of the program the tuner keys — the
    benchmark at the proxy grid with its default iteration count, as a
    serve client would submit it. *)
val source_for : ?extent:int -> B.descr -> string

(** Ship a winner into a tuned-config store.  Refuses ([false], store
    untouched) unless the oracle gate passed ([r_oracle_ok = Some true])
    and the tuned config is no slower than the default — tuned configs
    never ship without an oracle pass. *)
val register : Wsc_serve.Tuned.t -> result -> bool

(** The result on the shared summary envelope ([tool = "tune"]).
    Deterministic — no wall-clock stamps — so seeded replays compare
    byte-for-byte. *)
val to_json : result -> Wsc_trace.Json.t
