(** Wafer-level fault campaign runner: sweep fault model × rate × seed
    over a decomposed benchmark, co-simulating each cell with
    {!Cosim.run} under a seeded {!Wsc_faults.Faults.Wafer} injector and
    checking the recovered fields bit-for-bit against the fault-free
    single-wafer reference.

    Every cell is fully deterministic in its (model, rate, seed)
    coordinates — rerunning a campaign reproduces the report
    byte-for-byte (pinned by a qcheck property at 2×1 and 2×2). *)

module Wf = Wsc_faults.Faults.Wafer

(** Outcome of one campaign cell. *)
type cell = {
  kind : Wf.kind;
  rate : float;
  seed : int;
  completed : bool;  (** the run finished (possibly degraded) *)
  survived : bool;  (** completed, bit-identical and not degraded *)
  bit_identical : bool;  (** fields match the single-wafer reference *)
  degraded : bool;  (** some wafer exhausted the retry budget *)
  divergence : float;  (** max |difference| vs the reference *)
  injected : int;  (** wafer faults the schedule actually fired *)
  detections : int;
  rollbacks : int;
  replayed_epochs : int;
  respawns : int;
  checkpoints : int;
  checkpoint_bytes : int;
  lost_wafers : int;
  tainted_wafers : int;
  device_cycles : float;
  overhead_cycles : float;  (** device cycles beyond the fault-free run *)
  error : string option;  (** failure message when not [completed] *)
}

type report = {
  header : Wsc_faults_campaign.Sweep.header;
      (** [baseline_cycles]: fault-free co-simulation device cycles *)
  wafers : int * int;
  resilience : Wf.resilience;  (** the [resilience] the sweep ran with *)
  cells : cell list;  (** in sweep order: kind, then rate, then seed *)
}

(** Recovery must be exact: in a resilient campaign, a cell that ended
    in an error, or that completed undegraded but not bit-identical to
    the single-wafer reference, is a bug. *)
val unrecovered : report -> cell -> bool

(** Run the sweep.  [engine] defaults to a fresh compile engine and is
    shared by every cell, so each slice shape compiles once per
    campaign; [resilience] sets the checkpoint cadence and retry budget
    used when [resilient] is true.
    @raise Invalid_argument for an unknown benchmark id
    @raise Decompose.Decompose_error when the benchmark cannot be
    decomposed over [wafers] *)
val run :
  ?engine:Wsc_serve.Engine.t ->
  ?machine:Wsc_wse.Machine.t ->
  ?iterations:int ->
  ?kinds:Wf.kind list ->
  ?resilience:Wf.resilience ->
  bench:string ->
  size:Wsc_benchmarks.Benchmarks.size ->
  wafers:int * int ->
  resilient:bool ->
  rates:float list ->
  seeds:int list ->
  unit ->
  report

(** Render the report as the fixed-width table [wsc multiwafer
    --faults] prints; byte-identical across replays. *)
val to_string : report -> string

(** Machine-readable form on the shared [--json] envelope. *)
val to_json : report -> Wsc_trace.Json.t
