(** Fault-injection campaign runner: sweep fault model × rate × seed
    over a benchmark, measuring for every cell whether the run survived,
    what the recovery overhead was relative to the fault-free baseline,
    and how far the (valid part of the) result diverged from the
    sequential reference interpreter.

    Every cell is fully deterministic in its (model, rate, seed)
    coordinates — rerunning a campaign reproduces its report
    byte-for-byte (see {!Faults}).  {!Sweep} holds what this sweep shares
    with the wafer-level campaign. *)

module Faults = Wsc_faults.Faults

(** Outcome of one campaign cell. *)
type cell = {
  kind : Faults.kind;
  rate : float;
  seed : int;
  completed : bool;  (** the run finished (possibly degraded) *)
  survived : bool;
      (** completed and every valid PE matches the reference (max
          |difference| within {!Wsc_frontends.Stencil_program.tolerance}) *)
  divergence : float;
      (** max |difference| vs the reference over valid PEs (nan when the
          run did not complete) *)
  valid_pes : int;  (** PEs whose readback data is valid *)
  total_pes : int;
  elapsed_cycles : float;
  overhead_cycles : float;  (** elapsed minus the fault-free baseline *)
  recovery_cycles : float;  (** cycles spent in detection & recovery *)
  injected : int;  (** faults the schedule actually fired *)
  retries : int;
  giveups : int;
  halt_timeouts : int;
  error : string option;  (** simulator error when not [completed] *)
}

type report = {
  header : Sweep.header;  (** [baseline_cycles]: fault-free elapsed cycles *)
  cells : cell list;  (** in sweep order: kind, then rate, then seed *)
}

(** Run the sweep.  [trace] (optional) receives the events of every
    cell's simulation on one shared timeline — fault, retry and halt
    instants included — for Perfetto inspection.  [kinds] defaults to
    every fault model; cells are run in deterministic sweep order.
    @raise Invalid_argument for an unknown benchmark id. *)
val run :
  ?machine:Wsc_wse.Machine.t ->
  ?iterations:int ->
  ?kinds:Faults.kind list ->
  ?trace:Wsc_trace.Trace.sink ->
  bench:string ->
  size:Wsc_benchmarks.Benchmarks.size ->
  resilient:bool ->
  rates:float list ->
  seeds:int list ->
  unit ->
  report

(** Render the report as the fixed-width table the [wsc faults]
    subcommand prints; byte-identical across replays of the same
    campaign. *)
val to_string : report -> string

(** Machine-readable form of the report. *)
val to_json : report -> Wsc_trace.Json.t
