(** Fabric simulator: executes a compiled csl program on a simulated grid
    of PEs with per-PE cycle accounting, a native implementation of the
    runtime communication library (paper §5.6), and the WSE2 self-send
    switch behaviour.  See {!Host} for the data-loading front door. *)

exception Sim_error of string

type pe_stats = {
  mutable compute_cycles : float;
  mutable send_cycles : float;
  mutable wait_cycles : float;
  mutable task_activations : int;
  mutable flops : float;
      (** algorithmic FLOPs, including promoted-coefficient reductions
          performed while draining the input queue *)
  mutable elems_sent : int;
  mutable elems_drained : int;  (** wavelets received over the ramp *)
  mutable mem_bytes : float;  (** SRAM traffic of the DSD builtins *)
}

(** First field in which two per-PE stat records differ, with both
    values (e.g. ["elems_sent: 128 <> 130"]); [None] when equal.  The
    bit-identity assertions in the benchmark harness and the tests
    share this, so every mismatch names the culprit field. *)
val stats_diff : pe_stats -> pe_stats -> string option

(** [stats_diff a b = None]. *)
val stats_equal : pe_stats -> pe_stats -> bool

(** Scheduler counters. *)
module Sched : sig
  type stats = {
    mutable scans : int;  (** PE visits by the driver ([step_pe] calls) *)
    mutable probes : int;  (** finished-flag probes by quiescence sweeps *)
    mutable wakeups : int;  (** always 0 *)
    mutable parks : int;  (** always 0 *)
    mutable max_queue_depth : int;  (** always 0 *)
    mutable peak_sends_live : int;
        (** send-table high-water mark: records registered and not yet
            consumed by all their receivers *)
  }
end

type pe = {
  px : int;
  py : int;
  globals : (string, float array) Hashtbl.t;
  scalars : (string, int ref) Hashtbl.t;
  ptrs : (string, string ref) Hashtbl.t;
  mutable clock : float;  (** local cycle count *)
  mutable finished : bool;
  mutable task_queue : task_queue;
      (** pending task activations; see {!queue_task}, {!queued_tasks} *)
  mutable task_stamps : int;
  mutable waiting : waiting option;
  mutable seq : (int, int) Hashtbl.t;
  stats : pe_stats;
  mutable live_sends : int;  (** this PE's records still in the send table *)
}

and task_queue
and waiting

type t = {
  machine : Machine.t;
  program : Wsc_ir.Ir.op;
  width : int;
  height : int;
  pes : pe array array;
  sends : (int * int * int * int, send_record) Hashtbl.t;
  halo : (int * int, float array) Hashtbl.t;
      (** host-resident Dirichlet boundary columns *)
  z_halo : int;
  zfull : int;
  nz : int;
  sched : Sched.stats;
  trace : Wsc_trace.Trace.sink;
      (** where the simulator reports spans and link transfers; with
          {!Wsc_trace.Trace.null} every emission site is a dead branch
          and results are bit-identical to an untraced run *)
  faults : Wsc_faults.Faults.t;
      (** fault-injection schedule and resilience bookkeeping; with
          {!Wsc_faults.Faults.null} (the default) every injection site
          is a dead branch, exactly like the trace sink *)
  code : code;
      (** the program's functions and tasks, staged once by {!create}
          and shared read-only by every PE *)
  mutable window : bool;
      (** whether the scheduler holds PEs at {!max_live_sends_per_pe}
          live records (lifted if the fabric goes quiescent with PEs
          held, i.e. a receiver halted or finished without consuming) *)
}

and send_record
(** One registered send.  It carries a count of the receivers that
    still have to consume it and leaves [sends] when the last one has;
    receivers that halt never consume, so their records stay until the
    end of the run. *)

and comm
and code

(** Largest PE grid the simulator instantiates in one process; full
    wafers are measured via proxy-grid extrapolation. *)
val max_simulated_pes : int

(** Live send records a PE may hold before the scheduler stops
    advancing it until a receiver has consumed one.  Records are freed
    once consumed, so this caps the run-ahead of a PE over its slowest
    receiver, and the send table holds at most this many records per
    PE however many iterations run.  Holding a PE only changes when the
    host runs it, never what it computes. *)
val max_live_sends_per_pe : int

(** Largest estimated simulation size, in bytes, {!create} accepts:
    PEs x per-PE program memory, plus {!max_live_sends_per_pe} send
    records per PE. *)
val max_simulated_bytes : int

(** Largest sequential reference run checked next to a simulation, in
    estimated bytes and apply-body ops. *)
val max_reference_bytes : int

val max_reference_point_ops : int

(** Instantiate the PE grid for a program module.  [trace] (default
    {!Wsc_trace.Trace.null}) receives per-PE spans (compute, send,
    parked-on-exchange, drain) and per-link transfer flows as the
    simulation runs.  [faults] (default
    {!Wsc_faults.Faults.null}) injects the configured fault schedule
    into task dispatch and link delivery, and — when its config enables
    resilience — drives the detection & recovery protocol of the
    simulated comms layer.
    @raise Sim_error when the grid exceeds the fabric, is too large to
    simulate in-process (over {!max_simulated_pes} PEs or an estimated
    {!max_simulated_bytes}; the message names the estimate and the
    limit), or the program's per-PE memory exceeds 48 kB. *)
val create :
  ?trace:Wsc_trace.Trace.sink ->
  ?faults:Wsc_faults.Faults.t ->
  Machine.t ->
  Wsc_ir.Ir.op ->
  t

val in_grid : t -> int -> int -> bool

(** The buffer a pointer global of a PE currently targets. *)
val deref : pe -> string -> float array

(** Run one queued task of a PE — the entry with the earliest activation
    timestamp, as the hardware scheduler would dispatch it.  Returns
    false when the queue is empty.  Exposed for scheduler tests. *)
val run_tasks : t -> pe -> bool

(** Queue a task activation at cycle [at] on a PE, as [csl.activate]
    does.  Exposed for scheduler tests. *)
val queue_task : pe -> at:float -> string -> unit

(** A PE's queued activations in dispatch order: earliest activation
    first, ties in insertion order. *)
val queued_tasks : pe -> (float * string) list

(** ["polling"]: what JSON summaries report under ["driver"]. *)
val driver : string

(** Start the program on every PE and step every PE, round after round,
    until every PE has unblocked the command stream.  A round visits
    the PEs in column-major order; [visit_seed] (tests only) makes it a
    seeded permutation of them instead.  Elapsed cycles, per-PE
    statistics, drained fields and fault reports do not depend on the
    order: a PE's behaviour depends only on its own state and on the
    immutable contents of send records.  [max_rounds] defaults to the
    machine's [sim_max_rounds].
    @raise Sim_error on divergence (the first PE scan beyond
    [max_rounds] x width x height), or on deadlock with a report of
    which PEs are blocked, on which (apply_id, seq) exchange, and which
    neighbour never sent. *)
val run_to_completion : ?max_rounds:int -> ?visit_seed:int -> t -> unit

(** Scheduler counters of the last run: PE scans, quiescence probes and
    peak live send records. *)
val sched_stats : t -> Sched.stats

(** Per-PE validity mask, indexed [x][y]: false where the PE halted or
    consumed substituted / unrecoverable data (directly or transitively
    through a tainted neighbour's send).  All-true with the null
    injector. *)
val validity : t -> bool array array

(** Wall-clock of the slowest PE. *)
val elapsed_cycles : t -> float

val elapsed_seconds : t -> float

(** Per-PE cycle accounts in the shape the trace aggregation consumes. *)
val pe_summaries : t -> Wsc_trace.Aggregate.pe_summary list

(** Aggregate statistics over all PEs. *)
val total_stats : t -> pe_stats
