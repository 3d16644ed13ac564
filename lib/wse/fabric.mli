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

(** What a declared name denotes.  {!create} gives each global buffer,
    global scalar, pointer global, and function or task an index of its
    kind; a PE's state is arrays indexed by them, keyed by no name. *)
type kind = Buffer | Scalar | Pointer | Func

type pe = {
  px : int;
  py : int;
  buffers : float array array;  (** the PE's memory, by [Buffer] index *)
  scalars : int array;  (** by [Scalar] index *)
  ptrs : int array;  (** by [Pointer] index: the [Buffer] index it targets *)
  mutable clock : float;  (** local cycle count *)
  mutable finished : bool;
  mutable task_queue : task_queue;
      (** pending task activations; see {!queue_task}, {!queued_tasks} *)
  mutable task_stamps : int;
  mutable waiting : waiting option;
  seq : int array;
      (** by apply id: the communicate calls made so far; on a halted
          PE, also the exchanges the resilience layer degraded past *)
  stats : pe_stats;
  mutable live_sends : int;  (** this PE's records still in the send table *)
  spare : send_record list array;
      (** by apply id: this PE's records of that apply that every
          receiver has consumed; its later sends of the apply reuse their
          arrays instead of allocating snapshots *)
  mutable dispatches : int;
      (** task dispatches so far, counted only with an injector: the
          activation index its stall and halt decisions key on *)
  mutable halted : bool;  (** permanently halted by fault injection *)
  mutable tainted : bool;
      (** consumed substituted or unrecoverable data, directly or
          through a tainted neighbour's send: its readback is invalid *)
}

and task_queue
and waiting

and send_record
(** One registered send.  It carries a count of the receivers that
    still have to consume it, and whether its sender was tainted, and
    leaves [sends] when the last receiver has consumed it, back to its
    sender's [spare] records; receivers that halt never consume, so
    their records stay until the end of the run. *)

type t = {
  machine : Machine.t;
  width : int;
  height : int;
  pes : pe array array;
  sends : (int, send_record) Hashtbl.t;
      (** live send records, each under one int that packs (apply, seq,
          x, y) *)
  halo : (int * int, float array) Hashtbl.t;
      (** host-resident Dirichlet boundary columns *)
  zfull : int;
  sched : Sched.stats;
  trace : Wsc_trace.Trace.sink;
      (** where the simulator reports spans and link transfers; with
          {!Wsc_trace.Trace.null} every emission site is a dead branch
          and results are bit-identical to an untraced run *)
  faults : Wsc_faults.Faults.t;
      (** fault-injection schedule and counters; the halt and taint
          state lives on each {!pe}, and a send's taint on its record; with
          {!Wsc_faults.Faults.null} (the default) every injection site
          is a dead branch, exactly like the trace sink *)
  code : code;
      (** the program's symbols, initial values, functions and tasks,
          staged once by {!create} and shared read-only by every PE *)
  terms : terms;  (** scratch of the promoted-coefficient delivery *)
  scalar : Wsc_dialects.Bufview.t;
      (** scratch: the stride-0 view a scalar operand of a DSD op is read
          through *)
  mutable window : bool;
      (** whether the scheduler holds PEs at {!max_live_sends_per_pe}
          live records (lifted if the fabric goes quiescent with PEs
          held, i.e. a receiver halted or finished without consuming) *)
}

and terms
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

(** Largest estimated simulation size, in bytes, {!create} accepts
    (see {!estimate_bytes}); [wsc simulate] holds its sequential
    reference to the same limit. *)
val max_simulated_bytes : int

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
    limit), the program's per-PE memory exceeds 48 kB, or the program
    does not decode: an unsupported op, a malformed attribute or an
    undeclared name (the message names the function, op and name). *)
val create :
  ?trace:Wsc_trace.Trace.sink ->
  ?faults:Wsc_faults.Faults.t ->
  Machine.t ->
  Wsc_ir.Ir.op ->
  t

(** The estimate {!create} checks against {!max_simulated_bytes}: per
    PE, every buffer at 8 bytes per element (the simulator stores host
    floats whatever the device type) plus its bookkeeping, and
    {!max_live_sends_per_pe} send records. *)
val estimate_bytes : t -> int

val in_grid : t -> int -> int -> bool

(** The index {!create} gave the [kind] named [name], for the host and
    tests: the running program looks up no name.
    @raise Sim_error when the program declares no such [kind]. *)
val lookup : t -> kind -> string -> int

(** The buffer that pointer [p] (a [Pointer] index) of a PE targets now. *)
val deref : pe -> int -> float array

(** Run one queued task of a PE — the entry with the earliest activation
    timestamp, as the hardware scheduler would dispatch it.  Returns
    false when the queue is empty or the PE is halted.  Exposed for
    scheduler tests. *)
val run_tasks : t -> pe -> bool

(** Queue an activation of task [f] (a [Func] index) at cycle [at] on a
    PE, as [csl.activate] does.  Exposed for scheduler tests. *)
val queue_task : pe -> at:float -> int -> unit

(** A PE's queued activations, by task name, in dispatch order: earliest
    activation first, ties in insertion order. *)
val queued_tasks : t -> pe -> (float * string) list

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
