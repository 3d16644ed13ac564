(** Multi-wafer co-simulation: run one stencil problem decomposed over
    a [(wx, wy)] grid of simulated wafers, one OCaml 5 domain per wafer
    on the persistent serve pool, with per-wafer programs compiled
    through the content-addressed compile engine (equal slices share
    one cache entry; concurrent compiles single-flight) and a modeled
    inter-wafer interconnect charged between BSP epochs.

    Determinism: halos move through host memory between epochs, the
    global boundary keeps the single-wafer Dirichlet values, and every
    wafer runs the same per-step code the undecomposed program would —
    so drained fields are bit-identical to the single-wafer simulation
    (asserted by [wsc multiwafer], the oracle tier and the tests).

    Resilience: pass a [Faults.Wafer] injector to exercise inter-wafer
    halo drops/corruption, wafer crashes and losses, and interconnect
    latency spikes.  With the injector's resilience protocol on, halos
    are checksum-verified each epoch, the gathered state is
    checkpointed on a configurable cadence, and any detected fault
    rolls back to the last checkpoint and re-executes — so recovered
    fields remain bit-identical to the fault-free reference.  A wafer
    that exhausts its retry budget degrades the run (it is declared
    dead and reported, with taint tracked through the halo graph)
    instead of crashing it. *)

module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp

exception Cosim_error of string

(** Worker domains ever spawned by co-simulations — exactly one per
    wafer per run; pinned by a regression test (the
    [Pool.domains_spawned] discipline). *)
val domains_spawned : unit -> int

(** What recovery did during a faulted run. *)
type recovery = {
  rollbacks : int;  (** checkpoint restores performed *)
  replayed_epochs : int;  (** epoch executions beyond the nominal count *)
  checkpoints : int;  (** snapshots taken (includes the initial one) *)
  checkpoint_bytes : int;  (** total bytes a real machine would persist *)
  respawns : int;  (** crashed/lost wafers re-provisioned (warm compiles) *)
  detections : int;  (** faults caught by checksums / liveness *)
  degraded : bool;  (** some wafer exhausted [max_retries] *)
  lost : (int * int) list;  (** wafer coordinates declared dead *)
  tainted : (int * int) list;  (** wafers whose fields are untrustworthy *)
}

type t = {
  plan : Decompose.plan;
  grids : I.grid list;  (** gathered global state, [Host.read_all] shape *)
  epochs : int;
  device_cycles : float;  (** Σ over epochs of the slowest wafer's cycles *)
  interconnect_s : float;  (** modeled inter-wafer exchange time *)
  exchange_bytes : int;  (** bytes a real interconnect would have moved *)
  cache : Wsc_serve.Cache.stats;  (** engine cache counters after compiling *)
  distinct_programs : int;  (** distinct per-wafer slice shapes *)
  wall_s : float;
  recovery : recovery option;  (** [None] unless a fault injector ran *)
}

(** {!Wsc_frontends.Stencil_program.init_grids}. *)
val init_grids : P.t -> I.grid list

(** Bit-exact equality: same shape, same bits in every float. *)
val grids_bit_identical : I.grid list -> I.grid list -> bool

(** The undecomposed single-wafer simulation of [p] — the baseline the
    co-simulation must match bit for bit. *)
val reference :
  ?machine:Wsc_wse.Machine.t ->
  ?options:Wsc_core.Pipeline.options ->
  P.t ->
  I.grid list

(** Run the co-simulation.  [engine] defaults to a fresh compile
    engine (pass a shared one to reuse its cache across runs).  Each
    wafer runs on the event-driven fabric driver.  [faults] defaults to
    [Faults.Wafer.null]: the fault-free path takes exactly one extra
    branch per decision point and stays bit-identical.
    @raise Decompose.Decompose_error when [p] cannot be decomposed
    @raise Cosim_error when a wafer fails to compile, or when a wafer
    crashes / is lost while the injector's resilience protocol is off
    (the pool and the engine cache are still cleanly released) *)
val run :
  ?engine:Wsc_serve.Engine.t ->
  ?interconnect:Interconnect.t ->
  ?machine:Wsc_wse.Machine.t ->
  ?faults:Wsc_faults.Faults.Wafer.t ->
  wafers:int * int ->
  P.t ->
  t
