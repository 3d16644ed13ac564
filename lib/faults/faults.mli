(** Fault injection for the WSE fabric simulator: a seeded, fully
    deterministic source of transient link faults (wavelet drop /
    corruption), PE stalls, permanent PE halts and router backpressure
    spikes, plus the opt-in resilience-protocol parameters the simulated
    communication layer uses to detect and recover from them.

    Mirrors {!Wsc_trace.Trace.sink}: the {!null} injector costs one
    branch per injection site and keeps every fault-free run
    bit-identical to an uninstrumented simulator.

    Determinism: every decision is a pure hash of the campaign seed and
    the site's own coordinates (PE position, exchange id, chunk index,
    retransmission attempt, ...) — there is no mutable PRNG stream — so
    decisions are independent of the order in which the driver visits
    PEs.  A campaign therefore replays bit-identically from its seed
    whatever that order.

    An injector holds only its config and its counters ({!stats}).  The
    state faults leave in a run lives where it would on the wafer: each
    simulated PE carries its dispatch count and its halted and tainted
    flags, and a halted PE's exchange counter also moves past the
    exchanges the resilience layer skipped; each send record carries whether its sender was tainted
    (see [Wsc_wse.Fabric]).  An injector belongs to one simulation and
    is not shared between domains, so its counters take no lock; the
    same holds for a {!Wafer} injector, whose one user is a
    co-simulation stepping its wafers one at a time. *)

(** Which fault mechanism a decision or an event belongs to. *)
type kind =
  | Drop  (** transient loss of one chunk's wavelets on one link *)
  | Corrupt  (** transient payload corruption of one chunk on one link *)
  | Stall  (** a PE freezes for a fixed number of cycles *)
  | Halt  (** a PE stops executing permanently *)
  | Backpressure  (** a router delays one chunk's delivery *)

val kind_to_string : kind -> string
val all_kinds : kind list

(** Detection & recovery parameters of the simulated comms protocol:
    per-wavelet sequence numbers and checksums let the receiver detect
    corruption, a receiver timeout detects loss, and each retransmission
    attempt backs off exponentially (bounded by [max_backoff_cycles]) up
    to [max_retries] before the receiver gives up and marks its data
    invalid. *)
type resilience = {
  timeout_cycles : float;  (** first receiver timeout, in cycles *)
  backoff_factor : float;  (** timeout multiplier per failed attempt *)
  max_backoff_cycles : float;  (** backoff cap *)
  max_retries : int;  (** retransmissions before giving up *)
  halt_timeout_cycles : float;
      (** how long a receiver waits on a silent neighbour before
          declaring it halted and degrading gracefully *)
}

val default_resilience : resilience

type config = {
  seed : int;
  drop_rate : float;  (** per chunk-column delivery, per attempt *)
  corrupt_rate : float;  (** per chunk-column delivery, per attempt *)
  stall_rate : float;  (** per task dispatch *)
  stall_cycles : float;
  halt_rate : float;  (** per task dispatch *)
  backpressure_rate : float;  (** per chunk-column delivery *)
  backpressure_cycles : float;
  resilience : resilience option;  (** [None]: faults land undetected *)
}

(** All rates zero; seed 0; no resilience. *)
val default_config : config

(** [config_for kind ~rate ~seed ~resilience] — a campaign cell: only
    [kind]'s rate is set to [rate], everything else is fault-free. *)
val config_for : kind -> rate:float -> seed:int -> resilient:bool -> config

type stats = {
  mutable drops : int;
  mutable corrupts : int;
  mutable stalls : int;
  mutable halts : int;
  mutable backpressures : int;
  mutable retries : int;  (** retransmissions triggered by the protocol *)
  mutable giveups : int;  (** deliveries abandoned after [max_retries] *)
  mutable halt_timeouts : int;  (** exchanges degraded past a halted PE *)
  mutable recovery_cycles : float;
      (** total cycles spent on timeouts, retransmissions and halt
          detection, summed over all PEs *)
}

type injector

type t = Null | Injector of injector

val null : t

(** A fresh injector for one simulation run.  Two injectors created from
    equal configs make identical decisions. *)
val create : config -> t

val enabled : t -> bool
val config : t -> config  (** @raise Invalid_argument on [Null] *)

val stats : t -> stats  (** zeroes on [Null] *)

(** {1 Decisions (pure in seed and site coordinates)} *)

(** Uniform draw in [0, 1) for an explicit site key; exposed for tests. *)
val uniform : seed:int -> site:int -> keys:int list -> float

(** Should this task dispatch stall?  Site: the PE and [activation], its
    own count of task dispatches.  Per-PE task order is deterministic,
    so that count, and hence every decision, is the same in every PE
    visit order. *)
val stall_here : t -> x:int -> y:int -> activation:int -> bool

(** Should this task dispatch halt the PE permanently? *)
val halt_here : t -> x:int -> y:int -> activation:int -> bool

(** Should this chunk-column delivery suffer a backpressure spike? *)
val backpressure_here :
  t -> apply:int -> seq:int -> chunk:int -> input:int ->
  sx:int -> sy:int -> dx:int -> dy:int -> bool

(** Is attempt [attempt] of this chunk-column delivery dropped on the
    link? (attempt 0 is the original transmission) *)
val drop_here :
  t -> apply:int -> seq:int -> chunk:int -> input:int ->
  sx:int -> sy:int -> dx:int -> dy:int -> attempt:int -> bool

(** Is attempt [attempt] of this chunk-column delivery corrupted? *)
val corrupt_here :
  t -> apply:int -> seq:int -> chunk:int -> input:int ->
  sx:int -> sy:int -> dx:int -> dy:int -> attempt:int -> bool

(** Deterministic payload perturbation for a corrupted delivery:
    the element index to damage (within [len]) and the additive noise. *)
val corruption :
  t -> apply:int -> seq:int -> chunk:int -> input:int ->
  sx:int -> sy:int -> dx:int -> dy:int -> attempt:int -> len:int ->
  int * float

(** Receiver timeout before retransmission [attempt] (1-based), with
    exponential backoff bounded by [max_backoff_cycles]. *)
val backoff : resilience -> attempt:int -> float

(** {1 Protocol checksum} *)

(** Per-wavelet checksum of a payload slice, as the simulated protocol
    computes it on both ends of a link. *)
val checksum : float array -> off:int -> len:int -> int64

(** {1 Wafer-granularity sites}

    The multi-wafer co-simulator's fault models, one level up from the
    intra-wafer sites above: inter-wafer halo exchanges dropped or
    corrupted on the interconnect, whole-wafer transient crashes and
    permanent losses, and interconnect latency spikes.  Same
    discipline — a two-constructor injector whose [Null] arm costs one
    branch per site, and every decision a pure SplitMix64 hash of
    [(seed, epoch, wafer, direction, attempt)] — so a fault-free
    multiwafer run stays bit-identical to an uninstrumented one and a
    campaign replays byte-for-byte from its seed. *)
module Wafer : sig
  type kind =
    | Halo_drop  (** an inter-wafer halo transfer never arrives *)
    | Halo_corrupt  (** one element of a halo transfer is damaged *)
    | Crash  (** a wafer dies mid-epoch; a respawn can recover it *)
    | Loss  (** a wafer dies permanently: every retry fails *)
    | Spike  (** an interconnect latency spike (charges time only) *)

  val kind_to_string : kind -> string
  val all_kinds : kind list

  (** Recovery parameters of the co-simulator's checkpoint/restart
      protocol: how often the gathered global state is snapshotted, and
      how many times one epoch may be re-executed before the offending
      wafer is declared dead and the run degrades gracefully. *)
  type resilience = { checkpoint_cadence : int; max_retries : int }

  val default_resilience : resilience

  type config = {
    seed : int;
    halo_drop_rate : float;  (** per (epoch, wafer, direction, attempt) *)
    halo_corrupt_rate : float;  (** per (epoch, wafer, direction, attempt) *)
    crash_rate : float;  (** per (epoch, wafer, attempt) *)
    loss_rate : float;  (** per (epoch, wafer) — sticky once fired *)
    spike_rate : float;  (** per (epoch, wafer) *)
    spike_factor : float;  (** exchange-time multiplier on a spike *)
    resilience : resilience option;  (** [None]: faults land undetected *)
  }

  (** All rates zero; seed 0; no resilience. *)
  val default_config : config

  (** One campaign cell: only [kind]'s rate is [rate]. *)
  val config_for : kind -> rate:float -> seed:int -> resilient:bool -> config

  type stats = {
    mutable halo_drops : int;
    mutable halo_corrupts : int;
    mutable crashes : int;
    mutable losses : int;  (** lost-wafer decisions consulted, not wafers *)
    mutable spikes : int;
    mutable detected : int;  (** checksum / liveness detections *)
  }

  type injector
  type t = Null | Injector of injector

  val null : t

  (** Two injectors created from equal configs make identical
      decisions. *)
  val create : config -> t

  val enabled : t -> bool

  (** @raise Invalid_argument on [Null] *)
  val config : t -> config

  (** Zeroes on [Null]. *)
  val stats : t -> stats

  (** Does wafer [wafer] crash during execution [attempt] of [epoch]?
      Transient: the next attempt draws a fresh decision. *)
  val crash_here : t -> epoch:int -> wafer:int -> attempt:int -> bool

  (** Is wafer [wafer] permanently lost by [epoch]?  No attempt key, and
      sticky: once the decision fires at some epoch [e] it holds for
      every [epoch >= e] and every replay. *)
  val lost_here : t -> epoch:int -> wafer:int -> bool

  (** Does the halo arriving at [wafer] from direction [dir] get dropped
      (resp. corrupted) during execution [attempt] of [epoch]? *)
  val drop_halo : t -> epoch:int -> wafer:int -> dir:int -> attempt:int -> bool

  val corrupt_halo :
    t -> epoch:int -> wafer:int -> dir:int -> attempt:int -> bool

  (** Deterministic damage for a corrupted halo: the element index to
      perturb (within [len]) and the additive noise. *)
  val halo_corruption :
    t -> epoch:int -> wafer:int -> dir:int -> attempt:int -> len:int ->
    int * float

  (** Does wafer [wafer]'s exchange suffer a latency spike this epoch? *)
  val spike_here : t -> epoch:int -> wafer:int -> bool

  (** Count one checksum / liveness detection (thread-safe). *)
  val record_detection : t -> unit
end
