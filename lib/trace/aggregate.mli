(** Aggregation over a traced run: per-PE busy/blocked breakdowns, the
    hottest PEs and link-utilization histograms. *)

(** One PE's cycle account, as published by the fabric simulator. *)
type pe_summary = {
  ps_x : int;
  ps_y : int;
  ps_compute : float;  (** busy: DSD builtins, queue drain, callbacks *)
  ps_send : float;  (** fabric injection *)
  ps_wait : float;  (** blocked on neighbour exchanges *)
  ps_clock : float;  (** final local clock *)
  ps_tasks : int;
}

type breakdown = {
  bd_pes : int;
  bd_busy_pct : float;  (** mean busy fraction over all PEs *)
  bd_send_pct : float;
  bd_blocked_pct : float;
  bd_max_clock : float;
  bd_min_clock : float;
}

val breakdown : pe_summary list -> breakdown

(** Grid-wide averages followed by the [top] hottest PEs (default 8). *)
val busy_blocked_table : ?top:int -> pe_summary list -> string

(** One fabric link reconstructed from the transfer flow pairs. *)
type link = {
  ln_src : int;  (** sender tid *)
  ln_dst : int;  (** receiver tid *)
  ln_dir : string;
  ln_transfers : int;
  ln_elems : int;
  ln_first_ts : float;
  ln_last_ts : float;
}

(** Per-link traffic from the collected [cat = "link"] flow events. *)
val links : Trace.event list -> link list

(** Occupied cycles over the link's active span, in [0, 1]. *)
val utilization : link -> float

val link_table : Trace.event list -> string

(** Summary of the [cat = "fault"] events a fault-injection run emitted:
    one row per event name (drop, corrupt, stall, halt, backpressure,
    retry, giveup, halt-timeout) with count, distinct affected PEs and
    the first/last cycle observed. *)
val fault_table : Trace.event list -> string
