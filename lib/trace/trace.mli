(** Trace event sink: the observation channel between the simulator /
    pass manager and the exporters.  {!null} costs one branch per
    emission site and allocates nothing; a {!collector} accumulates
    events for {!Chrome} export and {!Aggregate} summaries. *)

type phase =
  | Span_begin
  | Span_end
  | Instant
  | Flow_begin
  | Flow_end
  | Counter

type arg = Astr of string | Aint of int | Afloat of float

type event = {
  ev_phase : phase;
  ev_name : string;
  ev_cat : string;
  ev_ts : float;
      (** track-local time: simulated cycles on fabric/host tracks,
          wall-clock microseconds on compiler tracks *)
  ev_pid : int;
  ev_tid : int;
  ev_id : int;  (** flow id joining [Flow_begin]/[Flow_end]; 0 otherwise *)
  ev_args : (string * arg) list;
}

type collector

type sink = Null | Collector of collector

(** Track-group conventions (Chrome "processes"): one track per PE under
    [fabric_pid], the pass pipeline under [compiler_pid] and
    host-runtime markers under [host_pid]. *)
val fabric_pid : int

val compiler_pid : int
val host_pid : int

(** The compile service: one track per worker domain, request phases
    (queue wait, parse, per-pass compile, emit) as spans in wall-clock
    microseconds since server start. *)
val serve_pid : int

val null : sink

(** A fresh collecting sink. *)
val collector : unit -> sink

val enabled : sink -> bool

(** Collected events in emission order (empty on [Null]). *)
val events : sink -> event list

val event_count : sink -> int

(** A fresh id for joining a flow pair; 0 on [Null]. *)
val fresh_flow_id : sink -> int

(** Label a [(pid, tid)] track / a pid group; first label wins. *)
val name_track : sink -> pid:int -> tid:int -> string -> unit

val name_process : sink -> pid:int -> string -> unit

(** Emission helpers; on [Null] they allocate nothing, so call sites
    need no enabled-guard of their own. *)
val span_begin :
  sink -> pid:int -> tid:int -> cat:string -> name:string ->
  ?args:(string * arg) list -> float -> unit

val span_end :
  sink -> pid:int -> tid:int -> cat:string -> name:string ->
  ?args:(string * arg) list -> float -> unit

val instant :
  sink -> pid:int -> tid:int -> cat:string -> name:string ->
  ?args:(string * arg) list -> float -> unit

val flow_begin :
  sink -> pid:int -> tid:int -> cat:string -> name:string -> id:int ->
  ?args:(string * arg) list -> float -> unit

val flow_end :
  sink -> pid:int -> tid:int -> cat:string -> name:string -> id:int ->
  ?args:(string * arg) list -> float -> unit

val counter :
  sink -> pid:int -> tid:int -> name:string -> values:(string * float) list ->
  float -> unit

(** [merge_into ~into sources] appends every source collector's events
    into [into], in list order, preserving each source's emission order
    and renumbering flow ids so pairs from different sources never
    collide.  Deterministic in the sources and their contents — this is
    how the compile service folds its per-worker collectors into the
    caller's sink.  Null sinks contribute nothing. *)
val merge_into : into:sink -> sink list -> unit

val track_names : sink -> ((int * int) * string) list
val process_names : sink -> (int * string) list
