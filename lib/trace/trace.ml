(** Trace event sink.

    The simulator, the host runtime and the pass manager report what they
    are doing through a {!sink}.  With {!null} every emission is a single
    branch on an immediate value — no event record is ever allocated — so
    tracing can stay compiled into the hot paths.  With a {!collector}
    events accumulate in memory and are exported by {!Chrome}, summarized
    by {!Aggregate}, or inspected directly.

    The event model mirrors the Chrome Trace Event format the exporter
    targets: duration spans (begin/end pairs on a track), instants,
    async flows (begin/end pairs joined by an id, possibly across
    tracks), and counters.  A track is a [(pid, tid)] pair; by
    convention pid {!fabric_pid} carries one track per PE (timestamps in
    simulated cycles), pid {!compiler_pid} carries the pass pipeline
    (timestamps in wall-clock microseconds), pid {!host_pid} the
    host-runtime markers (simulated cycles), and pid {!serve_pid} the
    compile service's workers (wall-clock microseconds). *)

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
  ev_ts : float;  (** track-local time: cycles on sim tracks, µs on compiler tracks *)
  ev_pid : int;
  ev_tid : int;
  ev_id : int;  (** flow id joining [Flow_begin]/[Flow_end]; 0 otherwise *)
  ev_args : (string * arg) list;
}

type collector = {
  mutable events : event list;  (** newest first *)
  mutable count : int;
  mutable next_flow_id : int;
  track_names : (int * int, string) Hashtbl.t;  (** (pid, tid) -> label *)
  process_names : (int, string) Hashtbl.t;
}

type sink = Null | Collector of collector

(** Track-group conventions (Chrome "processes"). *)
let fabric_pid = 0

let compiler_pid = 1
let host_pid = 2
let serve_pid = 4

let null : sink = Null

let collector () : sink =
  Collector
    {
      events = [];
      count = 0;
      next_flow_id = 1;
      track_names = Hashtbl.create 64;
      process_names = Hashtbl.create 4;
    }

let enabled = function Null -> false | Collector _ -> true

let events = function
  | Null -> []
  | Collector c -> List.rev c.events

let event_count = function Null -> 0 | Collector c -> c.count

let emit (s : sink) (ev : event) : unit =
  match s with
  | Null -> ()
  | Collector c ->
      c.events <- ev :: c.events;
      c.count <- c.count + 1

(** A fresh id for joining a [Flow_begin]/[Flow_end] pair; 0 on [Null]. *)
let fresh_flow_id (s : sink) : int =
  match s with
  | Null -> 0
  | Collector c ->
      let id = c.next_flow_id in
      c.next_flow_id <- id + 1;
      id

let name_track (s : sink) ~(pid : int) ~(tid : int) (name : string) : unit =
  match s with
  | Null -> ()
  | Collector c ->
      if not (Hashtbl.mem c.track_names (pid, tid)) then
        Hashtbl.replace c.track_names (pid, tid) name

let name_process (s : sink) ~(pid : int) (name : string) : unit =
  match s with
  | Null -> ()
  | Collector c ->
      if not (Hashtbl.mem c.process_names pid) then
        Hashtbl.replace c.process_names pid name

(* the emission helpers below only allocate when the sink collects;
   call sites need no [if enabled] guard of their own *)

let span_begin (s : sink) ~pid ~tid ~cat ~name ?(args = []) (ts : float) : unit =
  match s with
  | Null -> ()
  | Collector _ ->
      emit s
        {
          ev_phase = Span_begin;
          ev_name = name;
          ev_cat = cat;
          ev_ts = ts;
          ev_pid = pid;
          ev_tid = tid;
          ev_id = 0;
          ev_args = args;
        }

let span_end (s : sink) ~pid ~tid ~cat ~name ?(args = []) (ts : float) : unit =
  match s with
  | Null -> ()
  | Collector _ ->
      emit s
        {
          ev_phase = Span_end;
          ev_name = name;
          ev_cat = cat;
          ev_ts = ts;
          ev_pid = pid;
          ev_tid = tid;
          ev_id = 0;
          ev_args = args;
        }

let instant (s : sink) ~pid ~tid ~cat ~name ?(args = []) (ts : float) : unit =
  match s with
  | Null -> ()
  | Collector _ ->
      emit s
        {
          ev_phase = Instant;
          ev_name = name;
          ev_cat = cat;
          ev_ts = ts;
          ev_pid = pid;
          ev_tid = tid;
          ev_id = 0;
          ev_args = args;
        }

let flow_begin (s : sink) ~pid ~tid ~cat ~name ~id ?(args = []) (ts : float) : unit =
  match s with
  | Null -> ()
  | Collector _ ->
      emit s
        {
          ev_phase = Flow_begin;
          ev_name = name;
          ev_cat = cat;
          ev_ts = ts;
          ev_pid = pid;
          ev_tid = tid;
          ev_id = id;
          ev_args = args;
        }

let flow_end (s : sink) ~pid ~tid ~cat ~name ~id ?(args = []) (ts : float) : unit =
  match s with
  | Null -> ()
  | Collector _ ->
      emit s
        {
          ev_phase = Flow_end;
          ev_name = name;
          ev_cat = cat;
          ev_ts = ts;
          ev_pid = pid;
          ev_tid = tid;
          ev_id = id;
          ev_args = args;
        }

let counter (s : sink) ~pid ~tid ~name ~(values : (string * float) list) (ts : float) :
    unit =
  match s with
  | Null -> ()
  | Collector _ ->
      emit s
        {
          ev_phase = Counter;
          ev_name = name;
          ev_cat = "counter";
          ev_ts = ts;
          ev_pid = pid;
          ev_tid = tid;
          ev_id = 0;
          ev_args = List.map (fun (k, v) -> (k, Afloat v)) values;
        }

(** Append each source collector's events into [into], in list order.
    Emission order is preserved within each source; flow ids are
    renumbered from [into]'s counter so pairs from different sources
    never collide.  The result is deterministic in (sources, their
    contents).  Null sinks (on either side) contribute nothing. *)
let merge_into ~(into : sink) (sources : sink list) : unit =
  match into with
  | Null -> ()
  | Collector dst ->
      List.iter
        (function
          | Null -> ()
          | Collector src ->
              (* renumber [1 .. src.next_flow_id) to a fresh range *)
              let offset = dst.next_flow_id - 1 in
              dst.next_flow_id <- dst.next_flow_id + src.next_flow_id - 1;
              let remap ev =
                if ev.ev_id = 0 then ev else { ev with ev_id = ev.ev_id + offset }
              in
              (* both lists are newest-first; prepending the source block
                 keeps source events after everything already collected *)
              dst.events <- List.map remap src.events @ dst.events;
              dst.count <- dst.count + src.count;
              Hashtbl.iter
                (fun k v ->
                  if not (Hashtbl.mem dst.track_names k) then
                    Hashtbl.replace dst.track_names k v)
                src.track_names;
              Hashtbl.iter
                (fun k v ->
                  if not (Hashtbl.mem dst.process_names k) then
                    Hashtbl.replace dst.process_names k v)
                src.process_names)
        sources

let track_names = function
  | Null -> []
  | Collector c ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.track_names []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

let process_names = function
  | Null -> []
  | Collector c ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.process_names []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
