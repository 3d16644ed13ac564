(** Aggregation over a run's observations: where did the cycles go?

    Consumes the per-PE cycle accounting the simulator publishes as
    {!pe_summary} rows plus the collected link-transfer flow events, and
    produces the evaluation-style breakdowns: busy/blocked fractions per
    PE, the hottest PEs and a link-utilization histogram. *)

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

let frac part whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

(** PEs ordered hottest-first (largest final clock, then most compute). *)
let hottest (n : int) (pes : pe_summary list) : pe_summary list =
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare b.ps_clock a.ps_clock with
        | 0 -> Float.compare b.ps_compute a.ps_compute
        | c -> c)
      pes
  in
  List.filteri (fun i _ -> i < n) sorted

(** Grid-wide means of the busy/send/blocked fractions. *)
type breakdown = {
  bd_pes : int;
  bd_busy_pct : float;
  bd_send_pct : float;
  bd_blocked_pct : float;
  bd_max_clock : float;
  bd_min_clock : float;
}

let breakdown (pes : pe_summary list) : breakdown =
  let n = List.length pes in
  let fn = float_of_int (max 1 n) in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 pes in
  {
    bd_pes = n;
    bd_busy_pct = sum (fun p -> frac p.ps_compute p.ps_clock) /. fn;
    bd_send_pct = sum (fun p -> frac p.ps_send p.ps_clock) /. fn;
    bd_blocked_pct = sum (fun p -> frac p.ps_wait p.ps_clock) /. fn;
    bd_max_clock = List.fold_left (fun acc p -> Float.max acc p.ps_clock) 0.0 pes;
    bd_min_clock =
      List.fold_left (fun acc p -> Float.min acc p.ps_clock) infinity pes;
  }

(** The per-PE busy/blocked table: grid-wide averages followed by the
    [top] hottest PEs. *)
let busy_blocked_table ?(top = 8) (pes : pe_summary list) : string =
  let b = Buffer.create 512 in
  let bd = breakdown pes in
  Buffer.add_string b
    (Printf.sprintf
       "per-PE cycle breakdown (%d PEs): busy %.1f%%  send %.1f%%  blocked \
        %.1f%%  (means; slowest clock %.0f, fastest %.0f)\n"
       bd.bd_pes bd.bd_busy_pct bd.bd_send_pct bd.bd_blocked_pct bd.bd_max_clock
       (if bd.bd_min_clock = infinity then 0.0 else bd.bd_min_clock));
  Buffer.add_string b
    (Printf.sprintf "%-10s %10s %8s %8s %8s %7s\n" "hottest" "clock" "busy%"
       "send%" "blkd%" "tasks");
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "PE(%2d,%2d)  %10.0f %7.1f%% %7.1f%% %7.1f%% %7d\n"
           p.ps_x p.ps_y p.ps_clock
           (frac p.ps_compute p.ps_clock)
           (frac p.ps_send p.ps_clock)
           (frac p.ps_wait p.ps_clock)
           p.ps_tasks))
    (hottest top pes);
  Buffer.contents b

(** {1 Link utilization} *)

(** One fabric link, reconstructed from the transfer flow pairs: the
    (sender track, receiver track) edge with its traffic. *)
type link = {
  ln_src : int;  (** sender tid *)
  ln_dst : int;  (** receiver tid *)
  ln_dir : string;
  ln_transfers : int;
  ln_elems : int;
  ln_first_ts : float;
  ln_last_ts : float;
}

let int_arg (args : (string * Trace.arg) list) (k : string) : int =
  match List.assoc_opt k args with
  | Some (Trace.Aint i) -> i
  | Some (Trace.Afloat f) -> int_of_float f
  | _ -> 0

let str_arg (args : (string * Trace.arg) list) (k : string) : string =
  match List.assoc_opt k args with Some (Trace.Astr s) -> s | _ -> ""

(** Fold the link flow events (cat ["link"]) into per-link traffic. *)
let links (events : Trace.event list) : link list =
  (* flow id -> begin event, waiting for its end *)
  let pending : (int, Trace.event) Hashtbl.t = Hashtbl.create 256 in
  let table : (int * int, link) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.ev_cat = "link" then
        match ev.Trace.ev_phase with
        | Trace.Flow_begin -> Hashtbl.replace pending ev.Trace.ev_id ev
        | Trace.Flow_end -> (
            match Hashtbl.find_opt pending ev.Trace.ev_id with
            | None -> ()
            | Some b ->
                Hashtbl.remove pending ev.Trace.ev_id;
                let key = (b.Trace.ev_tid, ev.Trace.ev_tid) in
                let elems = int_arg b.Trace.ev_args "elems" in
                let cur =
                  match Hashtbl.find_opt table key with
                  | Some l -> l
                  | None ->
                      {
                        ln_src = b.Trace.ev_tid;
                        ln_dst = ev.Trace.ev_tid;
                        ln_dir = str_arg b.Trace.ev_args "dir";
                        ln_transfers = 0;
                        ln_elems = 0;
                        ln_first_ts = b.Trace.ev_ts;
                        ln_last_ts = ev.Trace.ev_ts;
                      }
                in
                Hashtbl.replace table key
                  {
                    cur with
                    ln_transfers = cur.ln_transfers + 1;
                    ln_elems = cur.ln_elems + elems;
                    ln_first_ts = Float.min cur.ln_first_ts b.Trace.ev_ts;
                    ln_last_ts = Float.max cur.ln_last_ts ev.Trace.ev_ts;
                  })
        | _ -> ())
    events;
  Hashtbl.fold (fun _ l acc -> l :: acc) table []
  |> List.sort (fun a b -> compare (a.ln_src, a.ln_dst) (b.ln_src, b.ln_dst))

(** A link's utilization over the traced window: occupied cycles (one
    wavelet per cycle) over the active span. *)
let utilization (l : link) : float =
  let span = l.ln_last_ts -. l.ln_first_ts in
  if span <= 0.0 then 1.0 else Float.min 1.0 (float_of_int l.ln_elems /. span)

(** Histogram of link utilization in [buckets] equal bins over [0,100%],
    as (bucket label, link count, total elems) rows. *)
let link_histogram ?(buckets = 5) (events : Trace.event list) :
    (string * int * int) list =
  let ls = links events in
  let width = 1.0 /. float_of_int buckets in
  List.init buckets (fun i ->
      let lo = float_of_int i *. width in
      let hi = lo +. width in
      let inside =
        List.filter
          (fun l ->
            let u = utilization l in
            u >= lo && (u < hi || (i = buckets - 1 && u <= hi)))
          ls
      in
      ( Printf.sprintf "%3.0f-%3.0f%%" (100.0 *. lo) (100.0 *. hi),
        List.length inside,
        List.fold_left (fun acc l -> acc + l.ln_elems) 0 inside ))

let link_table (events : Trace.event list) : string =
  let ls = links events in
  let b = Buffer.create 256 in
  let total_elems = List.fold_left (fun acc l -> acc + l.ln_elems) 0 ls in
  Buffer.add_string b
    (Printf.sprintf
       "link utilization (%d active links, %d elems transferred):\n"
       (List.length ls) total_elems);
  List.iter
    (fun (label, n, elems) ->
      Buffer.add_string b
        (Printf.sprintf "  %s %5d link(s) %10d elems  %s\n" label n elems
           (String.make (min 60 n) '#')))
    (link_histogram events);
  Buffer.contents b

(** {1 Fault events} *)

(** Aggregate the [cat = "fault"] events a fault-injection run emitted:
    one row per event name (drop, corrupt, stall, halt, backpressure,
    retry, giveup, halt-timeout), with count, affected-PE count and the
    active time span. *)
let fault_table (events : Trace.event list) : string =
  let table : (string, int * (int, unit) Hashtbl.t * float * float) Hashtbl.t =
    Hashtbl.create 8
  in
  let total = ref 0 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.ev_cat = "fault" then begin
        incr total;
        let count, pes, first, last =
          match Hashtbl.find_opt table ev.Trace.ev_name with
          | Some r -> r
          | None -> (0, Hashtbl.create 8, ev.Trace.ev_ts, ev.Trace.ev_ts)
        in
        Hashtbl.replace pes ev.Trace.ev_tid ();
        Hashtbl.replace table ev.Trace.ev_name
          ( count + 1,
            pes,
            Float.min first ev.Trace.ev_ts,
            Float.max last ev.Trace.ev_ts )
      end)
    events;
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "fault events (%d total):\n" !total);
  if !total = 0 then Buffer.add_string b "  (none)\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf "  %-14s %8s %8s %12s %12s\n" "event" "count" "PEs"
         "first cycle" "last cycle");
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (name, (count, pes, first, last)) ->
           Buffer.add_string b
             (Printf.sprintf "  %-14s %8d %8d %12.0f %12.0f\n" name count
                (Hashtbl.length pes) first last))
  end;
  Buffer.contents b
