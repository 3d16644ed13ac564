(** Fault injection for the WSE fabric simulator.

    The injector is a deterministic function from (campaign seed, site
    coordinates) to fault decisions, plus the mutable bookkeeping of a
    run (fault counters, the halted / tainted PE sets, the sends the
    resilience layer has given up on).

    Decisions are hashes, not draws from a mutable PRNG stream: a
    stateful generator would hand out different values depending on the
    order in which the driver visits PEs, and the whole point of the
    subsystem is that every visit order agrees bit-for-bit on every
    fault.  The hash is SplitMix64 over the seed
    and the site key (PE position, exchange id, chunk index, attempt
    number), whose output is mapped to a uniform in [0, 1). *)

type kind = Drop | Corrupt | Stall | Halt | Backpressure

let kind_to_string = function
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Stall -> "stall"
  | Halt -> "halt"
  | Backpressure -> "backpressure"

let all_kinds = [ Drop; Corrupt; Stall; Halt; Backpressure ]

type resilience = {
  timeout_cycles : float;
  backoff_factor : float;
  max_backoff_cycles : float;
  max_retries : int;
  halt_timeout_cycles : float;
}

let default_resilience =
  {
    timeout_cycles = 64.0;
    backoff_factor = 2.0;
    max_backoff_cycles = 1024.0;
    max_retries = 8;
    halt_timeout_cycles = 4096.0;
  }

type config = {
  seed : int;
  drop_rate : float;
  corrupt_rate : float;
  stall_rate : float;
  stall_cycles : float;
  halt_rate : float;
  backpressure_rate : float;
  backpressure_cycles : float;
  resilience : resilience option;
}

let default_config =
  {
    seed = 0;
    drop_rate = 0.0;
    corrupt_rate = 0.0;
    stall_rate = 0.0;
    stall_cycles = 200.0;
    halt_rate = 0.0;
    backpressure_rate = 0.0;
    backpressure_cycles = 400.0;
    resilience = None;
  }

let config_for (k : kind) ~(rate : float) ~(seed : int) ~(resilient : bool) :
    config =
  let base =
    {
      default_config with
      seed;
      resilience = (if resilient then Some default_resilience else None);
    }
  in
  match k with
  | Drop -> { base with drop_rate = rate }
  | Corrupt -> { base with corrupt_rate = rate }
  | Stall -> { base with stall_rate = rate }
  | Halt -> { base with halt_rate = rate }
  | Backpressure -> { base with backpressure_rate = rate }

type stats = {
  mutable drops : int;
  mutable corrupts : int;
  mutable stalls : int;
  mutable halts : int;
  mutable backpressures : int;
  mutable retries : int;
  mutable giveups : int;
  mutable halt_timeouts : int;
  mutable recovery_cycles : float;
}

let fresh_stats () =
  {
    drops = 0;
    corrupts = 0;
    stalls = 0;
    halts = 0;
    backpressures = 0;
    retries = 0;
    giveups = 0;
    halt_timeouts = 0;
    recovery_cycles = 0.0;
  }

type injector = {
  cfg : config;
  st : stats;
  dispatches : (int * int, int ref) Hashtbl.t;  (** per-PE dispatch counts *)
  halted : (int * int, unit) Hashtbl.t;
  tainted : (int * int, unit) Hashtbl.t;
  skipped : (int * int * int * int, unit) Hashtbl.t;
  tainted_sends : (int * int * int * int, unit) Hashtbl.t;
}

type t = Null | Injector of injector

let null = Null

let create (cfg : config) : t =
  Injector
    {
      cfg;
      st = fresh_stats ();
      dispatches = Hashtbl.create 64;
      halted = Hashtbl.create 8;
      tainted = Hashtbl.create 8;
      skipped = Hashtbl.create 8;
      tainted_sends = Hashtbl.create 8;
    }

let enabled = function Null -> false | Injector _ -> true

let config = function
  | Null -> invalid_arg "Faults.config: null injector"
  | Injector i -> i.cfg

let stats = function Null -> fresh_stats () | Injector i -> i.st

(* ------------------------------------------------------------------ *)
(* SplitMix64 site hashing                                             *)
(* ------------------------------------------------------------------ *)

let sm64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

let hash ~(seed : int) ~(site : int) ~(keys : int list) : int64 =
  let step acc k = sm64 (Int64.add (Int64.logxor acc (Int64.of_int k)) golden) in
  List.fold_left step (step (step (Int64.of_int seed) site) 0x5157) keys

(* top 53 bits -> [0, 1) *)
let to_unit (h : int64) : float =
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

let uniform ~seed ~site ~keys : float = to_unit (hash ~seed ~site ~keys)

(* distinct site tags per decision family *)
let site_stall = 1
let site_halt = 2
let site_backpressure = 3
let site_drop = 4
let site_corrupt = 5
let site_corruption_where = 6
let site_corruption_noise = 7

let flip (inj : injector) ~(rate : float) ~(site : int) ~(keys : int list) : bool =
  rate > 0.0 && uniform ~seed:inj.cfg.seed ~site ~keys < rate

let next_dispatch (t : t) ~x ~y : int =
  match t with
  | Null -> 0
  | Injector i ->
      let r =
        match Hashtbl.find_opt i.dispatches (x, y) with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.replace i.dispatches (x, y) r;
            r
      in
      incr r;
      !r

let stall_here (t : t) ~x ~y ~activation : bool =
  match t with
  | Null -> false
  | Injector i ->
      flip i ~rate:i.cfg.stall_rate ~site:site_stall ~keys:[ x; y; activation ]

let halt_here (t : t) ~x ~y ~activation : bool =
  match t with
  | Null -> false
  | Injector i ->
      flip i ~rate:i.cfg.halt_rate ~site:site_halt ~keys:[ x; y; activation ]

let link_keys ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy =
  [ apply; seq; chunk; input; sx; sy; dx; dy ]

let backpressure_here (t : t) ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy : bool =
  match t with
  | Null -> false
  | Injector i ->
      flip i ~rate:i.cfg.backpressure_rate ~site:site_backpressure
        ~keys:(link_keys ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy)

let drop_here (t : t) ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt : bool =
  match t with
  | Null -> false
  | Injector i ->
      flip i ~rate:i.cfg.drop_rate ~site:site_drop
        ~keys:(link_keys ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy @ [ attempt ])

let corrupt_here (t : t) ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt :
    bool =
  match t with
  | Null -> false
  | Injector i ->
      flip i ~rate:i.cfg.corrupt_rate ~site:site_corrupt
        ~keys:(link_keys ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy @ [ attempt ])

let corruption (t : t) ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt ~len :
    int * float =
  match t with
  | Null -> (0, 0.0)
  | Injector i ->
      let keys =
        link_keys ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy @ [ attempt ]
      in
      let where =
        uniform ~seed:i.cfg.seed ~site:site_corruption_where ~keys
      in
      let noise = uniform ~seed:i.cfg.seed ~site:site_corruption_noise ~keys in
      let idx = min (len - 1) (int_of_float (where *. float_of_int len)) in
      (* bit-flip-like damage: a bounded, sign-varying additive error *)
      (max 0 idx, (noise *. 2.0) -. 1.0)

let backoff (r : resilience) ~(attempt : int) : float =
  let t = r.timeout_cycles *. (r.backoff_factor ** float_of_int (attempt - 1)) in
  Float.min t r.max_backoff_cycles

(* ------------------------------------------------------------------ *)
(* Protocol bookkeeping                                                *)
(* ------------------------------------------------------------------ *)

(** The simulated per-wavelet checksum: fold the payload's IEEE-754 bit
    patterns through the same mixer as the site hash.  Both ends of a
    link compute it over their copy of the slice, so corruption applied
    on the wire is detected exactly. *)
let checksum (a : float array) ~(off : int) ~(len : int) : int64 =
  let acc = ref 0x435355304b53554dL in
  for i = off to off + len - 1 do
    acc := sm64 (Int64.add (Int64.logxor !acc (Int64.bits_of_float a.(i))) golden)
  done;
  !acc

let record_halt (t : t) ~x ~y : unit =
  match t with
  | Null -> ()
  | Injector i ->
      if not (Hashtbl.mem i.halted (x, y)) then begin
        Hashtbl.replace i.halted (x, y) ();
        i.st.halts <- i.st.halts + 1
      end

let is_halted (t : t) ~x ~y : bool =
  match t with
  | Null -> false
  | Injector i -> Hashtbl.mem i.halted (x, y)

let halted_count = function
  | Null -> 0
  | Injector i -> Hashtbl.length i.halted

let taint (t : t) ~x ~y : unit =
  match t with
  | Null -> ()
  | Injector i -> Hashtbl.replace i.tainted (x, y) ()

let is_tainted (t : t) ~x ~y : bool =
  match t with
  | Null -> false
  | Injector i -> Hashtbl.mem i.tainted (x, y)

let skip_send (t : t) ~apply ~seq ~x ~y : unit =
  match t with
  | Null -> ()
  | Injector i -> Hashtbl.replace i.skipped (apply, seq, x, y) ()

let is_skipped (t : t) ~apply ~seq ~x ~y : bool =
  match t with
  | Null -> false
  | Injector i -> Hashtbl.mem i.skipped (apply, seq, x, y)

let taint_send (t : t) ~apply ~seq ~x ~y : unit =
  match t with
  | Null -> ()
  | Injector i -> Hashtbl.replace i.tainted_sends (apply, seq, x, y) ()

let is_tainted_send (t : t) ~apply ~seq ~x ~y : bool =
  match t with
  | Null -> false
  | Injector i -> Hashtbl.mem i.tainted_sends (apply, seq, x, y)

(* ------------------------------------------------------------------ *)
(* Wafer-granularity sites                                             *)
(* ------------------------------------------------------------------ *)

module Wafer = struct
  type kind = Halo_drop | Halo_corrupt | Crash | Loss | Spike

  let kind_to_string = function
    | Halo_drop -> "halo-drop"
    | Halo_corrupt -> "halo-corrupt"
    | Crash -> "crash"
    | Loss -> "loss"
    | Spike -> "spike"

  let all_kinds = [ Halo_drop; Halo_corrupt; Crash; Loss; Spike ]

  type resilience = { checkpoint_cadence : int; max_retries : int }

  let default_resilience = { checkpoint_cadence = 2; max_retries = 8 }

  type config = {
    seed : int;
    halo_drop_rate : float;
    halo_corrupt_rate : float;
    crash_rate : float;
    loss_rate : float;
    spike_rate : float;
    spike_factor : float;
    resilience : resilience option;
  }

  let default_config =
    {
      seed = 0;
      halo_drop_rate = 0.0;
      halo_corrupt_rate = 0.0;
      crash_rate = 0.0;
      loss_rate = 0.0;
      spike_rate = 0.0;
      spike_factor = 8.0;
      resilience = None;
    }

  let config_for (k : kind) ~(rate : float) ~(seed : int) ~(resilient : bool) :
      config =
    let base =
      {
        default_config with
        seed;
        resilience = (if resilient then Some default_resilience else None);
      }
    in
    match k with
    | Halo_drop -> { base with halo_drop_rate = rate }
    | Halo_corrupt -> { base with halo_corrupt_rate = rate }
    | Crash -> { base with crash_rate = rate }
    | Loss -> { base with loss_rate = rate }
    | Spike -> { base with spike_rate = rate }

  type stats = {
    mutable halo_drops : int;
    mutable halo_corrupts : int;
    mutable crashes : int;
    mutable losses : int;
    mutable spikes : int;
    mutable detected : int;
  }

  let fresh_stats () =
    {
      halo_drops = 0;
      halo_corrupts = 0;
      crashes = 0;
      losses = 0;
      spikes = 0;
      detected = 0;
    }

  type injector = { cfg : config; st : stats }
  type t = Null | Injector of injector

  let null = Null

  let create (cfg : config) : t =
    Injector { cfg; st = fresh_stats () }

  let enabled = function Null -> false | Injector _ -> true

  let config = function
    | Null -> invalid_arg "Faults.Wafer.config: null injector"
    | Injector i -> i.cfg

  let stats = function Null -> fresh_stats () | Injector i -> i.st

  (* site tags continue the intra-wafer numbering above *)
  let site_crash = 8
  let site_loss = 9
  let site_halo_drop = 10
  let site_halo_corrupt = 11
  let site_halo_where = 12
  let site_halo_noise = 13
  let site_spike = 14

  let flip (i : injector) ~rate ~site ~keys : bool =
    rate > 0.0 && uniform ~seed:i.cfg.seed ~site ~keys < rate

  let bump (i : injector) (f : stats -> unit) : bool =
    f i.st;
    true

  let crash_here (t : t) ~epoch ~wafer ~attempt : bool =
    match t with
    | Null -> false
    | Injector i ->
        flip i ~rate:i.cfg.crash_rate ~site:site_crash
          ~keys:[ epoch; wafer; attempt ]
        && bump i (fun s -> s.crashes <- s.crashes + 1)

  (* permanent: no attempt key, and sticky over epochs — once a wafer is
     lost at epoch e it stays lost for every later epoch and replay *)
  let lost_here (t : t) ~epoch ~wafer : bool =
    match t with
    | Null -> false
    | Injector i ->
        i.cfg.loss_rate > 0.0
        &&
        let rec fired e =
          e >= 1
          && (flip i ~rate:i.cfg.loss_rate ~site:site_loss ~keys:[ e; wafer ]
             || fired (e - 1))
        in
        fired epoch
        && bump i (fun s -> s.losses <- s.losses + 1)

  let drop_halo (t : t) ~epoch ~wafer ~dir ~attempt : bool =
    match t with
    | Null -> false
    | Injector i ->
        flip i ~rate:i.cfg.halo_drop_rate ~site:site_halo_drop
          ~keys:[ epoch; wafer; dir; attempt ]
        && bump i (fun s -> s.halo_drops <- s.halo_drops + 1)

  let corrupt_halo (t : t) ~epoch ~wafer ~dir ~attempt : bool =
    match t with
    | Null -> false
    | Injector i ->
        flip i ~rate:i.cfg.halo_corrupt_rate ~site:site_halo_corrupt
          ~keys:[ epoch; wafer; dir; attempt ]
        && bump i (fun s -> s.halo_corrupts <- s.halo_corrupts + 1)

  let halo_corruption (t : t) ~epoch ~wafer ~dir ~attempt ~len : int * float =
    match t with
    | Null -> (0, 0.0)
    | Injector i ->
        let keys = [ epoch; wafer; dir; attempt ] in
        let where = uniform ~seed:i.cfg.seed ~site:site_halo_where ~keys in
        let noise = uniform ~seed:i.cfg.seed ~site:site_halo_noise ~keys in
        let idx = min (len - 1) (int_of_float (where *. float_of_int len)) in
        (max 0 idx, (noise *. 2.0) -. 1.0)

  let spike_here (t : t) ~epoch ~wafer : bool =
    match t with
    | Null -> false
    | Injector i ->
        flip i ~rate:i.cfg.spike_rate ~site:site_spike ~keys:[ epoch; wafer ]
        && bump i (fun s -> s.spikes <- s.spikes + 1)

  let record_detection (t : t) : unit =
    match t with
    | Null -> ()
    | Injector i -> i.st.detected <- i.st.detected + 1
end
