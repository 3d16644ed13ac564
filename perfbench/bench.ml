(* The layered benchmark: three workloads over the libraries' public API.

     bench.exe --workload verify|longrun|oracle --seed N --seconds S
               --trace 0|1 [--size full|tiny]
               [--expected FILE] [--spans FILE] [--setup-only]
     bench.exe --make-expected FILE

   A run repeats the workload's fixed work in rounds until the next
   round would overrun [--seconds] (at least one round; with --trace 1
   an untraced and a traced round alternate) and checks every output.
   Its last stdout line is one JSON record with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1); run.py turns it into
   the benchmark's result line.  See README.md. *)

module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Pass = Wsc_ir.Pass
module Printer = Wsc_ir.Printer
module Parser = Wsc_ir.Parser
module Pipeline = Wsc_core.Pipeline
module F = Wsc_wse.Fabric
module Host = Wsc_wse.Host
module Machine = Wsc_wse.Machine
module Engine = Wsc_serve.Engine
module Cache = Wsc_serve.Cache
module Cosim = Wsc_multiwafer.Cosim
module Oracle = Wsc_harden.Oracle
module Fuzz = Wsc_harden.Fuzz
module J = Wsc_trace.Json
module T = Tracer

let span = T.with_span
let tolerance = Oracle.tolerance

(* ------------------------------------------------------------------ *)
(* sizes                                                               *)
(* ------------------------------------------------------------------ *)

type size = {
  label : string;
  verify_ext : int;  (** PE grid edge of the verify proxies *)
  verify_steps : int;
  longrun_ext : int;
  longrun_steps : int;
  oracle_cases : int;  (** oracle cases per round *)
}

let full =
  {
    label = "full";
    verify_ext = 4;
    verify_steps = 2;
    longrun_ext = 8;
    longrun_steps = 32;
    oracle_cases = 100;
  }

let tiny =
  {
    label = "tiny";
    verify_ext = 4;
    verify_steps = 2;
    longrun_ext = 4;
    longrun_steps = 2;
    oracle_cases = 4;
  }

(* ------------------------------------------------------------------ *)
(* small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Seeded Fisher-Yates permutation of an array (a copy). *)
let shuffle ~seed a =
  let a = Array.copy a in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Nearest-rank percentile of unsorted samples (0 when empty). *)
let percentile p (xs : float list) =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

(* The highest nearest-rank percentile that still has 10 samples beyond
   it, and its value: (percentile, value), (0, 0) with 10 samples or
   fewer. *)
let tail (xs : float list) =
  let n = List.length xs in
  if n <= 10 then (0.0, 0.0)
  else (100.0 *. float_of_int (n - 10) /. float_of_int n, List.nth (List.sort compare xs) (n - 11))

(* The usual median: the mean of the two middle samples when their
   count is even, so that rounds split between a fast and a slow phase of
   the host do not report one phase. *)
let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

(* The value of a "Name:" line of /proc/self/status. *)
let proc_status name =
  let ic = open_in "/proc/self/status" in
  let prefix = name ^ ":" in
  let n = String.length prefix in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith ("no " ^ name ^ " in /proc/self/status")
    | l when String.length l > n && String.sub l 0 n = prefix ->
        String.trim (String.sub l n (String.length l - n))
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* VmHWM of this process, in MB. *)
let peak_rss_mb () = Scanf.sscanf (proc_status "VmHWM") "%f" (fun kb -> kb /. 1024.0)

(* The CPUs this process may run on (Cpus_allowed_list, such as "0-3,6"),
   a host fact for the record. *)
let allowed_cpus () =
  List.fold_left
    (fun n r ->
      match String.split_on_char '-' r with
      | [ a; b ] -> n + int_of_string b - int_of_string a + 1
      | _ -> n + 1)
    0
    (String.split_on_char ',' (proc_status "Cpus_allowed_list"))

let init_grids = Cosim.init_grids

let max_diff refs outs =
  List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff refs outs)

(* Per-layer accumulators, fed by traced rounds only and reported per
   traced round. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  if !T.enabled then
    Hashtbl.replace acc name (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.0)

let add_max name v =
  if !T.enabled then
    Hashtbl.replace acc name (Float.max v (Option.value (Hashtbl.find_opt acc name) ~default:0.0))

let get name = Option.value (Hashtbl.find_opt acc name) ~default:0.0

(* Failures: each failed operation is counted once and its first few
   messages are kept for the report. *)
let failures = ref []
let failed = ref 0
let attempted = ref 0

let fail_op msg =
  incr failed;
  if List.length !failures < 10 then failures := msg :: !failures

(* Run one operation under a fresh operation id and a root span;
   an escaping exception counts as a failed operation. *)
let operation name f =
  incr attempted;
  T.new_op ();
  match span ("bench." ^ name) f with
  | () -> ()
  | exception e -> fail_op (name ^ ": " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* pass hooks                                                          *)
(* ------------------------------------------------------------------ *)

let pass_names = Pass.pass_names (Pipeline.passes Pipeline.default_options)

(* Pass options that turn each pass remark into a [core.pass.<name>]
   span, plus the print->parse->print fixpoint hook of the oracle when
   [roundtrip].  The remark arrives after the hook ran, so the hook's
   own time is cut out of the pass span.  The verifier runs after every
   pass, as with the default options. *)
let pass_options ~roundtrip =
  let hook_t0 = ref 0.0 and hook_s = ref 0.0 in
  let on_ir =
    if not roundtrip then None
    else
      Some
        (fun pass m ->
          hook_t0 := Unix.gettimeofday ();
          span "ir.roundtrip" (fun () ->
              let s1 = Printer.op_to_string m in
              let s2 = Printer.op_to_string (Parser.parse_string s1) in
              if not (String.equal s1 s2) then
                failwith ("print->parse->print is not a fixpoint after " ^ pass));
          hook_s := Unix.gettimeofday () -. !hook_t0)
  in
  let on_remark =
    if not !T.enabled then None
    else
      Some
        (fun (r : Pass.remark) ->
          let t1 = if roundtrip then !hook_t0 else Unix.gettimeofday () in
          let d = r.r_wall_s +. r.r_verify_s -. !hook_s in
          ignore (T.add ("core.pass." ^ r.r_pass) ~t0:(t1 -. d) ~t1);
          add ("core.pass." ^ r.r_pass ^ ".ops_after") (float_of_int r.r_ops_after))
  in
  { Pass.default_options with on_ir; on_remark }

(* ------------------------------------------------------------------ *)
(* expected values                                                     *)
(* ------------------------------------------------------------------ *)

(* Expected simulated cycles per program, and for longrun the reference
   interpreter's values at seeded sample points of every drained field:
   (state index, flat index, value). *)
type expected = {
  cycles : (string * float) list;
  samples : (string * (int * int * float) list) list;
}

let program_key ~workload ~ext ~steps ~(machine : Machine.t) (d : B.descr) =
  Printf.sprintf "%s/%dx%dx%d/%s/%s" workload ext ext steps machine.name d.B.id

let load_expected path : expected =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = match J.of_string s with Ok d -> d | Error e -> failwith (path ^ ": " ^ e) in
  let obj name =
    match J.member name doc with Some (J.Obj kv) -> kv | _ -> []
  in
  let num v = Option.get (J.to_number_opt v) in
  {
    cycles = List.map (fun (k, v) -> (k, num v)) (obj "cycles");
    samples =
      List.map
        (fun (k, v) ->
          ( k,
            List.map
              (function
                | J.List [ j; i; x ] ->
                    (int_of_float (num j), int_of_float (num i), num x)
                | _ -> failwith (path ^ ": bad sample under " ^ k))
              (Option.value (J.to_list_opt v) ~default:[]) ))
        (obj "samples");
  }

(* Simulated cycles of every program run, for the result record. *)
let cycles_seen : (string, float) Hashtbl.t = Hashtbl.create 16

let check_cycles exp key cycles =
  Hashtbl.replace cycles_seen key cycles;
  match List.assoc_opt key exp.cycles with
  | None -> Error (key ^ ": no expected cycle count")
  | Some c when c = cycles -> Ok ()
  | Some c -> Error (Printf.sprintf "%s: %.0f simulated cycles, expected %.0f" key cycles c)

let check_samples exp key (outs : I.grid list) =
  match List.assoc_opt key exp.samples with
  | None | Some [] -> Error (key ^ ": no expected sample values")
  | Some pts ->
      let outs = Array.of_list outs in
      List.fold_left
        (fun acc (j, i, v) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
              let got = outs.(j).I.gdata.(i) in
              if Float.abs (got -. v) < tolerance then Ok ()
              else
                Error
                  (Printf.sprintf "%s: field %d [%d] = %.9g, expected %.9g" key j i
                     got v))
        (Ok ()) pts

(* ------------------------------------------------------------------ *)
(* the fabric chain (verify, longrun)                                  *)
(* ------------------------------------------------------------------ *)

(* Fabric work counters of a finished run ([a0]: allocated bytes before
   the run). *)
let fabric_counters (h : Host.t) ~steps ~a0 =
  if !T.enabled then begin
    let sim = h.Host.sim in
    let k = F.sched_stats sim and st = F.total_stats sim in
    add "wse.fabric.alloc_mw" ((Gc.allocated_bytes () -. a0) /. 8e6);
    add "wse.fabric.pe_steps" (float_of_int (sim.F.width * sim.F.height * steps));
    add "wse.fabric.scans" (float_of_int k.F.Sched.scans);
    add "wse.fabric.wakeups" (float_of_int k.F.Sched.wakeups);
    add "wse.fabric.parks" (float_of_int k.F.Sched.parks);
    add "wse.fabric.max_queue_depth" (float_of_int k.F.Sched.max_queue_depth);
    add "wse.fabric.task_activations" (float_of_int st.F.task_activations);
    add "wse.fabric.elems_sent" (float_of_int st.F.elems_sent);
    add "wse.fabric.sends_live" (float_of_int (Hashtbl.length sim.F.sends));
    (* the largest send table of any program: what peak RSS follows *)
    add_max "wse.fabric.sends_live_mb"
      (float_of_int (Obj.reachable_words (Obj.repr sim.F.sends)) *. 8.0 /. 1e6);
    add "wse.fabric.sim_cycles" (F.elapsed_cycles sim)
  end

(* Frontend -> stencil IR -> pipeline -> Host.load/run/read_all: the
   steps of [wsc simulate] and [Wse_perf.simulate_proxy], one span per
   public call. *)
let fabric_chain ~(machine : Machine.t) ~ext ~steps (d : B.descr) =
  let p = span "frontends.parse" (fun () -> d.B.make_n (B.Proxy (ext, ext)) steps) in
  let m0 = span "frontends.stencil_ir" (fun () -> P.compile p) in
  let compiled =
    span "core.pipeline" (fun () ->
        Pipeline.compile ~pass_options:(pass_options ~roundtrip:false) m0)
  in
  let _, program = Pipeline.modules_of compiled in
  let init = span "bench.init" (fun () -> init_grids p) in
  let h = span "wse.host.load" (fun () -> Host.load machine program init) in
  let a0 = Gc.allocated_bytes () in
  span "wse.fabric.run" (fun () -> Host.run h);
  let outs = span "wse.host.readback" (fun () -> Host.read_all h) in
  fabric_counters h ~steps ~a0;
  (p, F.elapsed_cycles h.Host.sim, outs)

let reference p =
  let a0 = Gc.allocated_bytes () in
  let refs = span "frontends.reference" (fun () -> P.run_reference p) in
  let nx, ny, nz = p.P.extents in
  add "frontends.reference_points" (float_of_int (nx * ny * nz * p.P.iterations));
  add "frontends.reference_alloc_mw" ((Gc.allocated_bytes () -. a0) /. 8e6);
  refs

(* The workload's programs: (machine, benchmark), in seeded order. *)
let verify_programs ~seed =
  Array.to_list
    (shuffle ~seed (Array.of_list (List.map (fun d -> (Machine.wse3, d)) B.all)))

(* In a fixed order: the process's peak RSS depends on the order (59-71 MB
   over ten seeded orders), and it should change with the code, not with
   the seed. *)
let longrun_programs =
  List.map (fun d -> (Machine.wse3, d)) B.all
  @ List.map (fun id -> (Machine.wse2, B.find id)) [ "jacobian"; "seismic" ]

(* ------------------------------------------------------------------ *)
(* rounds                                                              *)
(* ------------------------------------------------------------------ *)

type rounds = {
  mutable walls : float list;  (** untraced round walls *)
  mutable pairs : (float * float) list;  (** (untraced, traced) walls *)
  mutable traced : int;
  mutable op_ms : float list;  (** latencies of the untraced round in progress *)
  mutable round_ms : float list list;  (** latencies of each untraced round *)
}

let rounds = { walls = []; pairs = []; traced = 0; op_ms = []; round_ms = [] }

(* VmHWM at the end of the first round.  Without compaction (OCaml 5.1)
   the heap keeps growing slowly over repeated rounds (longrun: 60 MB
   after 3 rounds, 71 MB after 21), so the peak at the end of a run
   would follow the round count, that is the host's speed. *)
let first_round_peak_mb = ref 0.0

(* Run [round ()] until the next one would overrun [seconds]: at least
   one round, or one untraced/traced pair with [trace]. *)
let drive ~seconds ~trace (round : unit -> unit) =
  let t_start = Unix.gettimeofday () in
  let timed traced =
    T.enabled := traced;
    let (), w = time round in
    T.enabled := false;
    w
  in
  let rec loop () =
    let u = timed false in
    if rounds.walls = [] then first_round_peak_mb := peak_rss_mb ();
    rounds.walls <- u :: rounds.walls;
    rounds.round_ms <- rounds.op_ms :: rounds.round_ms;
    rounds.op_ms <- [];
    if trace then begin
      let t = timed true in
      rounds.pairs <- (u, t) :: rounds.pairs;
      rounds.traced <- rounds.traced + 1
    end;
    let per_step =
      if trace then median (List.map (fun (u, t) -> u +. t) rounds.pairs)
      else median rounds.walls
    in
    if Unix.gettimeofday () -. t_start +. per_step <= seconds then loop ()
  in
  loop ()

(* Time one operation for the latency percentiles (untraced rounds). *)
let timed_op f =
  let t0 = Unix.gettimeofday () in
  f ();
  if not !T.enabled then
    rounds.op_ms <- (1e3 *. (Unix.gettimeofday () -. t0)) :: rounds.op_ms

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

let verify_round ~size ~exp ~seed () =
  List.iter
    (fun ((machine : Machine.t), d) ->
      timed_op (fun () ->
          operation "verify" (fun () ->
              let ext = size.verify_ext and steps = size.verify_steps in
              let key = program_key ~workload:"verify" ~ext ~steps ~machine d in
              let p, cycles, outs = fabric_chain ~machine ~ext ~steps d in
              let refs = reference p in
              let diff = span "dialects.interp.compare" (fun () -> max_diff refs outs) in
              match check_cycles exp key cycles with
              | Error e -> fail_op e
              | Ok () ->
                  if Float.is_nan diff || diff >= tolerance then
                    fail_op (Printf.sprintf "%s: max |diff| vs reference %.3e" key diff))))
    (verify_programs ~seed)

let longrun_round ~size ~exp () =
  List.iter
    (fun ((machine : Machine.t), d) ->
      timed_op (fun () ->
          operation "longrun" (fun () ->
              let ext = size.longrun_ext and steps = size.longrun_steps in
              let key = program_key ~workload:"longrun" ~ext ~steps ~machine d in
              let _, cycles, outs = fabric_chain ~machine ~ext ~steps d in
              let check =
                span "bench.check" (fun () ->
                    match check_cycles exp key cycles with
                    | Error e -> Error e
                    | Ok () -> check_samples exp key outs)
              in
              match check with Error e -> fail_op e | Ok () -> ())))
    longrun_programs


(* oracle: the differential oracle over seeded fuzzer programs.  The
   untraced round calls [Oracle.check] unchanged; the traced round
   replays each case through the same public calls in the same order,
   one span per call. *)
let oracle_replay ~(machine : Machine.t) (p : P.t) =
  let o = Pipeline.default_options in
  let stage passes m =
    span "core.pipeline" (fun () ->
        Pass.run_pipeline ~options:(pass_options ~roundtrip:true) passes m)
  in
  let check tier refs outs =
    let d = span "dialects.interp.compare" (fun () -> max_diff refs outs) in
    if Float.is_nan d || d >= tolerance then
      failwith (Printf.sprintf "%s tier disagrees with the reference: %.3e" tier d)
  in
  let refs = reference p in
  let m0 = span "frontends.stencil_ir" (fun () -> P.compile p) in
  let m1 = stage (Pipeline.frontend_passes o @ Pipeline.middle_passes o) m0 in
  let grids = span "bench.init" (fun () -> init_grids p) in
  ignore
    (span "dialects.interp.midlevel" (fun () ->
         I.run_func m1 ~name:"main" (List.map (fun g -> I.Rgrid g) grids)));
  check "interp" refs grids;
  let m2 = stage (Pipeline.backend_passes o) m1 in
  let _, program = Pipeline.modules_of m2 in
  let init = span "bench.init" (fun () -> init_grids p) in
  let h = span "wse.host.load" (fun () -> Host.load machine program init) in
  let a0 = Gc.allocated_bytes () in
  span "wse.fabric.run" (fun () -> Host.run h);
  fabric_counters h ~steps:p.P.iterations ~a0;
  let outs = span "wse.host.readback" (fun () -> Host.read_all h) in
  check "fabric" refs outs;
  let engine = span "serve.engine.create" (fun () -> Engine.create ~options:o ()) in
  let cache_counters () =
    let st = Engine.cache_stats engine in
    add "serve.cache.hits" (float_of_int st.Cache.hits);
    add "serve.cache.misses" (float_of_int st.Cache.misses);
    add "serve.cache.dedup_hits" (float_of_int st.Cache.dedup_hits);
    add "serve.cache.evictions" (float_of_int st.Cache.evictions)
  in
  let nx, _, _ = p.P.extents in
  List.iter
    (fun ((wx, wy) as wafers) ->
      let d0 = Cosim.domains_spawned () in
      let r =
        span (Printf.sprintf "multiwafer.cosim_%dx%d" wx wy) (fun () ->
            Cosim.run ~engine ~machine ~wafers p)
      in
      add "multiwafer.domains_spawned" (float_of_int (Cosim.domains_spawned () - d0));
      add "multiwafer.epochs" (float_of_int r.Cosim.epochs);
      add "multiwafer.exchange_bytes" (float_of_int r.Cosim.exchange_bytes);
      add "multiwafer.device_cycles" r.Cosim.device_cycles;
      if not (Cosim.grids_bit_identical outs r.Cosim.grids) then
        failwith (Printf.sprintf "%dx%d co-simulation is not bit-identical" wx wy))
    ((1, 1) :: (if nx >= 2 then [ (2, 1) ] else []));
  cache_counters ()

let oracle_round ~(cases : P.t array) () =
  Array.iteri
    (fun i p ->
      if !T.enabled then operation "case" (fun () -> oracle_replay ~machine:Machine.wse3 p)
      else
        timed_op (fun () ->
            operation "case" (fun () ->
                let r = Oracle.check p in
                if not (Oracle.ok r) then
                  fail_op
                    (Printf.sprintf "case %d: %s" i
                       (Oracle.failure_to_string (Option.get r.Oracle.failure))))))
    cases

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

let layers = [ "frontends"; "core"; "ir"; "dialects"; "wse"; "serve"; "multiwafer"; "harden"; "bench" ]

(* Per-layer metrics of the traced rounds, each a per-round mean unless
   it is a ratio. *)
let per_layer ~workload =
  let n = float_of_int (max 1 rounds.traced) in
  let per_round name = get name /. n in
  let self = T.name_self () in
  let self_of name = Option.value (List.assoc_opt name self) ~default:0.0 /. n in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let wall_u = median (List.map fst rounds.pairs) and wall_t = median (List.map snd rounds.pairs) in
  let layer_self = T.layer_self () in
  let lself l = Option.value (List.assoc_opt l layer_self) ~default:0.0 /. n in
  let total_self = List.fold_left (fun a l -> a +. lself l) 0.0 layers in
  let named = total_self -. lself "bench" in
  [
    ("frontends.parse_s", "s", self_of "frontends.parse");
    ("frontends.stencil_ir_s", "s", self_of "frontends.stencil_ir");
    ("frontends.reference_s", "s", self_of "frontends.reference");
    ( "frontends.reference_ns_per_point",
      "ns",
      1e9 *. ratio (self_of "frontends.reference") (per_round "frontends.reference_points") );
    ("frontends.reference_alloc_mw", "Mwords", per_round "frontends.reference_alloc_mw");
    ("wse.fabric.run_s", "s", self_of "wse.fabric.run");
    ( "wse.fabric.ns_per_pe_step",
      "ns",
      1e9 *. ratio (self_of "wse.fabric.run") (per_round "wse.fabric.pe_steps") );
    ("wse.fabric.alloc_mw", "Mwords", per_round "wse.fabric.alloc_mw");
  ]
  @ List.map
      (fun c -> ("wse.fabric." ^ c, "count", per_round ("wse.fabric." ^ c)))
      [ "scans"; "wakeups"; "parks"; "max_queue_depth"; "task_activations"; "elems_sent"; "sends_live" ]
  @ [
      ("wse.fabric.sends_live_mb", "MB", get "wse.fabric.sends_live_mb");
      ("wse.fabric.sim_cycles", "cycles", per_round "wse.fabric.sim_cycles");
      ("wse.host.load_s", "s", self_of "wse.host.load");
      ("wse.host.readback_s", "s", self_of "wse.host.readback");
      ("gc.top_heap_mb", "MB", float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6);
      ( "core.pipeline_s",
        "s",
        self_of "core.pipeline"
        +. List.fold_left (fun a p -> a +. self_of ("core.pass." ^ p)) 0.0 pass_names );
      ("core.csl_printer_s", "s", self_of "core.csl_printer");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("core.pass." ^ p ^ ".s", "s", self_of ("core.pass." ^ p));
          ("core.pass." ^ p ^ ".ops_after", "count", per_round ("core.pass." ^ p ^ ".ops_after"));
        ])
      pass_names
  @ List.map
      (fun c -> ("serve.cache." ^ c, "count", per_round ("serve.cache." ^ c)))
      [ "hits"; "misses"; "dedup_hits"; "evictions" ]
  @ [
      ( "serve.cache.hit_rate",
        "ratio",
        ratio (get "serve.cache.hits") (get "serve.cache.hits" +. get "serve.cache.misses") );
      ("ir.roundtrip_s", "s", self_of "ir.roundtrip");
      ("dialects.interp.midlevel_s", "s", self_of "dialects.interp.midlevel");
      ("multiwafer.cosim_1x1_s", "s", self_of "multiwafer.cosim_1x1");
      ("multiwafer.cosim_2x1_s", "s", self_of "multiwafer.cosim_2x1");
    ]
  @ List.map
      (fun (c, u) -> ("multiwafer." ^ c, u, per_round ("multiwafer." ^ c)))
      [
        ("epochs", "count");
        ("exchange_bytes", "bytes");
        ("device_cycles", "cycles");
        ("domains_spawned", "count");
      ]
  @ (let cases = if workload = "oracle" then List.concat rounds.round_ms else [] in
     let tail_pct, tail_ms = tail cases in
     [
       ("harden.oracle.case_ms_p50", "ms", median cases);
       ("harden.oracle.case_ms_tail", "ms", tail_ms);
       ("harden.oracle.case_ms_tail_pct", "%", tail_pct);
       ("harden.oracle.case_samples", "count", float_of_int (List.length cases));
     ])
  @ List.concat_map
      (fun l ->
        [
          ("layer." ^ l ^ ".self_s", "s", lself l);
          ("layer." ^ l ^ ".share", "ratio", ratio (lself l) total_self);
        ])
      layers
  @ [
      ("trace.overhead_pct", "%", 100.0 *. ratio (wall_t -. wall_u) wall_u);
      ( "trace.coverage",
        "ratio",
        ratio named wall_u );
    ]

(* Latency percentiles are taken within each round of the fixed work and
   reported as their median over rounds, like the round wall time: on
   verify and longrun a round has only 5 or 7 operations, so its p99 is
   its slowest program. *)
let end_to_end () =
  let walls = rounds.walls in
  let per_round p = median (List.map (percentile p) rounds.round_ms) in
  let ops_per_round = float_of_int (List.length (List.hd rounds.round_ms)) in
  [
    ("wall_s", "s", median walls);
    ("ops_per_s", "1/s", ops_per_round /. median walls);
    ("p50_ms", "ms", per_round 50.0);
    ("p99_ms", "ms", per_round 99.0);
    ("peak_rss_mb", "MB", !first_round_peak_mb);
  ]

(* ------------------------------------------------------------------ *)
(* expected-value generation                                           *)
(* ------------------------------------------------------------------ *)

(* Sample points per drained field in the committed longrun values. *)
let samples_per_field = 32

(* Fabric cycles of every verify and longrun program, and the reference
   interpreter's values at seeded interior sample points of every
   longrun field (checked against the fabric before they are kept). *)
let make_expected path sizes =
  let cycles = ref [] and samples = ref [] in
  List.iter
    (fun size ->
      List.iter
        (fun (m, d) ->
          let ext = size.verify_ext and steps = size.verify_steps in
          let _, c, _ = fabric_chain ~machine:m ~ext ~steps d in
          cycles := (program_key ~workload:"verify" ~ext ~steps ~machine:m d, c) :: !cycles)
        (verify_programs ~seed:0);
      List.iter
        (fun ((m : Machine.t), d) ->
          let ext = size.longrun_ext and steps = size.longrun_steps in
          let key = program_key ~workload:"longrun" ~ext ~steps ~machine:m d in
          let p, c, outs = fabric_chain ~machine:m ~ext ~steps d in
          let refs = P.run_reference p in
          let st = Random.State.make [| Hashtbl.hash key |] in
          let h = p.P.halo in
          let pts =
            List.concat
              (List.mapi
                 (fun j (g : I.grid) ->
                   List.init samples_per_field (fun _ ->
                       let pt =
                         List.map
                           (fun (lo, hi) -> lo + h + Random.State.int st (hi - lo - (2 * h)))
                           g.I.gbounds
                       in
                       let i = I.flat_index g pt in
                       let v = g.I.gdata.(i) in
                       let got = (List.nth outs j).I.gdata.(i) in
                       if Float.abs (got -. v) >= tolerance then
                         failwith (Printf.sprintf "%s: fabric disagrees with the reference" key);
                       (j, i, v)))
                 refs)
          in
          Printf.printf "%s: %.0f cycles, %d samples\n%!" key c (List.length pts);
          cycles := (key, c) :: !cycles;
          samples := (key, pts) :: !samples)
        longrun_programs)
    sizes;
  let doc =
    J.Obj
      [
        ( "about",
          J.String
            "Expected fabric cycles per program, and reference-interpreter values \
             at seeded sample points of every drained longrun field: [state, flat \
             index, value].  Regenerate with bench.exe --make-expected." );
        ( "cycles",
          J.Obj
            (List.map (fun (k, c) -> (k, J.Float c)) (List.sort_uniq compare !cycles)) );
        ( "samples",
          J.Obj
            (List.rev_map
               (fun (k, pts) ->
                 ( k,
                   J.List
                     (List.map
                        (fun (j, i, v) -> J.List [ J.Int j; J.Int i; J.Float v ])
                        pts) ))
               !samples) );
      ]
  in
  let oc = open_out path in
  J.to_channel oc doc;
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and expected = ref "perfbench/expected.json" in
  let spans = ref "" and setup_only = ref false and make = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "verify|longrun|oracle");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer metrics");
      ("--size", Arg.Set_string size, "full|tiny");
      ("--expected", Arg.Set_string expected, "expected-values file");
      ("--spans", Arg.Set_string spans, "write the kept spans (Chrome trace) here");
      ("--setup-only", Arg.Set setup_only, "set up, print 'ready', exit");
      ("--make-expected", Arg.Set_string make, "write the expected-values file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let size = match !size with "tiny" -> tiny | "full" -> full | s -> failwith ("unknown size " ^ s) in
  if !make <> "" then begin
    make_expected !make (if size == tiny then [ tiny ] else [ tiny; full ]);
    exit 0
  end;
  let seed = !seed and trace = !trace = 1 and nproc = allowed_cpus () in
  if not (List.mem !workload [ "verify"; "longrun"; "oracle" ]) then begin
    prerr_endline ("unknown workload '" ^ !workload ^ "'");
    exit 2
  end;
  (* set-up: everything the program does before its first operation,
     timed from the start of library initialisation ([Bench_entry] is
     linked first); [--setup-only] stops here, so the set-up probes
     exclude the benchmark's own input generation below *)
  Wsc_core.Csl_stencil_interp.register ();
  let setup_s = Unix.gettimeofday () -. Bench_entry.t0 in
  Printf.printf "ready %.9f\n%!" setup_s;
  if !setup_only then exit 0;
  (* inputs, generated from the seed *)
  let round =
    match !workload with
    | "verify" -> verify_round ~size ~exp:(load_expected !expected) ~seed
    | "longrun" -> longrun_round ~size ~exp:(load_expected !expected)
    | _ ->
        oracle_round
          ~cases:(Array.init size.oracle_cases (fun index -> Fuzz.generate ~seed ~index))
  in
  let epoch = Unix.gettimeofday () in
  drive ~seconds:!seconds ~trace round;
  let metrics = if trace then per_layer ~workload:!workload else end_to_end () in
  if !spans <> "" then begin
    let oc = open_out !spans in
    J.to_channel oc (T.to_json ~epoch);
    close_out oc
  end;
  let correct = !failed = 0 in
  let record =
    J.Obj
      [
        ("workload", J.String !workload);
        ("seed", J.Int seed);
        ("size", J.String size.label);
        ("trace", J.Int (if trace then 1 else 0));
        ("nproc", J.Int nproc);
        ("ocaml_version", J.String Sys.ocaml_version);
        ("correct", J.Bool correct);
        ("attempted", J.Int !attempted);
        ("failed", J.Int !failed);
        ("failures", J.List (List.rev_map (fun m -> J.String m) !failures));
        ("setup_s", J.Float setup_s);
        ( "samples",
          J.Obj
            [
              ("rounds", J.Int (List.length rounds.walls));
              ("round_walls", J.List (List.rev_map (fun w -> J.Float w) rounds.walls));
              ("traced_rounds", J.Int rounds.traced);
              ( "latency",
                J.Int (List.fold_left (fun a r -> a + List.length r) 0 rounds.round_ms) );
            ] );
        ( "sim_cycles",
          J.Obj
            (List.sort compare
               (Hashtbl.fold (fun k c a -> (k, J.Float c) :: a) cycles_seen [])) );
        ( "span_self",
          J.Obj
            (List.sort compare
               (List.map
                  (fun (n, v) -> (n, J.Float (v /. float_of_int (max 1 rounds.traced))))
                  (T.name_self ()))) );
        ( "metrics",
          J.Obj
            (List.map
               (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
               metrics) );
      ]
  in
  print_endline (J.to_string record);
  exit (if correct then 0 else 1)
