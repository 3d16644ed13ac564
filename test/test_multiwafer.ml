(* Tests for the multi-wafer subsystem (lib/multiwafer): the balanced
   split, the decomposition plan's geometry and boundary-trimmed swaps,
   the dmp exchange-volume identity (property-based), the plan-IR
   round trip, bit-identity of the co-simulation against the
   single-wafer fabric on representative benchmarks, slice-shape dedup
   through the shared compile-engine cache, and wafers stepped in the
   calling domain (co-simulation spawns none). *)

open Wsc_ir.Ir
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module D = Wsc_multiwafer.Decompose
module MW = Wsc_multiwafer.Cosim
module Dmp = Wsc_dialects.Dmp
module Cache = Wsc_serve.Cache
module Printer = Wsc_ir.Printer
module Parser = Wsc_ir.Parser

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* split                                                               *)
(* ------------------------------------------------------------------ *)

let test_split () =
  Alcotest.(check (list (pair int int))) "even" [ (0, 2); (2, 2) ] (D.split 4 2);
  Alcotest.(check (list (pair int int)))
    "uneven" [ (0, 3); (3, 2); (5, 2) ] (D.split 7 3);
  (* tiles the extent, contiguous, widths differ by at most one *)
  List.iter
    (fun (extent, parts) ->
      let ranges = D.split extent parts in
      checki "parts" parts (List.length ranges);
      let widths = List.map snd ranges in
      let wmin = List.fold_left min extent widths in
      let wmax = List.fold_left max 0 widths in
      check "balanced" true (wmax - wmin <= 1);
      checki "covers" extent (List.fold_left ( + ) 0 widths);
      ignore
        (List.fold_left
           (fun expect (x0, w) ->
             checki "contiguous" expect x0;
             x0 + w)
           0 ranges))
    [ (4, 2); (5, 2); (7, 3); (9, 4); (16, 5) ]

(* ------------------------------------------------------------------ *)
(* plan geometry and swap trimming                                     *)
(* ------------------------------------------------------------------ *)

(* for each direction d the program exchanges in, a slice swaps in d
   iff a wafer sits at (wi, wj) + vector d *)
let check_physical_edges (pl : D.plan) =
  let wx, wy = pl.D.wafers in
  List.iter
    (fun (s : D.slice) ->
      check "slice swaps are the plan's" true
        (List.for_all (fun d -> List.mem d pl.D.swaps) s.D.swaps);
      List.iter
        (fun (w : Dmp.swap_desc) ->
          let dir = w.Dmp.dir in
          let vx, vy = Dmp.vector dir in
          let i = s.D.wi + vx and j = s.D.wj + vy in
          check
            (Printf.sprintf "(%d,%d) %s swap iff a wafer is there" s.D.wi s.D.wj
               (Dmp.direction_to_string dir))
            (i >= 0 && i < wx && j >= 0 && j < wy)
            (List.exists (fun (d : Dmp.swap_desc) -> d.Dmp.dir = dir) s.D.swaps))
        pl.D.swaps)
    pl.D.slices

(* uvkbe reads v at dy = -1: the wafer plan exchanges in the direction
   of the PE-level dmp.swap (South), only where a wafer sits below *)
let test_plan_directions_match_pe_level () =
  let p = B.uvkbe B.Tiny in
  let dirs swaps =
    List.sort_uniq compare (List.map (fun (d : Dmp.swap_desc) -> d.Dmp.dir) swaps)
  in
  let pe_swaps =
    find_ops_by_name "dmp.swap"
      (Wsc_core.Distribute.distribute (P.compile p))
    |> List.concat_map Dmp.swaps
  in
  let pl = D.plan ~wafers:(2, 2) p in
  check "PE level swaps south" true (List.mem Dmp.South (dirs pe_swaps));
  check "wafer level has the PE-level directions" true
    (dirs pl.D.swaps = dirs pe_swaps);
  check_physical_edges pl

let test_plan_geometry () =
  let p = B.jacobian B.Tiny in
  let nx, ny, _ = p.P.extents in
  let pl = D.plan ~wafers:(2, 2) p in
  checki "slices" 4 (List.length pl.D.slices);
  (* every interior cell is owned by exactly one slice *)
  let owner = Array.make (nx * ny) 0 in
  List.iter
    (fun (s : D.slice) ->
      for x = s.D.x0 to s.D.x0 + s.D.snx - 1 do
        for y = s.D.y0 to s.D.y0 + s.D.sny - 1 do
          owner.((y * nx) + x) <- owner.((y * nx) + x) + 1
        done
      done)
    pl.D.slices;
  Array.iter (fun n -> checki "owned once" 1 n) owner;
  (* jacobian reads state at |dx|,|dy| <= 1 and dz = 0: every direction
     is 1 deep over the interior columns only *)
  List.iter
    (fun dir ->
      check (Dmp.direction_to_string dir ^ " swap") true
        (List.mem { Dmp.dir; depth = 1; z_lo = 0; z_hi = 6 } pl.D.swaps))
    Dmp.all_directions;
  check_physical_edges pl;
  (* exchange accounting: global = Σ per-slice *)
  checki "exchange sum" (D.exchange_scalars pl)
    (List.fold_left (fun acc s -> acc + D.slice_exchange_scalars s) 0 pl.D.slices);
  (* equal slices produce equal subprograms (one compile-cache entry) *)
  let subs = List.map (D.subprogram pl) pl.D.slices in
  checki "one distinct subprogram" 1
    (List.length (List.sort_uniq compare (List.map (fun q -> q.P.extents) subs)))

let test_plan_rejections () =
  let p = B.jacobian B.Tiny in
  (* wafer grid wider than the interior *)
  (match D.plan ~wafers:(64, 1) p with
  | exception D.Decompose_error _ -> ()
  | _ -> Alcotest.fail "expected Decompose_error for an oversized grid");
  (* straight-line multi-iteration programs fuse across timesteps *)
  let fused = { p with P.use_loop = false; iterations = 3 } in
  check "decomposable says no" true
    (match D.decomposable fused with Error _ -> true | Ok () -> false);
  (match D.plan ~wafers:(2, 1) fused with
  | exception D.Decompose_error _ -> ()
  | _ -> Alcotest.fail "expected Decompose_error for a fused program");
  (* a second kernel reading the first one's output at dx = 1 would
     need an intra-step inter-wafer exchange *)
  let k1 = List.hd p.P.kernels in
  let shift =
    { P.kname = "shift"; output = "shifted"; expr = P.Access (k1.P.output, [ 1; 0; 0 ]) }
  in
  let chained =
    {
      p with
      P.kernels = p.P.kernels @ [ shift ];
      next_state =
        List.map (fun g -> if g = k1.P.output then "shifted" else g) p.P.next_state;
    }
  in
  match D.plan ~wafers:(2, 1) chained with
  | exception D.Decompose_error _ -> ()
  | _ -> Alcotest.fail "expected Decompose_error for a remote intermediate"

let test_plan_module_roundtrip () =
  List.iter
    (fun id ->
      let d = B.find id in
      let pl = D.plan ~wafers:(2, 2) (d.B.make B.Tiny) in
      let m = D.plan_module pl in
      Wsc_ir.Verifier.verify m;
      let s1 = Printer.op_to_string m in
      let s2 = Printer.op_to_string (Parser.parse_string s1) in
      check (id ^ " plan module fixpoint") true (String.equal s1 s2);
      (* the printed plan mentions the wafer-level op *)
      check (id ^ " has wafer_swap") true
        (let re = "dmp.wafer_swap" in
         let len = String.length re in
         let rec find i =
           i + len <= String.length s1 && (String.sub s1 i len = re || find (i + 1))
         in
         find 0))
    [ "jacobian"; "seismic" ]

(* ------------------------------------------------------------------ *)
(* exchange volume property                                            *)
(* ------------------------------------------------------------------ *)

let swap_gen : Dmp.swap_desc QCheck.Gen.t =
  let open QCheck.Gen in
  let* dir = oneofl Dmp.all_directions in
  let* depth = int_range 1 4 in
  let* z_lo = int_range 0 8 in
  let* z_len = int_range 0 8 in
  return { Dmp.dir; depth; z_lo; z_hi = z_lo + z_len }

let prop_exchange_volume =
  QCheck.Test.make ~name:"exchange_volume = Σ depth×(z_hi−z_lo)" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 6) swap_gen))
    (fun swaps ->
      let expect =
        List.fold_left
          (fun acc (s : Dmp.swap_desc) -> acc + (s.Dmp.depth * (s.Dmp.z_hi - s.Dmp.z_lo)))
          0 swaps
      in
      let t = new_value (Temp ([ (0, 4); (0, 4) ], Tensor ([ 10 ], F32))) in
      Dmp.sum_volume swaps = expect
      && Dmp.exchange_volume (Dmp.swap t ~topology:(4, 4) ~swaps) = expect
      && Dmp.exchange_volume (Dmp.wafer_swap t ~topology:(2, 2) ~swaps) = expect)

(* ------------------------------------------------------------------ *)
(* co-simulation bit-identity                                          *)
(* ------------------------------------------------------------------ *)

let engine = lazy (Wsc_serve.Engine.create ())

let run_identical id wafers =
  let d = B.find id in
  let p = d.B.make B.Tiny in
  let refs = MW.reference p in
  let r = MW.run ~engine:(Lazy.force engine) ~wafers p in
  check
    (Printf.sprintf "%s %dx%d bit-identical" id (fst wafers) (snd wafers))
    true
    (MW.grids_bit_identical refs r.MW.grids);
  r

let test_bit_identity_jacobian () =
  ignore (run_identical "jacobian" (2, 1));
  ignore (run_identical "jacobian" (2, 2))

let test_bit_identity_uvkbe () = ignore (run_identical "uvkbe" (2, 2))

(* seismic reads 4 deep: the halo is wider than a 2-wide slice is far
   from its neighbour, exercising deep-halo copies from the globals *)
let test_bit_identity_seismic () = ignore (run_identical "seismic" (2, 1))

let test_cosim_cache_dedup () =
  let e = Lazy.force engine in
  let s0 = Wsc_serve.Engine.cache_stats e in
  let d = B.find "diffusion" in
  let r = MW.run ~engine:e ~wafers:(2, 2) (d.B.make B.Tiny) in
  let s1 = r.MW.cache in
  (* Tiny is 4×4 over 2×2 wafers: all four slices are 2×2, one program *)
  checki "one distinct slice shape" 1 r.MW.distinct_programs;
  checki "one cold compile" 1 (s1.Cache.misses - s0.Cache.misses);
  checki "three cache hits" 3 (s1.Cache.hits - s0.Cache.hits);
  checki "no single-flight dedup" 0 (s1.Cache.dedup_hits - s0.Cache.dedup_hits);
  (* re-running hits the shared engine's cache for every wafer *)
  let r2 = MW.run ~engine:e ~wafers:(2, 2) (d.B.make B.Tiny) in
  let s2 = r2.MW.cache in
  checki "warm re-run misses" 0 (s2.Cache.misses - s1.Cache.misses);
  checki "warm re-run hits" 4 (s2.Cache.hits - s1.Cache.hits)

(* the compile counters are reproducible: two runs on fresh engines
   count the same, one miss per distinct slice shape and a hit for every
   other wafer *)
let test_cosim_cache_counts_deterministic () =
  let d = B.find "jacobian" in
  let counts () =
    let r = MW.run ~engine:(Wsc_serve.Engine.create ()) ~wafers:(2, 2) (d.B.make B.Tiny) in
    (r.MW.distinct_programs, r.MW.cache)
  in
  let distinct, a = counts () in
  let _, b = counts () in
  check "identical counters" true (a = b);
  checki "a miss per shape" distinct a.Cache.misses;
  checki "a hit per other wafer" (4 - distinct) a.Cache.hits;
  checki "no dedup" 0 a.Cache.dedup_hits

let test_no_domain_spawned () =
  let before = Wsc_serve.Pool.domains_spawned () in
  let d = B.find "jacobian" in
  ignore (MW.run ~engine:(Lazy.force engine) ~wafers:(2, 1) (d.B.make B.Tiny));
  checki "2x1 spawns none" before (Wsc_serve.Pool.domains_spawned ());
  ignore (MW.run ~engine:(Lazy.force engine) ~wafers:(2, 2) (d.B.make B.Tiny));
  checki "2x2 spawns none" before (Wsc_serve.Pool.domains_spawned ())

(* ------------------------------------------------------------------ *)
(* wafer-level resilience                                               *)
(* ------------------------------------------------------------------ *)

module Wf = Wsc_faults.Faults.Wafer
module MC = Wsc_multiwafer.Mwcampaign
module CK = Wsc_multiwafer.Checkpoint
module I = Wsc_dialects.Interp
module Json = Wsc_trace.Json

(* These tests deliberately use their own engines: the cache-delta
   assertions above pin exact hit/miss counts on the shared one. *)

let grid_gen : I.grid QCheck.Gen.t =
  let open QCheck.Gen in
  let* nx = int_range 1 4 in
  let* ny = int_range 1 4 in
  let* z = int_range 1 3 in
  let* data = array_size (pure (nx * ny * z)) (float_bound_inclusive 1000.0) in
  pure
    {
      I.gbounds = [ (0, nx); (0, ny) ];
      gelt = Tensor ([ z ], F32);
      gdata = data;
    }

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint take/restore is bit-identical" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) grid_gen))
    (fun grids ->
      let saved = List.map (fun (g : I.grid) -> Array.copy g.I.gdata) grids in
      let ck = CK.take ~epoch:3 grids in
      (* scramble the live state, as a faulty epoch would *)
      List.iter
        (fun (g : I.grid) ->
          Array.iteri (fun i v -> g.I.gdata.(i) <- (2.0 *. v) +. 1.0) g.I.gdata)
        grids;
      CK.restore ck ~into:grids;
      CK.epoch ck = 3
      && CK.bytes ck > 0
      && List.for_all2
           (fun (g : I.grid) orig ->
             Array.length g.I.gdata = Array.length orig
             && Array.for_all2
                  (fun a b ->
                    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
                  g.I.gdata orig)
           grids saved)

let campaign ?(kinds = [ Wf.Halo_drop; Wf.Crash ]) ~wafers ~seeds () =
  MC.run ~bench:"jacobian" ~size:B.Tiny ~wafers ~resilient:true ~kinds
    ~rates:[ 0.25 ] ~seeds ()

let prop_campaign_replay =
  QCheck.Test.make ~name:"campaign replays byte-for-byte (2x1, 2x2)" ~count:3
    (QCheck.make QCheck.Gen.(int_range 1 50))
    (fun seed ->
      List.for_all
        (fun wafers ->
          let a = campaign ~wafers ~seeds:[ seed ] () in
          let b = campaign ~wafers ~seeds:[ seed ] () in
          String.equal (MC.to_string a) (MC.to_string b)
          && String.equal
               (Json.to_string (MC.to_json a))
               (Json.to_string (MC.to_json b)))
        [ (2, 1); (2, 2) ])

(* (campaign, MD5 of its table, MD5 of its JSON) for two campaigns: a
   2x1 halo-drop/crash one, recorded before the PE-level and
   wafer-level sweeps shared one skeleton, and a 2x2 halo-drop/corrupt
   one, whose fault draws are keyed by the side of each halo strip *)
let digests =
  [
    ( "2x1",
      (fun () -> campaign ~wafers:(2, 1) ~seeds:[ 1; 2 ] ()),
      "132b7fdd28ed56db4d61c3b0ce7ecf75",
      "ed5a5dd64f1440081d38040be7d54784" );
    ( "2x2",
      (fun () ->
        campaign ~kinds:[ Wf.Halo_drop; Wf.Halo_corrupt ] ~wafers:(2, 2)
          ~seeds:[ 1; 2 ] ()),
      "badad98a006e9533e2d035a690e72622",
      "611afd874e788e2703032c3bdeae7832" );
  ]

let test_campaign_golden () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (label, run, table, json) ->
      let r = run () in
      Alcotest.(check string) (label ^ " to_string") table (md5 (MC.to_string r));
      Alcotest.(check string) (label ^ " to_json") json
        (md5 (Json.to_string (MC.to_json r))))
    digests

let recovery_of (r : MW.t) =
  match r.MW.recovery with
  | Some rc -> rc
  | None -> Alcotest.fail "expected a recovery report"

let test_null_injector_fault_free () =
  let d = B.find "diffusion" in
  let p = d.B.make B.Tiny in
  let refs = MW.reference p in
  let e = Wsc_serve.Engine.create () in
  let plain = MW.run ~engine:e ~wafers:(2, 1) p in
  check "plain run has no recovery report" true (plain.MW.recovery = None);
  let null = MW.run ~engine:e ~faults:Wf.null ~wafers:(2, 1) p in
  check "Wf.null bit-identical" true
    (MW.grids_bit_identical refs null.MW.grids);
  check "Wf.null has no recovery report" true (null.MW.recovery = None);
  let zero =
    MW.run ~engine:e ~faults:(Wf.create Wf.default_config) ~wafers:(2, 1) p
  in
  check "zero-rate injector bit-identical" true
    (MW.grids_bit_identical refs zero.MW.grids);
  let rc = recovery_of zero in
  checki "zero-rate: no rollbacks" 0 rc.MW.rollbacks;
  checki "zero-rate: no detections" 0 rc.MW.detections;
  check "zero-rate: not degraded" false rc.MW.degraded

let test_recovery_bit_identical () =
  let cells =
    List.concat_map
      (fun wafers ->
        let r =
          MC.run ~bench:"jacobian" ~size:B.Tiny ~wafers ~resilient:true
            ~kinds:[ Wf.Halo_drop; Wf.Halo_corrupt; Wf.Crash ] ~rates:[ 0.25 ]
            ~seeds:[ 1 ] ()
        in
        List.iter
          (fun (c : MC.cell) ->
            check
              (Printf.sprintf "%s %dx%d recovered bit-identical"
                 (Wf.kind_to_string c.kind) (fst wafers) (snd wafers))
              false (MC.unrecovered r c))
          r.MC.cells;
        r.MC.cells)
      [ (2, 1); (2, 2) ]
  in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  check "the schedule actually fired" true (total (fun c -> c.MC.injected) > 0);
  check "recovery actually rolled back" true
    (total (fun c -> c.MC.rollbacks) > 0)

(* the verdict on doctored copies of one recovered cell (recovered
   cells themselves: above) *)
let test_unrecovered_verdict () =
  let r = campaign ~wafers:(2, 1) ~seeds:[ 1 ] () in
  let c = { (List.hd r.MC.cells) with MC.bit_identical = false } in
  let off = { r with header = { r.header with resilient = false } } in
  check "not bit-identical" true (MC.unrecovered r c);
  check "degraded" false (MC.unrecovered r { c with degraded = true });
  check "error" true (MC.unrecovered r { c with completed = false; error = Some "x" });
  check "protocol off" false (MC.unrecovered off c)

let test_loss_degrades_gracefully () =
  let d = B.find "jacobian" in
  let p = d.B.make B.Tiny in
  let faults =
    Wf.create (Wf.config_for Wf.Loss ~rate:0.9 ~seed:1 ~resilient:true)
  in
  let r = MW.run ~faults ~wafers:(2, 1) p in
  let rc = recovery_of r in
  check "degraded" true rc.MW.degraded;
  check "lost wafers recorded" true (rc.MW.lost <> []);
  check "taint covers the lost wafers" true
    (List.for_all (fun w -> List.mem w rc.MW.tainted) rc.MW.lost)

let test_crash_unprotected_then_clean_rerun () =
  let d = B.find "jacobian" in
  let p = d.B.make B.Tiny in
  let refs = MW.reference p in
  let e = Wsc_serve.Engine.create () in
  let faults =
    Wf.create (Wf.config_for Wf.Crash ~rate:0.9 ~seed:1 ~resilient:false)
  in
  (match MW.run ~engine:e ~faults ~wafers:(2, 1) p with
  | exception MW.Cosim_error _ -> ()
  | _ -> Alcotest.fail "expected Cosim_error with resilience disabled");
  (* the failed run must leave the engine clean: an
     identical fault-free run on the same engine succeeds, from cache *)
  let r = MW.run ~engine:e ~wafers:(2, 1) p in
  check "re-run on the same engine bit-identical" true
    (MW.grids_bit_identical refs r.MW.grids);
  check "re-run served from cache" true (r.MW.cache.Cache.hits > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "multiwafer"
    [
      ( "decompose",
        [
          Alcotest.test_case "balanced split" `Quick test_split;
          Alcotest.test_case "plan geometry and swap trimming" `Quick
            test_plan_geometry;
          Alcotest.test_case "wafer and PE swaps share directions" `Quick
            test_plan_directions_match_pe_level;
          Alcotest.test_case "infeasible and fused programs rejected" `Quick
            test_plan_rejections;
          Alcotest.test_case "plan module round-trips" `Quick
            test_plan_module_roundtrip;
        ] );
      ("dmp", [ QCheck_alcotest.to_alcotest prop_exchange_volume ]);
      ( "cosim",
        [
          Alcotest.test_case "jacobian bit-identical (2x1, 2x2)" `Quick
            test_bit_identity_jacobian;
          Alcotest.test_case "uvkbe bit-identical (2x2)" `Quick
            test_bit_identity_uvkbe;
          Alcotest.test_case "seismic deep-halo bit-identical (2x1)" `Quick
            test_bit_identity_seismic;
          Alcotest.test_case "equal slices share one cache entry" `Quick
            test_cosim_cache_dedup;
          Alcotest.test_case "compile counters are deterministic" `Quick
            test_cosim_cache_counts_deterministic;
          Alcotest.test_case "co-simulation spawns no domain" `Quick
            test_no_domain_spawned;
        ] );
      ( "resilience",
        [
          QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
          QCheck_alcotest.to_alcotest prop_campaign_replay;
          Alcotest.test_case "campaign golden digests" `Quick
            test_campaign_golden;
          Alcotest.test_case "fault-free path unchanged by null injectors"
            `Quick test_null_injector_fault_free;
          Alcotest.test_case "recovered runs bit-identical" `Quick
            test_recovery_bit_identical;
          Alcotest.test_case "unrecovered-cell verdict" `Quick
            test_unrecovered_verdict;
          Alcotest.test_case "exhausted retries degrade gracefully" `Quick
            test_loss_degrades_gracefully;
          Alcotest.test_case "unprotected crash raises; engine stays clean"
            `Quick test_crash_unprotected_then_clean_rerun;
        ] );
    ]
