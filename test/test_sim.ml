(* Tests for the fabric simulator: end-to-end correctness of the compiled
   programs against the sequential reference, on both WSE generations and
   under every pipeline variant; plus the machine model's guard rails and
   the statistics the performance study relies on. *)

module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Machine = Wsc_wse.Machine
module Fabric = Wsc_wse.Fabric
module Host = Wsc_wse.Host

let check = Alcotest.(check bool)

let simulate ?(options = Core.Pipeline.default_options)
    ?(machine = Machine.wse3) (p : P.t) : Host.t * I.grid list =
  let compiled = Core.Pipeline.compile ~options (P.compile p) in
  let h = Host.simulate machine compiled (P.init_grids p) in
  (h, Host.read_all h)

let assert_matches name (p : P.t) out =
  let ref_grids = P.run_reference p in
  let maxd = I.max_abs_diff_list ref_grids out in
  if maxd > 1e-4 then Alcotest.failf "%s: fabric differs by %g" name maxd

(* ------------------------------------------------------------------ *)
(* end-to-end correctness                                              *)
(* ------------------------------------------------------------------ *)

let test_all_benchmarks_both_machines () =
  List.iter
    (fun (d : B.descr) ->
      List.iter
        (fun machine ->
          let p = d.make B.Tiny in
          let _, out = simulate ~machine p in
          assert_matches (d.id ^ " on " ^ machine.Machine.name) p out)
        [ Machine.wse2; Machine.wse3 ])
    B.all

let test_variants_end_to_end () =
  let base = Core.Pipeline.default_options in
  let variants =
    [
      ("2 chunks", { base with num_chunks_override = Some 2 });
      ("no promotion", { base with promote_coefficients = false });
      ("no one-shot", { base with one_shot_reduction = false });
      ("no fmac", { base with fuse_fmac = false });
      ("no varith", { base with use_varith = false });
    ]
  in
  List.iter
    (fun (vname, options) ->
      List.iter
        (fun (d : B.descr) ->
          let p = d.make B.Tiny in
          let _, out = simulate ~options p in
          assert_matches (d.id ^ " " ^ vname) p out)
        B.all)
    variants

let test_multi_output_passthrough () =
  (* a producer whose value is both consumed by the next kernel and kept
     as state: inlining passes it through, giving a two-result apply that
     lowers via pack mode with two output buffers rotating *)
  let expr_a = P.Add (P.Access ("u", [ 1; 0; 0 ]), P.Access ("u", [ -1; 0; 0 ])) in
  let expr_b =
    P.Add (P.Mul (P.Const 0.5, P.Access ("a", [ 0; 0; 0 ])), P.Access ("u", [ 0; 1; 0 ]))
  in
  let p =
    {
      P.pname = "passthru";
      frontend = "test";
      extents = (4, 4, 6);
      halo = 1;
      state = [ "u"; "a_keep" ];
      kernels =
        [
          { P.kname = "ka"; output = "a"; expr = expr_a };
          { P.kname = "kb"; output = "b"; expr = expr_b };
        ];
      next_state = [ "b"; "a" ];
      iterations = 3;
      use_loop = true;
      dsl_loc = 0;
    }
  in
  let _, out = simulate p in
  assert_matches "multi-output passthrough" p out

let test_uvkbe_no_inlining () =
  let options = { Core.Pipeline.default_options with inline_stencils = false } in
  let p = (B.find "uvkbe").make B.Tiny in
  let _, out = simulate ~options p in
  assert_matches "uvkbe chained" p out

let test_more_iterations () =
  (* buffer rotation must hold up over many steps (odd and even counts) *)
  List.iter
    (fun n ->
      List.iter
        (fun id ->
          let p = (B.find id).make_n B.Tiny n in
          let _, out = simulate p in
          assert_matches (Printf.sprintf "%s x%d" id n) p out)
        [ "jacobian"; "acoustic" ])
    [ 1; 4; 7 ];
  (* zero steps lower and run too; a loop-free uvkbe would have no apply *)
  List.iter
    (fun id ->
      let p = (B.find id).make_n B.Tiny 0 in
      let _, out = simulate p in
      assert_matches (id ^ " x0") p out)
    [ "jacobian"; "uvkbe" ]

let test_rectangular_grid () =
  let p = (B.find "diffusion").make_n (B.Proxy (3, 7)) 2 in
  let _, out = simulate p in
  assert_matches "3x7 grid" p out

let test_boundary_dirichlet () =
  (* halo cells of the result equal the initial data exactly *)
  let p = (B.find "jacobian").make B.Tiny in
  let h, out = simulate p in
  ignore h;
  let g0 = I.grid_of_typ (P.field_type p) in
  I.init_grid g0;
  let g0 = I.retensorize_grid g0 in
  let out0 = List.hd out in
  let p = [| 0; 0 |] in
  I.iter_box g0.I.gbounds p (fun () ->
      let x = p.(0) and y = p.(1) in
      if x < 0 || x >= 4 || y < 0 || y >= 4 then
        match (I.grid_get g0 [ x; y ], I.grid_get out0 [ x; y ]) with
        | I.Rtensor a, I.Rtensor b ->
            Array.iteri
              (fun i v -> if v <> b.(i) then Alcotest.fail "halo column changed")
              a
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* machine model guard rails                                           *)
(* ------------------------------------------------------------------ *)

let test_grid_too_large () =
  let p = (B.find "jacobian").make_n (B.Proxy (800, 4)) 1 in
  let compiled = Core.Pipeline.compile (P.compile p) in
  (* 800 > the WSE2's 750-wide fabric *)
  match Host.simulate Machine.wse2 compiled (P.init_grids p) with
  | exception Fabric.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected fabric-size error"

let test_wrong_state_count () =
  let p = (B.find "acoustic").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  match Host.simulate Machine.wse3 compiled [ List.hd (P.init_grids p) ] with
  | exception Host.Host_error _ -> ()
  | _ -> Alcotest.fail "expected state-count error"

(* ------------------------------------------------------------------ *)
(* timing and statistics                                               *)
(* ------------------------------------------------------------------ *)

let test_wse3_faster_than_wse2 () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let h2, _ = simulate ~machine:Machine.wse2 p in
      let h3, _ = simulate ~machine:Machine.wse3 p in
      check
        (d.id ^ ": WSE3 beats WSE2")
        true
        (Fabric.elapsed_cycles h3.sim < Fabric.elapsed_cycles h2.sim))
    B.all

let test_clock_monotone_in_iterations () =
  let t n =
    let p = (B.find "jacobian").make_n B.Tiny n in
    let h, _ = simulate p in
    Fabric.elapsed_cycles h.sim
  in
  let t2 = t 2 and t4 = t 4 and t6 = t 6 in
  check "t4 > t2" true (t4 > t2);
  check "t6 > t4" true (t6 > t4);
  (* steady state: equal increments within tolerance *)
  let d1 = t4 -. t2 and d2 = t6 -. t4 in
  check "linear steady state" true (Float.abs (d1 -. d2) < 0.2 *. d1)

let test_flops_match_expectation () =
  (* measured useful FLOPs = points x iterations x flops/point *)
  let d = B.find "jacobian" in
  let p = d.make_n B.Tiny 2 in
  let h, _ = simulate p in
  let stats = Fabric.total_stats h.sim in
  let nx, ny = B.xy_extents B.Tiny in
  let _, _, nz = p.P.extents in
  let expected = float_of_int (nx * ny * nz * 2 * 12) in
  (* 6-point jacobian, algorithmic counting: four promoted columns reduce
     with fmacs off the fabric (8 FLOPs) plus two z-neighbour fmacs (4) *)
  let ratio = stats.flops /. expected in
  check "flops in the expected band" true (ratio > 0.7 && ratio < 1.3)

let test_wse2_sends_cost_more () =
  let p = (B.find "jacobian").make B.Tiny in
  let h2, _ = simulate ~machine:Machine.wse2 p in
  let h3, _ = simulate ~machine:Machine.wse3 p in
  let s2 = (Fabric.total_stats h2.sim).send_cycles in
  let s3 = (Fabric.total_stats h3.sim).send_cycles in
  check "self-send doubles injection" true (s2 > 1.9 *. s3)

let test_task_activations_positive () =
  let p = (B.find "seismic").make B.Tiny in
  let h, _ = simulate p in
  let stats = Fabric.total_stats h.sim in
  check "tasks ran" true (stats.task_activations > 0);
  check "data moved" true (stats.elems_sent > 0);
  check "memory traffic" true (stats.mem_bytes > 0.0)

(* ------------------------------------------------------------------ *)
(* scheduler: visit-order independence, deadlock diagnostics, task     *)
(* order                                                               *)
(* ------------------------------------------------------------------ *)

(* per-PE statistics of a finished run, column-major *)
let per_pe_stats (sim : Fabric.t) =
  Array.to_list sim.Fabric.pes
  |> List.concat_map (fun col ->
         Array.to_list (Array.map (fun pe -> pe.Fabric.stats) col))

(* Bound on live send records: the scheduler holds a PE once it has
   [c = Fabric.max_live_sends_per_pe] records its receivers have not
   consumed, so the table never holds more than c records per PE,
   whatever the iteration count. *)
let live_bound (sim : Fabric.t) = Fabric.max_live_sends_per_pe * sim.width * sim.height

(* seed of the permuted PE visit order the order checks compare
   production order against *)
let visit_seed = 7

(* load [p] and run it to completion, in production order or, with
   [visit_seed], in a seeded permutation of it *)
let run_in_order ?(machine = Machine.wse3) ?faults ?visit_seed (p : P.t) : Host.t =
  let compiled = Core.Pipeline.compile (P.compile p) in
  let _, program = Core.Pipeline.modules_of compiled in
  let h = Host.load ?faults machine program (P.init_grids p) in
  Fabric.run_to_completion ?visit_seed h.Host.sim;
  h

(* one run of [p]: (cycles, per-PE stats, fields), peak live send
   records, records left at the end, and the bound; the host handle
   stays local so the PE grid is collectable between runs *)
let run_summary ?machine ?visit_seed (p : P.t) =
  let h = run_in_order ?machine ?visit_seed p in
  let sim = h.Host.sim in
  ( (Fabric.elapsed_cycles sim, per_pe_stats sim, Host.read_all h),
    (Fabric.sched_stats sim).peak_sends_live,
    Hashtbl.length sim.sends,
    live_bound sim )

let assert_same_run name (c1, s1, o1) (c2, s2, o2) =
  check (name ^ ": elapsed cycles bit-identical") true (c1 = c2);
  List.iteri
    (fun i (a, b) ->
      match Fabric.stats_diff a b with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: PE %d stats differ: %s" name i msg)
    (List.combine s1 s2);
  let maxd = I.max_abs_diff_list o1 o2 in
  check (name ^ ": outputs bit-identical") true (maxd = 0.0)

let check_bound name (peak, left, bound) =
  if peak > bound then Alcotest.failf "%s: peak %d live records > %d" name peak bound;
  if left <> 0 then Alcotest.failf "%s: %d records never freed" name left

(* run [p] in production order and in the permuted order [seed]: the
   permuted run must match bit for bit, and both keep the send table
   within the bound and leave it empty.  The peak itself depends on the
   order, so it is bounded, not compared; returns the production
   order's *)
let assert_order_independent ?machine ?(seed = visit_seed) name (p : P.t) : int =
  let reference, peak, left, bound = run_summary ?machine p in
  check_bound name (peak, left, bound);
  let run, peak', left', bound' = run_summary ?machine ~visit_seed:seed p in
  let name' = Printf.sprintf "%s [visit seed %d]" name seed in
  assert_same_run name' reference run;
  check_bound name' (peak', left', bound');
  peak

(* the driver's results are equivalent across PE visit orders *)
let test_visit_order_tiny () =
  List.iter
    (fun (d : B.descr) ->
      ignore (assert_order_independent (d.id ^ " tiny") (d.make B.Tiny)))
    B.all

(* qcheck: for any fuzzer-generated program, a permuted visit order
   produces bit-identical cycles, stats and outputs *)
let prop_order_independent_on_fuzzed =
  QCheck.Test.make ~name:"order-independent on fuzzed programs"
    ~count:12 QCheck.small_nat (fun index ->
      let p = Wsc_harden.Fuzz.generate ~seed:23 ~index in
      ignore (assert_order_independent ~seed:index (Wsc_harden.Fuzz.describe p) p);
      true)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_deadlock_diagnostic () =
  let p = (B.find "jacobian").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let _, program = Core.Pipeline.modules_of compiled in
  let h = Host.load Machine.wse3 program (P.init_grids p) in
  (* silence PE(1,0): convince its iteration counter it has already run
     every timestep, so it unblocks immediately and never sends; its
     neighbours then starve waiting on the first exchange *)
  Hashtbl.find h.Host.sim.Fabric.pes.(1).(0).Fabric.scalars "iteration" := 1000;
  match Fabric.run_to_completion h.Host.sim with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Fabric.Sim_error msg ->
      check "report names the condition" true (contains msg "deadlock");
      check "report names the exchange" true
        (contains msg "blocked on exchange (apply_id=");
      check "report names the silent sender" true (contains msg "missing sender PE(1,0)")

(* the byte-estimate guard refuses a grid within the PE limit whose
   program memory plus send-table bound exceeds the byte limit, before
   allocating any PE, and says how much it would have needed *)
let test_memory_guard () =
  let p = (B.find "jacobian").make_n (B.Proxy (256, 256)) 1 in
  let _, program = Core.Pipeline.modules_of (Core.Pipeline.compile (P.compile p)) in
  check "within the PE limit" true (256 * 256 <= Fabric.max_simulated_pes);
  match Fabric.create Machine.wse3 program with
  | _ -> Alcotest.fail "expected the memory guard to refuse 256x256 PEs"
  | exception Fabric.Sim_error msg ->
      let key = "needs an estimated " in
      let rec find i =
        if i + String.length key > String.length msg then
          Alcotest.failf "no estimate in %S" msg
        else if String.sub msg i (String.length key) = key then i
        else find (i + 1)
      in
      let i = find 0 + String.length key in
      let estimate =
        Scanf.sscanf (String.sub msg i (String.length msg - i)) "%d" Fun.id
      in
      check "estimate exceeds the limit" true (estimate > Fabric.max_simulated_bytes);
      check "message names the limit" true
        (contains msg (Printf.sprintf "limit of %d bytes" Fabric.max_simulated_bytes))

(* the estimate prices what [create] allocates: on an 8x8 proxy of every
   benchmark, at least the bytes reachable from the PEs (buffers as
   8-byte host floats, their tables, the PE records) *)
let test_memory_estimate_covers_pes () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make_n (B.Proxy (8, 8)) 1 in
      let _, program = Core.Pipeline.modules_of (Core.Pipeline.compile (P.compile p)) in
      let sim = Fabric.create Machine.wse3 program in
      let reachable = 8 * Obj.reachable_words (Obj.repr sim.Fabric.pes) in
      let estimate = Fabric.estimate_bytes sim in
      if estimate < reachable then
        Alcotest.failf "%s: estimate %d below the %d bytes the PEs hold" d.id estimate
          reachable)
    B.all

(* the deadlock strikes after earlier exchanges were consumed and their
   records freed: PE(1,0) runs two exchanges and then finishes early, so
   its neighbours block on the third.  The report must still tell the
   freed records (sent, consumed) from the one that was never sent *)
let test_deadlock_after_frees () =
  let n = 6 in
  let p = (B.find "jacobian").make_n B.Tiny n in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let _, program = Core.Pipeline.modules_of compiled in
  let h = Host.load Machine.wse3 program (P.init_grids p) in
  Hashtbl.find h.Host.sim.Fabric.pes.(1).(0).Fabric.scalars "iteration" := n - 2;
  match Fabric.run_to_completion h.Host.sim with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Fabric.Sim_error msg ->
      (* PE(1,0)'s three grid neighbours consumed exchanges 0 and 1 and
         wait on exchange 2, which only PE(1,0) never sent *)
      List.iter
        (fun (x, y) ->
          let line =
            Printf.sprintf
              "PE(%d,%d) blocked on exchange (apply_id=0, seq=2): missing sender \
               PE(1,0)\n"
              x y
          in
          if not (contains msg line) then
            Alcotest.failf "report lacks %S:\n%s" line msg)
        [ (0, 0); (2, 0); (1, 1) ];
      (* nothing is reported blocked on the exchanges whose records were
         consumed and freed *)
      check "freed exchanges are not reported" true
        (not (contains msg "seq=0") && not (contains msg "seq=1"))

let test_peak_live_bounded () =
  List.iter
    (fun machine ->
      List.iter
        (fun (d : B.descr) ->
          let peak_of n =
            assert_order_independent ~machine
              (Printf.sprintf "%s %s n=%d" machine.Machine.name d.id n)
              (d.make_n (B.Proxy (8, 8)) n)
          in
          let p8 = peak_of 8 and p32 = peak_of 32 in
          (* a table that never frees gains one record per PE per
             iteration, 24 x 64 more from n=8 to n=32; the peak may move
             by less than one iteration's worth *)
          if p32 - p8 >= 64 then
            Alcotest.failf "%s %s: peak grew from %d (n=8) to %d (n=32)"
              machine.Machine.name d.id p8 p32)
        B.all)
    [ Machine.wse3; Machine.wse2 ]

(* qcheck: on fuzzer-generated programs, however many iterations run,
   the send table stays within the per-PE bound and is empty at the end,
   in production and in a permuted visit order *)
let prop_live_sends_bounded =
  QCheck.Test.make ~name:"live send records bounded on fuzzed programs"
    ~count:12
    QCheck.(pair small_nat (int_range 1 24))
    (fun (index, iterations) ->
      let p = { (Wsc_harden.Fuzz.generate ~seed:29 ~index) with P.iterations } in
      List.iter
        (fun visit_seed ->
          let _, peak, left, bound = run_summary ?visit_seed p in
          if peak > bound || left <> 0 then
            QCheck.Test.fail_reportf "%s n=%d%s: peak %d (bound %d), %d left"
              (Wsc_harden.Fuzz.describe p) iterations
              (match visit_seed with
              | None -> ""
              | Some s -> Printf.sprintf " [visit seed %d]" s)
              peak bound left)
        [ None; Some visit_seed ];
      true)

(* a halted PE never consumes: with resilience its neighbours degrade
   past it, and records only it would have read stay in the table until
   the end of the run.  The run must still replay bit-identically, in
   production order and in a permuted one *)
let test_halt_replay_with_freeing () =
  let module Faults = Wsc_faults.Faults in
  let p = (B.find "jacobian").make B.Tiny in
  List.iter
    (fun seed ->
      let cfg = Faults.config_for Faults.Halt ~rate:0.05 ~seed ~resilient:true in
      let run visit_seed =
        let faults = Faults.create cfg in
        let h = run_in_order ~faults ?visit_seed p in
        let st = Faults.stats faults in
        ( (Fabric.elapsed_cycles h.sim, per_pe_stats h.sim, Host.read_all h),
          (Host.fault_report h, Host.validity h),
          (st.Faults.halts, st.Faults.halt_timeouts),
          Hashtbl.length h.sim.sends )
      in
      let tag = Printf.sprintf "halt seed %d" seed in
      let re, fe, ke, left = run None in
      check (tag ^ ": the run degraded past a halted PE") true (snd ke > 0);
      check (tag ^ ": records only halted PEs would read are kept") true (left > 0);
      (* a second run replays the first exactly, and so does a permuted
         one *)
      List.iter
        (fun visit_seed ->
          let name =
            match visit_seed with
            | None -> tag ^ " [replay]"
            | Some s -> Printf.sprintf "%s [visit seed %d]" tag s
          in
          let r, f, k, _ = run visit_seed in
          assert_same_run name re r;
          check (name ^ ": fault report and validity identical") true (f = fe);
          check (name ^ ": halt counters identical") true (k = ke))
        [ None; Some visit_seed ])
    [ 1; 4 ]

(* a fault campaign cell must replay bit-identically in a permuted visit
   order: same injection decisions, same integer recovery bookkeeping,
   same validity mask, same fault report.  (Only [recovery_cycles] — a
   float summed over PEs in visit order — is exempt.) *)
let test_fault_replay () =
  let module Faults = Wsc_faults.Faults in
  let p = (B.find "jacobian").make_n B.Tiny 3 in
  let cfg =
    {
      Faults.default_config with
      seed = 11;
      drop_rate = 0.05;
      corrupt_rate = 0.02;
      resilience = Some Faults.default_resilience;
    }
  in
  let run visit_seed =
    let faults = Faults.create cfg in
    let h = run_in_order ~faults ?visit_seed p in
    let st = Faults.stats faults in
    ( Fabric.elapsed_cycles h.sim,
      Fabric.total_stats h.sim,
      Host.read_all h,
      Host.fault_report h,
      Host.validity h,
      ( st.Faults.drops,
        st.Faults.corrupts,
        st.Faults.stalls,
        st.Faults.halts,
        st.Faults.backpressures,
        st.Faults.retries,
        st.Faults.giveups,
        st.Faults.halt_timeouts ) )
  in
  let ce, se, oe, re, ve, ke = run None in
  check "faults actually fired" true (let d, c, _, _, _, _, _, _ = ke in d + c > 0);
  let name = Printf.sprintf "faults [visit seed %d]" visit_seed in
  let c, s, o, r, v, k = run (Some visit_seed) in
  check (name ^ ": elapsed cycles") true (c = ce);
  (match Fabric.stats_diff se s with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: pe_stats differ: %s" name msg);
  let maxd = I.max_abs_diff_list oe o in
  check (name ^ ": outputs bit-identical") true (maxd = 0.0);
  check (name ^ ": fault report identical") true (r = re);
  check (name ^ ": validity mask identical") true (v = ve);
  check (name ^ ": fault counters identical") true (k = ke)

(* qcheck: when a run exceeds its scan budget, it fails with the
   divergence error on the first PE scan beyond [max_rounds] whole-grid
   rescans — exactly [max_rounds * width * height] scans — for
   max_rounds 1 to 3, whatever the iteration count *)
let prop_budget_trips_identically =
  let module T = QCheck in
  T.Test.make ~name:"shared scan budget trips identically"
    ~count:3
    (T.make ~print:string_of_int (T.Gen.int_range 8 32))
    (fun iterations ->
      let p = (B.find "jacobian").make_n B.Tiny iterations in
      let _, program = Core.Pipeline.modules_of (Core.Pipeline.compile (P.compile p)) in
      List.iter
        (fun max_rounds ->
          let h = Host.load Machine.wse3 program (P.init_grids p) in
          let sim = h.Host.sim in
          let name = Printf.sprintf "n=%d max_rounds=%d" iterations max_rounds in
          match Fabric.run_to_completion ~max_rounds sim with
          | () -> T.Test.fail_reportf "%s: expected the budget to trip" name
          | exception Fabric.Sim_error msg ->
              if msg <> "simulation did not converge" then
                T.Test.fail_reportf "%s: unexpected error: %s" name msg;
              let scans = (Fabric.sched_stats sim).scans in
              let budget = max_rounds * sim.width * sim.height in
              if scans <> budget then
                T.Test.fail_reportf "%s: tripped after %d scans, budget %d" name scans
                  budget)
        [ 1; 2; 3 ];
      true)

(* a 1x1 program of two local tasks, "early" and "late", each storing
   its own mark (7 and 8) into the scalar "mark" *)
let task_order_sim () =
  let module Csl = Core.Csl in
  let module Bld = Wsc_ir.Builder in
  let open Wsc_ir.Ir in
  let module Arith = Wsc_dialects.Arith in
  let b = Bld.create () in
  Bld.insert0 b (Csl.global_scalar ~name:"mark" ~typ:I32 ~init:(Int_attr 0));
  let mark_task name id v =
    Bld.insert0 b
      (Csl.task ~name ~kind:Csl.Local_task ~id (fun tb ->
           let c = Bld.insert tb (Arith.constant_i v) in
           Bld.insert0 tb (Csl.store_scalar ~name:"mark" c);
           Bld.insert0 tb (Csl.return_ ())))
  in
  mark_task "early" 1 7;
  mark_task "late" 2 8;
  let program = Csl.module_ ~kind:Csl.Program ~name:"task_order" (Bld.ops b) in
  List.iter
    (fun (k, v) -> set_attr program k (Int_attr v))
    [
      ("width", 1); ("height", 1); ("memory_bytes", 64);
      ("z_halo", 0); ("zfull", 1); ("nz", 1);
    ];
  let sim = Fabric.create Machine.wse3 program in
  let pe = sim.Fabric.pes.(0).(0) in
  (sim, pe, fun () -> !(Hashtbl.find pe.Fabric.scalars "mark"))

let test_task_order_earliest_first () =
  (* regression for the dispatch-order bug: the hardware scheduler runs
     the queued task with the earliest activation time, not the one that
     was queued first *)
  let sim, pe, mark = task_order_sim () in
  (* two activations queued out of insertion order: "late" was inserted
     first but activates at t=100, "early" second but activates at t=50 *)
  Fabric.queue_task pe ~at:100.0 "late";
  Fabric.queue_task pe ~at:50.0 "early";
  check "first pop ran" true (Fabric.run_tasks sim pe);
  check "earliest activation dispatched first" true (mark () = 7);
  check "clock did not jump to the later activation" true (pe.Fabric.clock < 100.0);
  check "second pop ran" true (Fabric.run_tasks sim pe);
  check "later activation dispatched second" true (mark () = 8);
  check "queue drained" true (Fabric.queued_tasks pe = []);
  check "empty queue pops nothing" true (not (Fabric.run_tasks sim pe))

let test_task_order_ties () =
  (* equal activation times dispatch in insertion order, including
     behind an earlier activation queued last *)
  let sim, pe, mark = task_order_sim () in
  List.iter
    (fun (at, task) -> Fabric.queue_task pe ~at task)
    [ (40.0, "late"); (40.0, "early"); (40.0, "late"); (10.0, "early") ];
  check "dispatch order listed" true
    (Fabric.queued_tasks pe
    = [ (10.0, "early"); (40.0, "late"); (40.0, "early"); (40.0, "late") ]);
  let marks =
    List.init 4 (fun _ ->
        ignore (Fabric.run_tasks sim pe);
        mark ())
  in
  check "earliest first, then ties in insertion order" true (marks = [ 7; 8; 7; 8 ]);
  check "queue drained" true (Fabric.queued_tasks pe = [])

(* ------------------------------------------------------------------ *)
(* custom initial data (host interface)                                *)
(* ------------------------------------------------------------------ *)

let test_custom_initial_data () =
  (* a constant field is a fixed point of the jacobian average *)
  let p = (B.find "jacobian").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let g = I.grid_of_typ (P.field_type p) in
  Array.fill g.I.gdata 0 (Array.length g.I.gdata) 3.5;
  let h = Host.simulate Machine.wse3 compiled [ I.retensorize_grid g ] in
  let out = Host.read_state h 0 in
  Array.iter
    (fun v -> if Float.abs (v -. 3.5) > 1e-5 then Alcotest.fail "not a fixed point")
    out.I.gdata

(* load then read back without running: the grids come back bit for bit.
   uvkbe's four state grids pin the per-slot slicing of the ring columns
   the host keeps for readback.  Its slot 0 is read through the output
   pointer the last apply writes, so each result pointer is first aimed
   at its state buffer, where a run of no timesteps would leave it *)
let test_load_readback_roundtrip () =
  let p = (B.find "uvkbe").make B.Tiny in
  let _, program = Core.Pipeline.modules_of (Core.Pipeline.compile (P.compile p)) in
  (* the initial grids are equal: offset each slot so a column read
     from the wrong slot shows *)
  let init =
    List.mapi
      (fun j (g : I.grid) ->
        Array.map_inplace (fun v -> v +. float_of_int j) g.I.gdata;
        g)
      (P.init_grids p)
  in
  check "four state grids" true (List.length init = 4);
  let h = Host.load Machine.wse3 program init in
  Array.iter
    (Array.iter (fun (pe : Fabric.pe) ->
         List.iteri
           (fun j ptr ->
             Hashtbl.find pe.ptrs ptr
             := !(Hashtbl.find pe.ptrs (Printf.sprintf "ptr_state%d" j)))
           h.result_ptrs))
    h.sim.pes;
  let out = Host.read_all h in
  List.iter2
    (fun (a : I.grid) (b : I.grid) ->
      check "bounds" true (a.I.gbounds = b.I.gbounds);
      check "element type" true (a.I.gelt = b.I.gelt);
      check "a fresh grid" true (a.I.gdata != b.I.gdata);
      check "same bits" true
        (Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           a.I.gdata b.I.gdata))
    init out

let () =
  Alcotest.run "sim"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "all benchmarks, both machines" `Quick
            test_all_benchmarks_both_machines;
          Alcotest.test_case "pipeline variants" `Slow test_variants_end_to_end;
          Alcotest.test_case "uvkbe without inlining" `Quick test_uvkbe_no_inlining;
          Alcotest.test_case "multi-output passthrough" `Quick
            test_multi_output_passthrough;
          Alcotest.test_case "iteration counts" `Quick test_more_iterations;
          Alcotest.test_case "rectangular grid" `Quick test_rectangular_grid;
          Alcotest.test_case "dirichlet boundary" `Quick test_boundary_dirichlet;
        ] );
      ( "guards",
        [
          Alcotest.test_case "grid too large" `Quick test_grid_too_large;
          Alcotest.test_case "wrong state count" `Quick test_wrong_state_count;
          Alcotest.test_case "memory estimate too large" `Quick test_memory_guard;
          Alcotest.test_case "memory estimate covers the PEs" `Quick
            test_memory_estimate_covers_pes;
        ] );
      ( "timing",
        [
          Alcotest.test_case "wse3 faster" `Quick test_wse3_faster_than_wse2;
          Alcotest.test_case "monotone clock" `Quick test_clock_monotone_in_iterations;
          Alcotest.test_case "flop accounting" `Quick test_flops_match_expectation;
          Alcotest.test_case "self-send cost" `Quick test_wse2_sends_cost_more;
          Alcotest.test_case "stats positive" `Quick test_task_activations_positive;
        ] );
      ( "scheduler",
        Alcotest.test_case "driver equivalence (tiny)" `Quick test_visit_order_tiny
        :: Alcotest.test_case "deadlock diagnostic" `Quick test_deadlock_diagnostic
        :: Alcotest.test_case "deadlock after freed exchanges" `Quick
             test_deadlock_after_frees
        :: Alcotest.test_case "peak live send records bounded" `Slow
             test_peak_live_bounded
        :: Alcotest.test_case "halted-PE replay with record freeing" `Quick
             test_halt_replay_with_freeing
        :: Alcotest.test_case "fault replay across visit orders" `Quick
             test_fault_replay
        :: Alcotest.test_case "earliest activation first" `Quick
             test_task_order_earliest_first
        :: Alcotest.test_case "equal activations in insertion order" `Quick
             test_task_order_ties
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_order_independent_on_fuzzed;
               prop_budget_trips_identically;
               prop_live_sends_bounded;
             ] );
      ( "host",
        [
          Alcotest.test_case "custom initial data" `Quick test_custom_initial_data;
          Alcotest.test_case "load/readback round trip" `Quick
            test_load_readback_roundtrip;
        ] );
    ]
