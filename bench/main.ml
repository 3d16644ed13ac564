(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig4    -- one experiment
     experiments: fig4 fig5 fig6 fig7 tab1 tflops ablations weak serve
                  trace multiwafer mwfaults tune

   Absolute numbers come from the fabric simulator and the calibrated
   machine models (see DESIGN.md); the claims under reproduction are the
   shapes: who wins, by roughly what factor, and where kernels sit
   relative to the rooflines. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module WP = Wsc_perf.Wse_perf
module Machine = Wsc_wse.Machine
module F = Wsc_wse.Fabric

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: WSE2 vs WSE3 across benchmarks, large problem size        *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header
    "Figure 4: WSE2 vs WSE3 performance, large problem size (GPts/s)\n\
     paper shape: WSE3 > WSE2 on every benchmark, via upgraded switching";
  Printf.printf "%-10s %12s %12s %8s\n" "benchmark" "WSE2 GPts/s" "WSE3 GPts/s"
    "WSE3/WSE2";
  List.iter
    (fun id ->
      let d = B.find id in
      let m2 = WP.measure ~machine:Machine.wse2 ~size:B.Large d in
      let m3 = WP.measure ~machine:Machine.wse3 ~size:B.Large d in
      Printf.printf "%-10s %12.0f %12.0f %7.2fx\n" id m2.gpts_per_s m3.gpts_per_s
        (m3.gpts_per_s /. m2.gpts_per_s))
    [ "jacobian"; "diffusion"; "seismic"; "uvkbe" ]

(* ------------------------------------------------------------------ *)
(* Figure 5: seismic -- hand-written vs generated across problem sizes *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header
    "Figure 5: 25-pt seismic, hand-written (WSE2) vs our approach (WSE2, WSE3)\n\
     paper shape: generated code beats hand-written by up to ~8% on WSE2;\n\
     WSE3 code outperforms WSE2 by up to ~38%";
  Printf.printf "%-8s %16s %14s %14s %10s %10s\n" "size" "hand-written" "ours WSE2"
    "ours WSE3" "ours/hand" "WSE3/WSE2";
  List.iter
    (fun size ->
      let d = B.find "seismic" in
      let hw = Wsc_perf.Handwritten.hand_written_gpts ~size in
      let m2 = WP.measure ~machine:Machine.wse2 ~size d in
      let m3 = WP.measure ~machine:Machine.wse3 ~size d in
      Printf.printf "%-8s %16.0f %14.0f %14.0f %9.1f%% %9.1f%%\n"
        (B.size_to_string size) hw m2.gpts_per_s m3.gpts_per_s
        (100.0 *. ((m2.gpts_per_s /. hw) -. 1.0))
        (100.0 *. ((m3.gpts_per_s /. m2.gpts_per_s) -. 1.0)))
    [ B.Small; B.Medium; B.Large ]

(* ------------------------------------------------------------------ *)
(* Figure 6: acoustic -- WSE3 vs 128 A100s vs 128 ARCHER2 nodes        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header
    "Figure 6: Devito acoustic throughput, WSE3 vs GPU/CPU clusters (GPts/s)\n\
     paper shape: WSE3 ~14x faster than 128 A100s, ~20x than 128 CPU nodes";
  let d = B.find "acoustic" in
  let wse3 = WP.measure ~machine:Machine.wse3 ~size:B.Large d in
  let gpu = Wsc_perf.Cluster.tursa_128_a100 () in
  let cpu = Wsc_perf.Cluster.archer2_128_nodes () in
  Printf.printf "%-24s %12s %10s\n" "system" "GPts/s" "WSE3 adv.";
  Printf.printf "%-24s %12.0f %10s\n" "WSE3 (750x994x604)" wse3.gpts_per_s "1.0x";
  Printf.printf "%-24s %12.1f %9.1fx\n" (gpu.cm_name ^ " (1158^3)") gpu.gpts_per_s
    (wse3.gpts_per_s /. gpu.gpts_per_s);
  Printf.printf "%-24s %12.1f %9.1fx\n" (cpu.cm_name ^ " (1024^3)") cpu.gpts_per_s
    (wse3.gpts_per_s /. cpu.gpts_per_s)

(* ------------------------------------------------------------------ *)
(* Figure 7: roofline on the WSE3 + acoustic on a single A100          *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header
    "Figure 7: roofline, five benchmarks on the WSE3 (+ acoustic on one A100)\n\
     paper shape: all WSE kernels compute-bound from memory; all but the\n\
     Jacobian also compute-bound via fabric; the A100 point is memory-bound";
  let nx, ny = B.xy_extents B.Large in
  let roof = Wsc_perf.Roofline.wse_roof Machine.wse3 ~pes:(nx * ny) in
  Printf.printf
    "machine: %s  peak=%.0f TFLOP/s  mem BW=%.1f PB/s  fabric BW=%.1f PB/s\n"
    roof.machine_name (roof.peak_gflops /. 1e3) (roof.mem_bw_gbytes /. 1e6)
    (roof.fabric_bw_gbytes /. 1e6);
  List.iter
    (fun (d : B.descr) ->
      let m = WP.measure ~machine:Machine.wse3 ~size:B.Large d in
      List.iter
        (fun p -> Format.printf "  %a@." Wsc_perf.Roofline.pp_point p)
        (Wsc_perf.Roofline.points_of_measurement roof m))
    B.all;
  Format.printf "  %a  (roof: peak %.0f GFLOP/s, HBM %.0f GB/s)@."
    Wsc_perf.Roofline.pp_point
    (Wsc_perf.Roofline.a100_point ())
    Wsc_perf.Roofline.a100_roof.peak_gflops
    Wsc_perf.Roofline.a100_roof.mem_bw_gbytes

(* ------------------------------------------------------------------ *)
(* Table 1: lines of code                                              *)
(* ------------------------------------------------------------------ *)

let tab1 () =
  header
    "Table 1: lines of code -- generated CSL vs DSL source\n\
     paper shape: the DSL source is an order of magnitude smaller than\n\
     the CSL a programmer would otherwise write";
  Printf.printf "%-10s %18s %14s %18s\n" "benchmark" "CSL kernel (LoC)" "CSL entire"
    "DSL & ours (LoC)";
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let m = Wsc_core.Pipeline.compile (P.compile p) in
      let files = Wsc_core.Csl_printer.print_files m in
      let kernel =
        match
          List.find_opt
            (fun (f : Wsc_core.Csl_printer.file) ->
              f.filename = "stencil_program.csl")
            files
        with
        | Some f -> Wsc_core.Csl_printer.loc_of f.contents
        | None -> 0
      in
      let entire =
        List.fold_left
          (fun acc (f : Wsc_core.Csl_printer.file) ->
            acc + Wsc_core.Csl_printer.loc_of f.contents)
          0 files
      in
      Printf.printf "%-10s %18d %14d %18d\n" d.id kernel entire p.P.dsl_loc)
    B.all

(* ------------------------------------------------------------------ *)
(* Section 7 comparison: absolute TFLOP/s                              *)
(* ------------------------------------------------------------------ *)

let tflops () =
  header
    "Section 7 comparison numbers: TFLOP/s on CS-2 and CS-3\n\
     paper: jacobian 169 / 313; seismic 491 / 678 (CS-2 / CS-3)";
  Printf.printf "%-10s %12s %12s\n" "benchmark" "CS-2 TFLOPs" "CS-3 TFLOPs";
  List.iter
    (fun id ->
      let d = B.find id in
      let m2 = WP.measure ~machine:Machine.wse2 ~size:B.Large d in
      let m3 = WP.measure ~machine:Machine.wse3 ~size:B.Large d in
      Printf.printf "%-10s %12.0f %12.0f\n" id m2.tflops m3.tflops)
    [ "jacobian"; "seismic" ]

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices (DESIGN.md)                         *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header
    "Ablations: effect of the Section 5.7 optimizations (WSE3, large,\n\
     per-iteration cycles; lower is better)";
  let run id opts label =
    let d = B.find id in
    let m = WP.measure ~pipeline_options:opts ~machine:Machine.wse3 ~size:B.Large d in
    Printf.printf "  %-10s %-28s %10.0f cyc/it  %8.0f GPts/s\n" id label
      m.cycles_per_iter m.gpts_per_s
  in
  let base = Wsc_core.Pipeline.default_options in
  List.iter
    (fun id ->
      run id base "baseline (all opts)";
      run id
        { base with Wsc_core.Pipeline.promote_coefficients = false }
        "no coefficient promotion";
      run id
        { base with Wsc_core.Pipeline.one_shot_reduction = false }
        "no one-shot reduction";
      run id
        { base with Wsc_core.Pipeline.fuse_fmac = false }
        "no fmac fusion at all";
      run id
        { base with Wsc_core.Pipeline.num_chunks_override = Some 2 }
        "forced 2 chunks";
      match id with
      | "uvkbe" ->
          run id
            { base with Wsc_core.Pipeline.inline_stencils = false }
            "no stencil inlining"
      | _ -> ())
    [ "seismic"; "acoustic"; "uvkbe" ]

(* ------------------------------------------------------------------ *)
(* Weak scaling (paper SS6.2 discussion)                               *)
(* ------------------------------------------------------------------ *)

let weak () =
  header
    "Weak scaling: acoustic with per-device grids grown so each GPU/CPU\n\
     works at its preferred size (paper SS6.2: 'a weak-scaling comparison\n\
     would likely reduce the WSE3's speedup, [but] the advantage would\n\
     remain significant')";
  let d = B.find "acoustic" in
  let wse3 = WP.measure ~machine:Machine.wse3 ~size:B.Large d in
  Printf.printf "%-34s %12s %10s\n" "system" "GPts/s" "WSE3 adv.";
  Printf.printf "%-34s %12.0f %10s\n" "WSE3 (750x994x604)" wse3.gpts_per_s "1.0x";
  List.iter
    (fun n ->
      let gpu = Wsc_perf.Cluster.acoustic_throughput Wsc_perf.Cluster.a100 ~devices:128 ~n in
      Printf.printf "%-34s %12.1f %9.1fx\n"
        (Printf.sprintf "128x A100 (%d^3, weak-scaled)" n)
        gpu.gpts_per_s
        (wse3.gpts_per_s /. gpu.gpts_per_s))
    [ 1158; 1600; 2048 ];
  List.iter
    (fun n ->
      let cpu =
        Wsc_perf.Cluster.acoustic_throughput Wsc_perf.Cluster.archer2_node ~devices:128 ~n
      in
      Printf.printf "%-34s %12.1f %9.1fx\n"
        (Printf.sprintf "128x ARCHER2 (%d^3, weak-scaled)" n)
        cpu.gpts_per_s
        (wse3.gpts_per_s /. cpu.gpts_per_s))
    [ 1024; 1448; 2048 ]

(** Elapsed wall-clock of [f], via [Unix.gettimeofday] — [Sys.time] is
    CPU time summed over domains, which would hide any speedup. *)
let wall (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Compile service: throughput and cache hit-rate                      *)
(* ------------------------------------------------------------------ *)

(** The serve-engine benchmark: a fuzzer corpus (pure in (seed, index),
    so the stream is reproducible) compiled cold and then warm on the
    same engine at 1/2/4 worker domains.  Two invariants are enforced,
    not just measured: every warm response must be a cache hit whose
    rendered payload is byte-identical to the cold compile of the same
    source, and warm throughput must beat cold throughput. *)
let serve_bench () =
  header
    "Compile service: cold vs warm throughput over a fuzzer corpus at\n\
     1/2/4 worker domains; warm responses must be cache hits, byte-\n\
     identical to the cold compiles, and faster in aggregate";
  let module S = Wsc_serve in
  let seed = 42 and unique = 50 and repeats = 25 in
  let sources =
    Array.init unique (fun index ->
        Wsc_harden.Corpus.case_contents ~seed ~index)
  in
  Printf.printf "corpus: %d unique programs (seed %d) + %d repeats\n\n" unique
    seed repeats;
  Printf.printf "%-8s %10s %10s %10s %10s %9s %10s\n" "domains" "cold s"
    "cold/s" "warm s" "warm/s" "hit-rate" "identical";
  let failures = ref 0 in
  List.iter
    (fun domains ->
      let engine = S.Engine.create () in
      (* one stream = one pool lifetime (pool-per-leg, never
         pool-per-request); responses land in slots so payloads can be
         compared across streams by corpus index *)
      let run_stream (idxs : int array) : string option array * float =
        let payloads = Array.make (Array.length idxs) None in
        let pool =
          S.Pool.create ~domains (fun _wi (slot, src) ->
              let r = S.Engine.compile_source engine src in
              payloads.(slot) <-
                S.Protocol.response_payload
                  (S.Protocol.compile_response ~id:slot r))
        in
        let (), wall_s =
          wall (fun () ->
              Array.iteri
                (fun slot i -> ignore (S.Pool.submit pool (slot, sources.(i))))
                idxs;
              S.Pool.drain pool)
        in
        S.Pool.shutdown pool;
        (* every request must have produced an ok payload (the fuzzer
           only emits well-formed programs) *)
        Array.iteri
          (fun slot x ->
            if x = None then begin
              incr failures;
              Printf.printf "  FAIL: request %d produced no ok payload\n" slot
            end)
          payloads;
        (payloads, wall_s)
      in
      let cold_idxs = Array.init unique (fun i -> i) in
      let warm_idxs =
        Array.init (unique + repeats) (fun i ->
            if i < unique then i else (i - unique) mod unique)
      in
      let cold, cold_s = run_stream cold_idxs in
      let stats_after_cold = S.Engine.cache_stats engine in
      let warm, warm_s = run_stream warm_idxs in
      let stats = S.Engine.cache_stats engine in
      let warm_hits = stats.S.Cache.hits - stats_after_cold.S.Cache.hits in
      let identical =
        Array.for_all
          (fun ok -> ok)
          (Array.mapi
             (fun slot i ->
               match (warm.(slot), cold.(i)) with
               | Some w, Some c -> w = c
               | _ -> false)
             warm_idxs)
      in
      let all_warm_hit = warm_hits = Array.length warm_idxs in
      let cold_per_s = float_of_int unique /. cold_s in
      let warm_per_s = float_of_int (Array.length warm_idxs) /. warm_s in
      if not identical then begin
        incr failures;
        Printf.printf
          "  FAIL: warm payloads not byte-identical to cold (domains=%d)\n"
          domains
      end;
      if not all_warm_hit then begin
        incr failures;
        Printf.printf "  FAIL: only %d/%d warm requests hit the cache\n"
          warm_hits (Array.length warm_idxs)
      end;
      if warm_per_s <= cold_per_s then begin
        incr failures;
        Printf.printf
          "  FAIL: warm throughput (%.1f/s) did not beat cold (%.1f/s)\n"
          warm_per_s cold_per_s
      end;
      Printf.printf "%-8d %10.3f %10.1f %10.3f %10.1f %8.1f%% %10s\n" domains
        cold_s cold_per_s warm_s warm_per_s
        (100.0 *. S.Cache.hit_rate stats)
        (if identical && all_warm_hit then "yes" else "NO"))
    [ 1; 2; 4 ];
  if !failures = 0 then
    Printf.printf
      "all legs: warm responses are cache hits, byte-identical to cold, \
       and faster\n"
  else begin
    Printf.printf "FAILED %d check(s)\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Tracing: collector overhead                                        *)
(* ------------------------------------------------------------------ *)

let trace_exp () =
  header
    "Tracing: event volume and collector overhead per benchmark (Tiny,\n\
     both machines).  Elapsed cycles and aggregate stats must be\n\
     bit-identical with tracing on and off.";
  let module T = Wsc_trace.Trace in
  Printf.printf "%-10s %-5s %8s %10s %10s %9s\n" "benchmark" "mach" "events"
    "plain ms" "traced ms" "cycles";
  let mismatches = ref 0 in
  List.iter
    (fun (d : B.descr) ->
      List.iter
        (fun (machine : Machine.t) ->
          let p = d.make B.Tiny in
          let remarks = ref [] in
          let pass_options =
            {
              Wsc_ir.Pass.default_options with
              on_remark = Some (Wsc_trace.Remarks.collect remarks);
            }
          in
          let m = Wsc_core.Pipeline.compile ~pass_options (P.compile p) in
          let time f =
            let t0 = Sys.time () in
            let r = f () in
            (r, (Sys.time () -. t0) *. 1e3)
          in
          let h_plain, plain_ms =
            time (fun () -> Wsc_wse.Host.simulate machine m (P.init_grids p))
          in
          let sink = T.collector () in
          let h_traced, traced_ms =
            time (fun () -> Wsc_wse.Host.simulate ~trace:sink machine m (P.init_grids p))
          in
          Wsc_trace.Remarks.emit sink !remarks;
          let cp = F.elapsed_cycles h_plain.sim
          and ct = F.elapsed_cycles h_traced.sim in
          let identical =
            cp = ct
            && F.stats_equal (F.total_stats h_plain.sim) (F.total_stats h_traced.sim)
          in
          if not identical then incr mismatches;
          Printf.printf "%-10s %-5s %8d %10.2f %10.2f %9.0f%s\n" d.id
            machine.name (T.event_count sink) plain_ms traced_ms ct
            (if identical then "" else "  NOT BIT-IDENTICAL"))
        [ Machine.wse2; Machine.wse3 ])
    B.all;
  if !mismatches = 0 then
    Printf.printf "\nall benchmarks: traced runs bit-identical to untraced runs\n"
  else begin
    Printf.printf "\nTRACING CHANGED RESULTS on %d run(s)\n" !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Multi-wafer scale-out: bit-identity validation + scaling figures    *)
(* ------------------------------------------------------------------ *)

(** Two halves.  Validation: every paper benchmark co-simulated over
    2×1 and 2×2 wafer grids at Tiny through one shared compile engine,
    drained fields asserted bit-identical to the undecomposed
    single-wafer run (exit 1 on any mismatch).  Scaling: the strong/weak
    figures of an N-wafer WSE3 against the Tursa-A100 and ARCHER2
    cluster models, per-wafer compute from the simulator-measured
    steady-state cycles per iteration. *)
let multiwafer () =
  header
    "Multi-wafer scale-out: decompose, compile per slice through the\n\
     shared engine cache, co-simulate; drained fields must be\n\
     bit-identical to the single-wafer simulation";
  let module MW = Wsc_multiwafer.Cosim in
  let module SC = Wsc_multiwafer.Scaling in
  let module Cache = Wsc_serve.Cache in
  let machine = Machine.wse3 in
  let mismatches = ref 0 in
  Printf.printf "\n%-10s %6s %9s %9s %12s %5s %5s %9s\n" "benchmark"
    "wafers" "wall s" "1-waf s" "device cyc" "hit" "dedup" "identical";
  (* one engine across every leg: the second wafer grid of a benchmark
     re-submits slice programs the first already compiled, so the cache
     columns also demonstrate cross-run reuse *)
  let engine = Wsc_serve.Engine.create () in
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let refs, w0 = wall (fun () -> MW.reference ~machine p) in
      List.iter
        (fun (wx, wy) ->
          let s0 = Wsc_serve.Engine.cache_stats engine in
          let r, w =
            wall (fun () -> MW.run ~engine ~machine ~wafers:(wx, wy) p)
          in
          let s1 = r.MW.cache in
          let hits = s1.Cache.hits - s0.Cache.hits in
          let dedup = s1.Cache.dedup_hits - s0.Cache.dedup_hits in
          let identical = MW.grids_bit_identical refs r.MW.grids in
          if not identical then begin
            incr mismatches;
            Printf.printf "    drained fields differ from the single wafer\n"
          end;
          Printf.printf "%-10s %6s %9.3f %9.3f %12.0f %5d %5d %9s\n" d.id
            (Printf.sprintf "%dx%d" wx wy)
            w w0 r.MW.device_cycles hits dedup
            (if identical then "yes" else "NO"))
        [ (2, 1); (2, 2) ])
    B.all;
  (* scaling figures: strong + weak per benchmark, modeled from the
     measured per-PE steady state (extent-independent: SPMD) *)
  List.iter
    (fun (d : B.descr) ->
      let m = WP.measure ~machine ~size:(B.Proxy (8, 8)) d in
      let cpi = m.WP.cycles_per_iter in
      List.iter
        (fun (fig : SC.figure) ->
          let mode =
            match fig.SC.mode with `Strong -> "strong" | `Weak -> "weak"
          in
          Printf.printf
            "\n%s scaling, %s (%.0f cycles/iter @ %.1f GHz, WSE3 wafers)\n"
            mode d.id cpi (machine.Machine.clock_hz /. 1e9);
          Printf.printf "%8s %16s %10s %10s %8s %6s %8s\n" "wafers" "global"
            "t_iter us" "GPts/s" "speedup" "eff" "feasible";
          List.iter
            (fun (pt : SC.point) ->
              let wx, wy = pt.SC.wafers in
              let gx, gy, gz = pt.SC.global in
              Printf.printf "%8s %16s %10.2f %10.1f %7.2fx %5.0f%% %8s\n"
                (Printf.sprintf "%dx%d" wx wy)
                (Printf.sprintf "%dx%dx%d" gx gy gz)
                (pt.SC.t_iter_s *. 1e6) pt.SC.gpts_per_s pt.SC.speedup
                (pt.SC.efficiency *. 100.0)
                (if pt.SC.feasible then "yes" else "no"))
            fig.SC.points;
          List.iter
            (fun ((name, c) : string * Wsc_perf.Cluster.cluster_measurement) ->
              Printf.printf "  baseline %-18s %4d devices %10.1f GPts/s\n" name
                c.Wsc_perf.Cluster.devices c.Wsc_perf.Cluster.gpts_per_s)
            fig.SC.baselines)
        [
          SC.strong ~machine ~cycles_per_iter:cpi d;
          SC.weak ~machine ~cycles_per_iter:cpi d;
        ])
    B.all;
  if !mismatches = 0 then
    Printf.printf
      "\nall multi-wafer runs bit-identical to the single-wafer simulation\n"
  else begin
    Printf.printf "\nMISMATCH on %d run(s)\n" !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)

(** Wafer-level fault tolerance.  Every benchmark at
    2x1 and 2x2 wafers under seeded halo-drop / halo-corrupt / crash
    injection with checkpoint/rollback recovery on — the recovered
    fields must stay bit-identical to the fault-free single-wafer run
    (exit 1 on any mismatch), and the table records what recovery cost:
    injections, detections, rollbacks, replayed epochs, checkpoints and
    device cycles beyond the fault-free co-simulation.  One loss leg per
    grid demonstrates graceful degradation (dead wafers reported, no
    identity claim). *)
let mwfaults () =
  header
    "Wafer-level fault tolerance: inter-wafer fault injection with\n\
     checkpoint/rollback recovery; recovered fields must be\n\
     bit-identical to the fault-free single-wafer run";
  let module MC = Wsc_multiwafer.Mwcampaign in
  let module Wf = Wsc_faults.Faults.Wafer in
  let machine = Machine.wse3 in
  let mismatches = ref 0 in
  Printf.printf "%-10s %6s %-12s %4s %4s %4s %6s %5s %9s %9s\n" "benchmark"
    "wafers" "kind" "inj" "det" "rbk" "replay" "ckpt" "overhead" "identical";
  (* one engine across every leg: each slice shape compiles once for
     the whole experiment, and respawned wafers always hit the cache *)
  let engine = Wsc_serve.Engine.create () in
  List.iter
    (fun (d : B.descr) ->
      List.iter
        (fun (wx, wy) ->
          (* the loss cells come last: permanent wafer loss must degrade
             gracefully (report, not crash), so it carries no identity
             demand *)
          let report =
            MC.run ~engine ~machine ~bench:d.id ~size:B.Tiny ~wafers:(wx, wy)
              ~kinds:[ Wf.Halo_drop; Wf.Halo_corrupt; Wf.Crash; Wf.Loss ]
              ~resilient:true ~rates:[ 0.1; 0.25 ] ~seeds:[ 1 ] ()
          in
          List.iter
            (fun (c : MC.cell) ->
              if c.MC.kind <> Wf.Loss && MC.unrecovered report c then begin
                incr mismatches;
                Printf.printf "    RECOVERY NOT BIT-IDENTICAL: %s %s %s\n" d.id
                  (Printf.sprintf "%dx%d" wx wy)
                  (Wf.kind_to_string c.MC.kind)
              end;
              Printf.printf "%-10s %6s %-12s %4d %4d %4d %6d %5d %9.0f %9s\n"
                d.id
                (Printf.sprintf "%dx%d" wx wy)
                (Wf.kind_to_string c.MC.kind)
                c.MC.injected c.MC.detections c.MC.rollbacks
                c.MC.replayed_epochs c.MC.checkpoints
                (if Float.is_nan c.MC.overhead_cycles then 0.0
                 else c.MC.overhead_cycles)
                (if c.MC.degraded then
                   Printf.sprintf "degraded(%d)" c.MC.lost_wafers
                 else if c.MC.bit_identical then "yes"
                 else "NO"))
            report.MC.cells)
        [ (2, 1); (2, 2) ])
    B.all;
  if !mismatches = 0 then
    Printf.printf
      "\nall recovered runs bit-identical to the fault-free single-wafer run\n"
  else begin
    Printf.printf "\nRECOVERY MISMATCH on %d run(s)\n" !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Autotuning: tuned vs default cycles                                *)
(* ------------------------------------------------------------------ *)

(** One seeded tuning run per benchmark.  Validation baked in: tuned
    must be no slower than default on every program and strictly faster
    on at least one, and every winner must carry an oracle pass — any
    violation exits 1.  That the screening score is exact is checked in
    tier-1 (test_perf, "steady state exact"). *)
let tune_bench () =
  header "Autotuning: tuned vs default, oracle-gated";
  let module T = Wsc_tune.Tune in
  let machine = Machine.wse3 in
  let seed = 1 in
  let config = { T.default_config with T.seed; machine } in
  Printf.printf "seed %d, screen %d, extent %d\n\n" seed config.T.screen
    config.T.extent;
  Printf.printf "%-10s %7s %11s %11s %8s %7s\n" "benchmark" "space"
    "default c/i" "tuned c/i" "improve" "oracle";
  let store = Wsc_serve.Tuned.create () in
  let results =
    List.map
      (fun (d : B.descr) ->
        let r = T.run ~config d in
        ignore (T.register store r);
        Printf.printf "%-10s %7d %11.0f %11.0f %7.1f%% %7s\n" r.T.r_bench
          r.T.r_space_size r.T.r_default_cycles r.T.r_tuned_cycles
          r.T.r_improvement_pct
          (match r.T.r_oracle_ok with
          | Some true -> "PASS"
          | Some false -> "FAIL"
          | None -> "off");
        r)
      B.all
  in
  Printf.printf "\n%d tuned config(s) registered\n" (Wsc_serve.Tuned.size store);
  (* validation *)
  let slower =
    List.filter
      (fun (r : T.result) -> r.T.r_tuned_cycles > r.T.r_default_cycles)
      results
  in
  let strictly_better =
    List.exists
      (fun (r : T.result) -> r.T.r_tuned_cycles < r.T.r_default_cycles)
      results
  in
  let oracle_clean =
    List.for_all (fun (r : T.result) -> r.T.r_oracle_ok = Some true) results
  in
  if slower <> [] then begin
    List.iter
      (fun (r : T.result) ->
        Printf.printf "TUNED SLOWER THAN DEFAULT: %s\n" r.T.r_bench)
      slower;
    exit 1
  end;
  if not strictly_better then begin
    Printf.printf "NO BENCHMARK IMPROVED: tuning found nothing\n";
    exit 1
  end;
  if not oracle_clean then begin
    Printf.printf "ORACLE GATE FAILED on at least one benchmark\n";
    exit 1
  end;
  Printf.printf
    "tuned <= default everywhere, strictly better on >= 1, all winners \
     oracle-validated\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("tab1", tab1);
    ("tflops", tflops);
    ("ablations", ablations);
    ("weak", weak);
    ("serve", serve_bench);
    ("trace", trace_exp);
    ("multiwafer", multiwafer);
    ("mwfaults", mwfaults);
    ("tune", tune_bench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (have: %s)\n" id
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
