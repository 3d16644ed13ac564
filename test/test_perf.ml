(* Tests for the performance models: the WSE measurement harness, the
   hand-written-kernel model, the cluster baselines and the roofline —
   checking the shapes the paper's evaluation reports. *)

module B = Wsc_benchmarks.Benchmarks
module WP = Wsc_perf.Wse_perf
module Machine = Wsc_wse.Machine

let check = Alcotest.(check bool)

let m_wse2 id size = WP.measure ~machine:Machine.wse2 ~size (B.find id)
let m_wse3 id size = WP.measure ~machine:Machine.wse3 ~size (B.find id)

(* ------------------------------------------------------------------ *)
(* figure 4 shape: WSE3 beats WSE2 everywhere                          *)
(* ------------------------------------------------------------------ *)

let test_fig4_shape () =
  List.iter
    (fun id ->
      let a = m_wse2 id B.Large and b = m_wse3 id B.Large in
      check (id ^ ": WSE3 > WSE2") true (b.gpts_per_s > a.gpts_per_s);
      (* the switching-logic advantage is bounded: between 5% and 2x *)
      let r = b.gpts_per_s /. a.gpts_per_s in
      check (id ^ ": ratio plausible") true (r > 1.05 && r < 2.0))
    [ "jacobian"; "diffusion"; "seismic"; "uvkbe" ]

let test_comm_heavier_kernels_gain_more () =
  (* jacobian (little compute per point) gains more from WSE3 switching
     than seismic (lots of compute per point) — the paper's explanation *)
  let gain id =
    (m_wse3 id B.Large).gpts_per_s /. (m_wse2 id B.Large).gpts_per_s
  in
  check "jacobian gains more than seismic" true (gain "jacobian" > gain "seismic")

(* ------------------------------------------------------------------ *)
(* figure 5 shape: generated code beats the hand-written kernel         *)
(* ------------------------------------------------------------------ *)

let test_fig5_shape () =
  List.iter
    (fun size ->
      let hand = Wsc_perf.Handwritten.hand_written_gpts ~size in
      let ours = (m_wse2 "seismic" size).gpts_per_s in
      check "ours > hand-written" true (ours > hand);
      (* "slightly better": within 15% *)
      check "advantage is modest" true (ours /. hand < 1.15))
    [ B.Small; B.Medium; B.Large ];
  (* single chunk on the generated version, as in the paper *)
  check "single chunk" true ((m_wse2 "seismic" B.Large).chunks = 1)

let test_seismic_peak_fraction () =
  (* Jacquelin et al. report 28.2% of peak for the hand-written WSE2
     kernel; ours should be in the published band (28.2% .. +8%) *)
  let m = m_wse2 "seismic" B.Large in
  check "peak fraction band" true (m.pct_of_peak > 25.0 && m.pct_of_peak < 36.0)

(* ------------------------------------------------------------------ *)
(* figure 6 shape: WSE3 >> clusters                                    *)
(* ------------------------------------------------------------------ *)

let test_fig6_shape () =
  let wse3 = (m_wse3 "acoustic" B.Large).gpts_per_s in
  let gpu = (Wsc_perf.Cluster.tursa_128_a100 ()).gpts_per_s in
  let cpu = (Wsc_perf.Cluster.archer2_128_nodes ()).gpts_per_s in
  let gpu_ratio = wse3 /. gpu and cpu_ratio = wse3 /. cpu in
  check "GPU cluster beats CPU cluster" true (gpu > cpu);
  check "~14x vs GPUs (9..19)" true (gpu_ratio > 9.0 && gpu_ratio < 19.0);
  check "~20x vs CPUs (14..28)" true (cpu_ratio > 14.0 && cpu_ratio < 28.0)

let test_cluster_models_memory_bound () =
  check "A100 memory bound" true (Wsc_perf.Cluster.tursa_128_a100 ()).memory_bound;
  check "CPU memory bound" true
    (Wsc_perf.Cluster.archer2_128_nodes ()).memory_bound

let test_cluster_strong_scaling () =
  (* more devices -> more throughput, but sublinearly (halo overhead) *)
  let t64 = Wsc_perf.Cluster.acoustic_throughput Wsc_perf.Cluster.a100 ~devices:64 ~n:1158 in
  let t128 = Wsc_perf.Cluster.acoustic_throughput Wsc_perf.Cluster.a100 ~devices:128 ~n:1158 in
  check "scales up" true (t128.gpts_per_s > t64.gpts_per_s);
  check "sublinear" true (t128.gpts_per_s < 2.0 *. t64.gpts_per_s)

(* ------------------------------------------------------------------ *)
(* figure 7 shape: roofline classification                             *)
(* ------------------------------------------------------------------ *)

let test_fig7_shape () =
  let nx, ny = B.xy_extents B.Large in
  let roof = Wsc_perf.Roofline.wse_roof Machine.wse3 ~pes:(nx * ny) in
  List.iter
    (fun (d : B.descr) ->
      let m = m_wse3 d.id B.Large in
      match Wsc_perf.Roofline.points_of_measurement roof m with
      | [ mem_pt; fab_pt ] ->
          check (d.id ^ " compute-bound from memory") true (mem_pt.bound = `Compute);
          let expect_fab = if d.id = "jacobian" then `Memory else `Compute in
          check (d.id ^ " fabric classification") true (fab_pt.bound = expect_fab)
      | _ -> Alcotest.fail "expected two points")
    B.all;
  (* the A100 acoustic point is memory bound, below its roof *)
  let a100 = Wsc_perf.Roofline.a100_point () in
  check "A100 memory bound" true (a100.bound = `Memory);
  check "A100 under its roof" true
    (a100.gflops
    <= Wsc_perf.Roofline.attainable Wsc_perf.Roofline.a100_roof
         ~bw_gbytes:Wsc_perf.Roofline.a100_roof.mem_bw_gbytes a100.ai)

let test_roofline_attainable () =
  let roof =
    { Wsc_perf.Roofline.machine_name = "m"; peak_gflops = 100.0;
      mem_bw_gbytes = 10.0; fabric_bw_gbytes = 2.0 }
  in
  check "bandwidth region" true
    (Wsc_perf.Roofline.attainable roof ~bw_gbytes:10.0 5.0 = 50.0);
  check "compute region" true
    (Wsc_perf.Roofline.attainable roof ~bw_gbytes:10.0 50.0 = 100.0)

(* ------------------------------------------------------------------ *)
(* measurement internals                                               *)
(* ------------------------------------------------------------------ *)

let test_throughput_scales_with_grid () =
  (* GPts/s is proportional to the PE count at fixed per-PE behaviour *)
  let small = m_wse3 "diffusion" B.Small in
  let large = m_wse3 "diffusion" B.Large in
  let expected = float_of_int (750 * 994) /. float_of_int (100 * 100) in
  let actual = large.gpts_per_s /. small.gpts_per_s in
  check "area scaling" true (Float.abs ((actual /. expected) -. 1.0) < 0.05)

let test_measured_flops_per_point () =
  (* the simulator-measured flops per point tracks the kernel's size *)
  let j = (m_wse3 "jacobian" B.Large).flops_per_pt in
  let s = (m_wse3 "seismic" B.Large).flops_per_pt in
  (* algorithmic counting: jacobian executes ~12 FLOPs/pt (4 promoted
     columns x 2 + 2 z fmacs x 2), seismic ~58 (25-point, 2nd order) *)
  check "jacobian ~10-14 flops/pt" true (j > 10.0 && j < 14.0);
  check "seismic ~52-62 flops/pt" true (s > 52.0 && s < 62.0)

let test_tflops_ordering () =
  (* per-point-heavier kernels score more TFLOP/s (paper section 7) *)
  let j = (m_wse2 "jacobian" B.Large).tflops in
  let s = (m_wse2 "seismic" B.Large).tflops in
  check "seismic > jacobian in TFLOP/s" true (s > j)

(* The steady state the measurement extrapolates from is exactly
   periodic and independent of the grid extent: the per-iteration delta
   is bit-equal over a longer window and on a wider proxy grid.  This is
   what lets the autotuner rank candidates by one two-run screening
   score; it fails as soon as the steady state stops being periodic
   (e.g. once congestion is modelled). *)
let test_steady_state_exact () =
  let default = Wsc_core.Pipeline.default_options in
  let halved =
    { default with comm_budget_bytes = default.comm_budget_bytes / 2 }
  in
  List.iter
    (fun (d : B.descr) ->
      List.iter
        (fun (machine : Machine.t) ->
          List.iter
            (fun (label, pipeline_options) ->
              let steady ~extent ~window =
                let c, _, _ =
                  WP.steady_state ~pipeline_options ~extent ~window d ~machine
                in
                c
              in
              let base = steady ~extent:6 ~window:(2, 4) in
              List.iter
                (fun (extent, ((lo, hi) as window)) ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s %s %s extent %d window (%d,%d)" d.id
                       machine.name label extent lo hi)
                    base (steady ~extent ~window))
                [ (6, (2, 8)); (8, (2, 4)); (8, (2, 8)) ])
            [ ("default", default); ("budget/2", halved) ])
        [ Machine.wse2; Machine.wse3 ])
    B.all

let test_handwritten_breakdown () =
  let bd, ours = Wsc_perf.Handwritten.compare_seismic ~size:B.Large in
  check "hand-written slower" true (bd.hw_cycles_per_iter > ours.cycles_per_iter);
  check "advantage positive" true (bd.advantage_pct > 0.0);
  check "advantage below 15%" true (bd.advantage_pct < 15.0)

let () =
  Alcotest.run "perf"
    [
      ( "fig4",
        [
          Alcotest.test_case "WSE3 > WSE2" `Slow test_fig4_shape;
          Alcotest.test_case "comm-heavy gains more" `Slow
            test_comm_heavier_kernels_gain_more;
        ] );
      ( "fig5",
        [
          Alcotest.test_case "beats hand-written" `Slow test_fig5_shape;
          Alcotest.test_case "peak fraction" `Quick test_seismic_peak_fraction;
          Alcotest.test_case "breakdown" `Quick test_handwritten_breakdown;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "cluster ratios" `Quick test_fig6_shape;
          Alcotest.test_case "memory bound" `Quick test_cluster_models_memory_bound;
          Alcotest.test_case "strong scaling" `Quick test_cluster_strong_scaling;
        ] );
      ( "fig7",
        [
          Alcotest.test_case "classification" `Slow test_fig7_shape;
          Alcotest.test_case "attainable" `Quick test_roofline_attainable;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "area scaling" `Quick test_throughput_scales_with_grid;
          Alcotest.test_case "flops per point" `Quick test_measured_flops_per_point;
          Alcotest.test_case "tflops ordering" `Quick test_tflops_ordering;
          Alcotest.test_case "steady state exact" `Quick test_steady_state_exact;
        ] );
    ]
