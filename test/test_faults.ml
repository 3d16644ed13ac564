(* Tests for the fault-injection & resilience layer: a compiled-in but
   quiet injector must leave the simulation bit-identical to an
   uninstrumented run; campaigns must replay
   byte-for-byte from their seed; and the recovery protocol must bring a
   faulted run back to the reference answer while charging measurable
   recovery cycles. *)

module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Machine = Wsc_wse.Machine
module Fabric = Wsc_wse.Fabric
module Host = Wsc_wse.Host
module Trace = Wsc_trace.Trace
module Aggregate = Wsc_trace.Aggregate
module Faults = Wsc_faults.Faults
module Campaign = Wsc_faults_campaign.Campaign

let check = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* one run of [p] with the given injector; everything the bit-identity
   comparison needs *)
let run_once ?faults (p : P.t) =
  let compiled = Core.Pipeline.compile (P.compile p) in
  let h = Host.simulate ?faults Machine.wse3 compiled (P.init_grids p) in
  (Fabric.elapsed_cycles h.sim, Fabric.total_stats h.sim, Host.read_all h)

let assert_identical name (c1, s1, o1) (c2, s2, o2) =
  check (name ^ ": elapsed cycles bit-identical") true (c1 = c2);
  (match Fabric.stats_diff s1 s2 with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: aggregated pe_stats differ: %s" name msg);
  let maxd = List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff o1 o2) in
  check (name ^ ": outputs bit-identical") true (maxd = 0.0)

(* ------------------------------------------------------------------ *)
(* quiet injectors leave the simulation untouched                      *)
(* ------------------------------------------------------------------ *)

let test_null_injector_bit_identical () =
  let p = (B.find "jacobian").make B.Tiny in
  assert_identical "Null injector" (run_once p) (run_once ~faults:Faults.null p)

(* the qcheck property of the satellite: for ANY seed, a rate-0.0
   injector (resilience on) is bit-identical to the uninstrumented run *)
let prop_rate0_bit_identical =
  QCheck.Test.make ~name:"rate-0.0 injector bit-identical for any seed"
    ~count:8 QCheck.small_nat (fun seed ->
      let p = (B.find "diffusion").make B.Tiny in
      let injector =
        Faults.create (Faults.config_for Faults.Drop ~rate:0.0 ~seed ~resilient:true)
      in
      let c1, s1, o1 = run_once p and c2, s2, o2 = run_once ~faults:injector p in
      let maxd = List.fold_left Float.max 0.0 (List.map2 I.max_abs_diff o1 o2) in
      c1 = c2 && s1 = s2 && maxd = 0.0
      && (Faults.stats injector).drops = 0
      && (Faults.stats injector).retries = 0)

(* ------------------------------------------------------------------ *)
(* campaign determinism                                                *)
(* ------------------------------------------------------------------ *)

let small_campaign ?(resilient = true) ?(kinds = [ Faults.Drop; Faults.Halt ])
    ?(rates = [ 0.05 ]) ?(seeds = [ 1; 2 ]) () =
  Campaign.run ~kinds ~bench:"jacobian" ~size:B.Tiny ~resilient ~rates
    ~seeds ()

let test_campaign_replay_identical () =
  let r1 = small_campaign () in
  let r2 = small_campaign () in
  check "replayed report byte-identical" true
    (Campaign.to_string r1 = Campaign.to_string r2)

(* ------------------------------------------------------------------ *)
(* the recovery protocol actually recovers                             *)
(* ------------------------------------------------------------------ *)

let test_resilient_drop_recovers () =
  let r = small_campaign ~kinds:[ Faults.Drop ] ~seeds:[ 1; 2; 3 ] () in
  check "all cells survived" true (Campaign.survival_rate r = 1.0);
  List.iter
    (fun (c : Campaign.cell) ->
      check "completed" true c.completed;
      check "schedule fired" true (c.injected > 0);
      check "every drop retransmitted" true (c.retries >= c.injected);
      check "no giveups at this rate" true (c.giveups = 0);
      check "recovery cycles charged" true (c.recovery_cycles > 0.0);
      check "divergence at float noise" true (c.divergence < 1e-4))
    r.cells

let test_resilient_corrupt_detected () =
  (* regression: the receiver-side checksum must flag the damaged copy
     (only a collision may pass), so every corruption triggers a NACK *)
  let r = small_campaign ~kinds:[ Faults.Corrupt ] ~seeds:[ 1; 2 ] () in
  check "all cells survived" true (Campaign.survival_rate r = 1.0);
  List.iter
    (fun (c : Campaign.cell) ->
      check "corruptions injected" true (c.injected > 0);
      check "checksums caught them" true (c.retries >= c.injected);
      check "result matches reference" true (c.divergence < 1e-4))
    r.cells

let test_unprotected_drop_diverges () =
  (* without the protocol the dropped wavelets read as zeroes and the
     answer is wrong — this is what resilience buys *)
  let r = small_campaign ~resilient:false ~kinds:[ Faults.Drop ] ~seeds:[ 1 ] () in
  let c = List.hd r.cells in
  check "faults landed" true (c.injected > 0);
  check "nothing retried" true (c.retries = 0);
  check "result diverged" true (c.divergence > 1e-4);
  check "cell marked dead" true (not c.survived)

let test_halt_degrades_gracefully () =
  let r = small_campaign ~kinds:[ Faults.Halt ] ~rates:[ 0.05 ] ~seeds:[ 1 ] () in
  let c = List.hd r.cells in
  check "run completed despite dead PEs" true c.completed;
  check "validity mask shrank" true (c.valid_pes < c.total_pes);
  check "some PEs still valid" true (c.valid_pes > 0);
  check "halt timeouts recorded" true (c.halt_timeouts > 0);
  check "valid region matches reference" true c.survived

let test_host_fault_report () =
  (* drive one halt cell by hand and read the host-facing mask/report *)
  let p = (B.find "jacobian").make B.Tiny in
  let compiled = Core.Pipeline.compile (P.compile p) in
  let faults =
    Faults.create (Faults.config_for Faults.Halt ~rate:0.05 ~seed:1 ~resilient:true)
  in
  let h = Host.simulate ~faults Machine.wse3 compiled (P.init_grids p) in
  let mask = Host.validity h in
  let invalid = ref 0 in
  Array.iter (Array.iter (fun ok -> if not ok then incr invalid)) mask;
  check "mask marks invalid PEs" true (!invalid > 0);
  (match Host.fault_report h with
  | None -> Alcotest.fail "expected a fault report"
  | Some msg ->
      check "report counts the region" true (contains msg "invalid data");
      check "report names a PE" true (contains msg "PE("));
  (* a clean run reports nothing *)
  let h0 = Host.simulate Machine.wse3 compiled (P.init_grids p) in
  check "clean run has no report" true (Host.fault_report h0 = None)

(* ------------------------------------------------------------------ *)
(* decision primitives                                                 *)
(* ------------------------------------------------------------------ *)

let prop_uniform_in_range =
  QCheck.Test.make ~name:"uniform is deterministic and in [0,1)" ~count:200
    QCheck.(triple small_nat small_nat (small_list small_int))
    (fun (seed, site, keys) ->
      let u = Faults.uniform ~seed ~site ~keys in
      u = Faults.uniform ~seed ~site ~keys && u >= 0.0 && u < 1.0)

let prop_checksum_detects =
  QCheck.Test.make ~name:"checksum flags any single-element damage" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 16) (float_range (-10.) 10.)) pos_float)
    (fun (a, noise) ->
      QCheck.assume (Array.length a > 0 && noise > 0.0);
      let len = Array.length a in
      let damaged = Array.copy a in
      damaged.(len / 2) <- damaged.(len / 2) +. noise;
      Faults.checksum damaged ~off:0 ~len <> Faults.checksum a ~off:0 ~len)

let test_backoff_bounded_monotone () =
  let r = Faults.default_resilience in
  let prev = ref 0.0 in
  for a = 1 to 12 do
    let b = Faults.backoff r ~attempt:a in
    check "backoff never shrinks" true (b >= !prev);
    check "backoff capped" true (b <= r.Faults.max_backoff_cycles);
    prev := b
  done;
  check "first timeout" true (Faults.backoff r ~attempt:1 = r.Faults.timeout_cycles)

(* ------------------------------------------------------------------ *)
(* surface: generated CSL protocol, trace aggregation                  *)
(* ------------------------------------------------------------------ *)

let test_resilience_section_in_csl () =
  let sec = Core.Comms_csl.resilience_section in
  List.iter
    (fun needle -> check ("section mentions " ^ needle) true (contains sec needle))
    [ "WaveletHeader"; "nack_color"; "checksum"; "max_retries"; "backoff" ];
  check "library source carries the param" true
    (contains Core.Comms_csl.source "param resilience");
  check "library source embeds the protocol" true
    (contains Core.Comms_csl.source "WaveletHeader")

let test_fault_table_aggregation () =
  check "empty trace renders (none)" true
    (contains (Aggregate.fault_table []) "(none)");
  let sink = Trace.collector () in
  Trace.instant sink ~pid:1 ~tid:7 ~cat:"fault" ~name:"drop" 10.0;
  Trace.instant sink ~pid:1 ~tid:8 ~cat:"fault" ~name:"drop" 30.0;
  Trace.instant sink ~pid:1 ~tid:7 ~cat:"fault" ~name:"retry" 12.0;
  Trace.instant sink ~pid:1 ~tid:7 ~cat:"other" ~name:"noise" 5.0;
  let table = Aggregate.fault_table (Trace.events sink) in
  check "totals only fault events" true (contains table "fault events (3 total)");
  check "rows per name" true (contains table "drop" && contains table "retry");
  check "ignores other categories" true (not (contains table "noise"))

let () =
  Alcotest.run "faults"
    [
      ( "bit-identity",
        Alcotest.test_case "Null injector" `Quick test_null_injector_bit_identical
        :: List.map QCheck_alcotest.to_alcotest [ prop_rate0_bit_identical ] );
      ( "campaign",
        [
          Alcotest.test_case "replay byte-identical" `Quick
            test_campaign_replay_identical;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "drops retransmitted" `Quick
            test_resilient_drop_recovers;
          Alcotest.test_case "corruption checksummed" `Quick
            test_resilient_corrupt_detected;
          Alcotest.test_case "unprotected run diverges" `Quick
            test_unprotected_drop_diverges;
          Alcotest.test_case "halt degrades gracefully" `Quick
            test_halt_degrades_gracefully;
          Alcotest.test_case "host validity and report" `Quick
            test_host_fault_report;
        ] );
      ( "primitives",
        Alcotest.test_case "backoff bounded, monotone" `Quick
          test_backoff_bounded_monotone
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_uniform_in_range; prop_checksum_detects ] );
      ( "surface",
        [
          Alcotest.test_case "csl resilience section" `Quick
            test_resilience_section_in_csl;
          Alcotest.test_case "fault event table" `Quick
            test_fault_table_aggregation;
        ] );
    ]
