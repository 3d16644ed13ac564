(* The autotuner: seeded replay, the oracle shipping gate, and the
   tuned-config store's integration with the serve engine. *)

module B = Wsc_benchmarks.Benchmarks
module T = Wsc_tune.Tune
module S = Wsc_serve
module Pipeline = Wsc_core.Pipeline
module J = Wsc_trace.Json

let jac = B.find "jacobian"

(* small searches keep the suite fast; determinism is independent of
   search size *)
let quick_config = { T.default_config with T.screen = 6; oracle = false }

let gated_config = { T.default_config with T.screen = 8 }

let render (r : T.result) : string = J.to_string (T.to_json r)

(* ------------------------------------------------------------------ *)
(* replay: same seed, same JSON, byte for byte                         *)
(* ------------------------------------------------------------------ *)

let prop_replay =
  QCheck.Test.make ~count:3 ~name:"seeded replay byte-identical"
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = { quick_config with T.seed } in
      let a = render (T.run ~config jac) in
      let b = render (T.run ~config jac) in
      a = b)

(* the seed-1 winner of the quick search, recorded before the tuner
   dropped its confirmation stage: screening alone must pick the same
   config with the same cycles *)
let test_quick_golden () =
  let r = T.run ~config:quick_config jac in
  Alcotest.(check string) "winner"
    "inline_stencils=false;use_varith=true;promote_coefficients=true;\
     one_shot_reduction=true;fuse_fmac=true;\
     comm_budget_bytes=16384;num_chunks_override=none;\
     program_name=stencil_program"
    (Pipeline.options_to_string r.T.r_tuned_options);
  Alcotest.(check (float 0.0)) "default cycles" 21879.0 r.T.r_default_cycles;
  Alcotest.(check (float 0.0)) "tuned cycles" 21879.0 r.T.r_tuned_cycles

(* ------------------------------------------------------------------ *)
(* the gated run: oracle pass, tuned <= default                       *)
(* ------------------------------------------------------------------ *)

let gated = lazy (T.run ~config:gated_config jac)

let test_gated_run () =
  let r = Lazy.force gated in
  Alcotest.(check bool) "oracle passed" true (r.T.r_oracle_ok = Some true);
  Alcotest.(check bool) "tuned no slower than default" true
    (r.T.r_tuned_cycles <= r.T.r_default_cycles);
  Alcotest.(check bool) "oracle ran at least once" true (r.T.r_oracle_checks >= 1);
  Alcotest.(check bool) "default candidate screened first" true
    (match r.T.r_candidates with
    | c :: _ ->
        c.T.c_rendered = Pipeline.options_to_string Pipeline.default_options
    | [] -> false)

(* ------------------------------------------------------------------ *)
(* register: tuned configs never ship without an oracle pass           *)
(* ------------------------------------------------------------------ *)

let test_register_gate () =
  let r = Lazy.force gated in
  (* a winner whose oracle never ran must not ship *)
  let store = S.Tuned.create () in
  Alcotest.(check bool) "oracle-skipped refused" false
    (T.register store { r with T.r_oracle_ok = None });
  (* nor one whose oracle failed *)
  Alcotest.(check bool) "oracle-failed refused" false
    (T.register store { r with T.r_oracle_ok = Some false });
  (* nor one slower than the default *)
  Alcotest.(check bool) "slower-than-default refused" false
    (T.register store
       { r with T.r_tuned_cycles = r.T.r_default_cycles +. 1.0 });
  Alcotest.(check int) "store untouched by refusals" 0 (S.Tuned.size store);
  (* the validated winner ships *)
  Alcotest.(check bool) "validated winner registered" true
    (T.register store r);
  Alcotest.(check int) "store has one entry" 1 (S.Tuned.size store);
  Alcotest.(check bool) "stored under the program key" true
    (S.Tuned.peek store r.T.r_program_key <> None)

(* ------------------------------------------------------------------ *)
(* serve integration: a tuned-cache hit compiles byte-identical to     *)
(* tuning-then-compiling cold                                          *)
(* ------------------------------------------------------------------ *)

let payload (r : S.Engine.result) : string =
  match S.Protocol.response_payload (S.Protocol.compile_response ~id:0 r) with
  | Some p -> p
  | None -> Alcotest.fail "expected an ok compile payload"

(* the emitted CSL, rendered; the full payload also carries pass wall
   times, which legitimately differ between two cold compiles *)
let csl_files (r : S.Engine.result) : string =
  match r.S.Engine.outcome with
  | Ok c ->
      String.concat "\x00"
        (List.concat_map (fun (n, c) -> [ n; c ]) c.S.Engine.files)
  | Error e -> Alcotest.fail ("expected ok compile: " ^ e.S.Engine.e_message)

let test_tuned_hit_byte_identical () =
  let r = Lazy.force gated in
  let store = S.Tuned.create () in
  Alcotest.(check bool) "registered" true (T.register store r);
  let src = T.source_for jac in
  (* the engine with the store transparently compiles under the tuned
     options *)
  let eng = S.Engine.create ~tuned:store () in
  let hot = S.Engine.compile_source eng src in
  Alcotest.(check bool) "tuned override fired" true hot.S.Engine.tuned;
  (* a store-less engine given the tuned options explicitly must produce
     the same bytes *)
  let cold = S.Engine.create () in
  let cold_r = S.Engine.compile_source cold ~options:r.T.r_tuned_options src in
  Alcotest.(check bool) "cold compile not tuned-flagged" false
    cold_r.S.Engine.tuned;
  Alcotest.(check string) "tuned hit byte-identical to cold tuned compile"
    (csl_files cold_r) (csl_files hot);
  (* resubmission hits the compile cache and keeps the tuned flag *)
  let again = S.Engine.compile_source eng src in
  Alcotest.(check bool) "cache hit" true (again.S.Engine.cache = Some `Hit);
  Alcotest.(check bool) "still tuned-flagged" true again.S.Engine.tuned;
  Alcotest.(check string) "hit byte-identical" (payload hot) (payload again);
  let hits, misses = S.Engine.tuned_counters eng in
  Alcotest.(check bool) "tuned hits counted" true (hits >= 2);
  Alcotest.(check int) "no tuned misses for this program" 0 misses

(* ------------------------------------------------------------------ *)
(* store persistence                                                   *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let r = Lazy.force gated in
  let store = S.Tuned.create () in
  Alcotest.(check bool) "registered" true (T.register store r);
  S.Tuned.add store ~key:(S.Tuned.key_of_canonical "other program")
    { Pipeline.default_options with Pipeline.use_varith = false };
  let path = Filename.temp_file "wsc_tuned" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  S.Tuned.save_file store path;
  match S.Tuned.load_file path with
  | Error msg -> Alcotest.fail ("load_file: " ^ msg)
  | Ok loaded ->
      Alcotest.(check int) "entry count survives" (S.Tuned.size store)
        (S.Tuned.size loaded);
      Alcotest.(check string) "store JSON survives the round trip"
        (J.to_string (S.Tuned.to_json store))
        (J.to_string (S.Tuned.to_json loaded));
      (match S.Tuned.peek loaded r.T.r_program_key with
      | None -> Alcotest.fail "tuned entry lost in round trip"
      | Some o ->
          Alcotest.(check string) "options survive"
            (Pipeline.options_to_string r.T.r_tuned_options)
            (Pipeline.options_to_string o));
      Alcotest.(check bool) "missing file is an error" true
        (match S.Tuned.load_file (path ^ ".does-not-exist") with
        | Error _ -> true
        | Ok _ -> false)

let () =
  Alcotest.run "tune"
    [
      ( "search",
        [
          QCheck_alcotest.to_alcotest prop_replay;
          Alcotest.test_case "quick search golden winner" `Quick
            test_quick_golden;
          Alcotest.test_case "gated run: oracle, ranking" `Quick
            test_gated_run;
        ] );
      ( "shipping",
        [
          Alcotest.test_case "register refuses unvalidated winners" `Quick
            test_register_gate;
          Alcotest.test_case "tuned hit byte-identical to cold tuned compile"
            `Quick test_tuned_hit_byte_identical;
          Alcotest.test_case "store save/load round trip" `Quick
            test_store_roundtrip;
        ] );
    ]
