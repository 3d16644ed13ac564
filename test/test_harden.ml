(* Hardening subsystem: fuzzer determinism and envelope, differential
   oracle (clean programs agree; an injected miscompile is caught),
   reducer shrinking, crash artifacts, and the shared JSON summary
   envelope. *)

module P = Wsc_frontends.Stencil_program
module H = Wsc_harden
module Json = Wsc_trace.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tmp_dir (label : string) : string =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wsc-harden-%s-%d" label (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* ------------------------------------------------------------------ *)
(* fuzzer                                                              *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  for i = 0 to 19 do
    let a = H.Fuzz.generate ~seed:42 ~index:i in
    let b = H.Fuzz.generate ~seed:42 ~index:i in
    check (Printf.sprintf "case %d replays" i) true (a = b)
  done;
  (* case i is independent of the cases before it: a different seed
     changes the program *)
  check "seeds differ" true
    (H.Fuzz.generate ~seed:1 ~index:0 <> H.Fuzz.generate ~seed:2 ~index:0)

let test_generator_well_formed () =
  for seed = 1 to 4 do
    for i = 0 to 49 do
      let p = H.Fuzz.generate ~seed ~index:i in
      check (Printf.sprintf "s%d c%d well-formed" seed i) true
        (H.Fuzz.well_formed p)
    done
  done

let test_generator_variants () =
  (* across a modest index range all four program shapes appear *)
  let shapes = Hashtbl.create 4 in
  for i = 0 to 39 do
    let p = H.Fuzz.generate ~seed:7 ~index:i in
    let shape =
      ( List.length p.P.state,
        List.length p.P.kernels,
        List.exists (fun s -> s = "mask") p.P.state )
    in
    Hashtbl.replace shapes shape ()
  done;
  check "several program shapes" true (Hashtbl.length shapes >= 3)

let test_program_json_roundtrip () =
  for i = 0 to 19 do
    let p = H.Fuzz.generate ~seed:11 ~index:i in
    let j = H.Fuzz.program_to_json p in
    (* through text, as the artifact files store it *)
    match Json.of_string (Json.to_string j) with
    | Error e -> Alcotest.failf "case %d: JSON re-parse failed: %s" i e
    | Ok j2 -> (
        match H.Fuzz.program_of_json j2 with
        | Error e -> Alcotest.failf "case %d: program decode failed: %s" i e
        | Ok p2 -> check (Printf.sprintf "case %d round-trips" i) true (p = p2))
  done

(* ------------------------------------------------------------------ *)
(* oracle                                                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_agrees_on_clean_programs () =
  for i = 0 to 4 do
    let p = H.Fuzz.generate ~seed:3 ~index:i in
    let r = H.Oracle.check p in
    (match r.H.Oracle.failure with
    | Some f ->
        Alcotest.failf "case %d rejected: %s" i (H.Oracle.failure_to_string f)
    | None -> ());
    check (Printf.sprintf "case %d ok" i) true (H.Oracle.ok r)
  done

let test_oracle_catches_injected_bug () =
  let p = H.Fuzz.generate ~seed:3 ~index:0 in
  match (H.Oracle.check ~inject_bug:true p).H.Oracle.failure with
  | None -> Alcotest.fail "injected miscompile not caught"
  | Some f ->
      check "caught as a mismatch" true
        (match f with H.Oracle.Mismatch _ -> true | _ -> false);
      check "interp tier flags it first" true
        (H.Oracle.failure_key f = "mismatch:interp")

(* One-element chunks (as many chunks as z planes) under the default
   promoted coefficients: the mid-level interpretation must still
   receive every neighbour's contribution, so the oracle's interp tier
   cannot report a false miscompile there. *)
let test_oracle_one_element_chunks () =
  let module Bm = Wsc_benchmarks.Benchmarks in
  let module Pl = Wsc_core.Pipeline in
  let module I = Wsc_dialects.Interp in
  List.iter
    (fun (d : Bm.descr) ->
      let p = d.make Bm.Tiny in
      let _, _, nz = p.P.extents in
      let options = { Pl.default_options with num_chunks_override = Some nz } in
      let m =
        Wsc_ir.Pass.run_pipeline
          (Pl.frontend_passes options @ Pl.middle_passes options)
          (P.compile p)
      in
      let grids = P.init_grids p in
      ignore
        (Wsc_core.Csl_stencil_interp.run_func m ~name:"main"
           (List.map (fun g -> I.Rgrid g) grids));
      let diff = I.max_abs_diff_list (P.run_reference p) grids in
      if not (P.within_tolerance diff) then
        Alcotest.failf "%s: mid-level module differs from the reference by %g"
          d.id diff;
      match (H.Oracle.check ~options p).H.Oracle.failure with
      | Some f -> Alcotest.failf "%s: %s" d.id (H.Oracle.failure_to_string f)
      | None -> ())
    Bm.all

(* ------------------------------------------------------------------ *)
(* reducer                                                             *)
(* ------------------------------------------------------------------ *)

let test_candidates_shrink () =
  for i = 0 to 9 do
    let p = H.Fuzz.generate ~seed:5 ~index:i in
    let sz = H.Fuzz.program_size p in
    List.iter
      (fun q ->
        check "candidate well-formed" true (H.Fuzz.well_formed q);
        check "candidate strictly smaller" true (H.Fuzz.program_size q < sz))
      (H.Reduce.candidates p)
  done

let test_reduce_shrinks_failing_case () =
  let p = H.Fuzz.generate ~seed:3 ~index:1 in
  let key =
    match (H.Oracle.check ~inject_bug:true p).H.Oracle.failure with
    | Some f -> H.Oracle.failure_key f
    | None -> Alcotest.fail "expected a failure to reduce"
  in
  let still_fails q =
    match (H.Oracle.check ~inject_bug:true q).H.Oracle.failure with
    | Some f -> H.Oracle.failure_key f = key
    | None -> false
  in
  let r = H.Reduce.reduce ~max_checks:80 ~still_fails p in
  check "took at least one step" true (r.H.Reduce.steps > 0);
  check "strictly smaller" true
    (H.Fuzz.program_size r.H.Reduce.reduced < H.Fuzz.program_size p);
  check "still fails the same way" true (still_fails r.H.Reduce.reduced);
  check "reduced case is well-formed" true (H.Fuzz.well_formed r.H.Reduce.reduced)

(* ------------------------------------------------------------------ *)
(* campaign + artifacts                                                *)
(* ------------------------------------------------------------------ *)

let test_campaign_clean () =
  let dir = tmp_dir "clean" in
  let cfg =
    {
      H.Campaign.default_config with
      H.Campaign.seed = 9;
      count = 5;
      crash_dir = dir;
    }
  in
  let r = H.Campaign.run cfg in
  check_int "no crashes" 0 (H.Campaign.crashes r);
  check_int "all cases ran" 5 (List.length r.H.Campaign.cases)

let test_campaign_json_deterministic () =
  let dir = tmp_dir "det" in
  let cfg =
    {
      H.Campaign.default_config with
      H.Campaign.seed = 4;
      count = 4;
      crash_dir = dir;
    }
  in
  let j1 = Json.to_string (H.Campaign.to_json (H.Campaign.run cfg)) in
  let j2 = Json.to_string (H.Campaign.to_json (H.Campaign.run cfg)) in
  check_str "byte-identical replay" j1 j2

let test_campaign_catches_and_dumps () =
  let dir = tmp_dir "bug" in
  let cfg =
    {
      H.Campaign.default_config with
      H.Campaign.seed = 3;
      count = 1;
      crash_dir = dir;
      inject_bug = true;
      reduce_budget = 80;
    }
  in
  let r = H.Campaign.run cfg in
  check_int "the miscompile is caught" 1 (H.Campaign.crashes r);
  let c = List.hd r.H.Campaign.cases in
  (match c.H.Campaign.c_reduced_size with
  | None -> Alcotest.fail "no reduction recorded"
  | Some s -> check "reduced strictly smaller" true (s < c.H.Campaign.c_size));
  match c.H.Campaign.c_artifact with
  | None -> Alcotest.fail "no artifact written"
  | Some crash_dir ->
      check "report.json exists" true
        (Sys.file_exists (Filename.concat crash_dir "report.json"));
      check "before.mlir exists" true
        (Sys.file_exists (Filename.concat crash_dir "before.mlir"));
      (* the artifact loads back and replays: same program, same defect *)
      (match H.Artifact.load crash_dir with
      | Error e -> Alcotest.failf "artifact load failed: %s" e
      | Ok a ->
          check "artifact program replays the case" true
            (a.H.Artifact.program = H.Fuzz.generate ~seed:3 ~index:0);
          check "artifact remembers the bug flag" true a.H.Artifact.inject_bug;
          (match a.H.Artifact.reduced with
          | None -> Alcotest.fail "artifact lost the reduced case"
          | Some red ->
              check "stored reduction still fails the same way" true
                (match (H.Oracle.check ~inject_bug:true red).H.Oracle.failure with
                | Some f -> H.Oracle.failure_key f = a.H.Artifact.key
                | None -> false)))

(* ------------------------------------------------------------------ *)
(* shared JSON envelope                                                *)
(* ------------------------------------------------------------------ *)

let test_summary_envelope () =
  let dir = tmp_dir "env" in
  let cfg =
    {
      H.Campaign.default_config with
      H.Campaign.seed = 2;
      count = 2;
      crash_dir = dir;
    }
  in
  let doc = H.Campaign.to_json (H.Campaign.run cfg) in
  check "tool" true (Json.member "tool" doc = Some (Json.String "fuzz"));
  check "schema_version" true
    (Json.member "schema_version" doc = Some (Json.Int 1));
  check "config is an object" true
    (match Json.member "config" doc with Some (Json.Obj _) -> true | _ -> false);
  (match Json.member "results" doc with
  | Some (Json.List l) -> check_int "one result per case" 2 (List.length l)
  | _ -> Alcotest.fail "results missing");
  (* float_or_null keeps measurements and non-measurements apart *)
  check "nan -> null" true (Json.float_or_null Float.nan = Json.Null);
  check "inf -> null" true (Json.float_or_null infinity = Json.Null);
  check "finite -> float" true (Json.float_or_null 1.5 = Json.Float 1.5)

let () =
  Alcotest.run "harden"
    [
      ( "fuzz",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "well-formed" `Quick test_generator_well_formed;
          Alcotest.test_case "variants" `Quick test_generator_variants;
          Alcotest.test_case "json round-trip" `Quick test_program_json_roundtrip;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean programs agree" `Quick
            test_oracle_agrees_on_clean_programs;
          Alcotest.test_case "injected bug caught" `Quick
            test_oracle_catches_injected_bug;
          Alcotest.test_case "one-element chunks agree" `Quick
            test_oracle_one_element_chunks;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "candidates shrink" `Quick test_candidates_shrink;
          Alcotest.test_case "reduces a failing case" `Quick
            test_reduce_shrinks_failing_case;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean campaign" `Quick test_campaign_clean;
          Alcotest.test_case "deterministic json" `Quick
            test_campaign_json_deterministic;
          Alcotest.test_case "catches, dumps, reduces" `Quick
            test_campaign_catches_and_dumps;
        ] );
      ("json", [ Alcotest.test_case "summary envelope" `Quick test_summary_envelope ]);
    ]
