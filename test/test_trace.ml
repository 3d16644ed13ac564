(* Tests for the trace subsystem: the hand-rolled JSON printer/parser,
   the Chrome Trace exporter's well-formedness (valid JSON, monotonic
   timestamps, matched span pairs, link flows), bit-identity of traced
   vs untraced simulations, and the
   pass-remarks plumbing. *)

module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Machine = Wsc_wse.Machine
module Fabric = Wsc_wse.Fabric
module Host = Wsc_wse.Host
module T = Wsc_trace.Trace
module J = Wsc_trace.Json
module A = Wsc_trace.Aggregate
module Remarks = Wsc_trace.Remarks
module Chrome = Wsc_trace.Chrome

let check = Alcotest.(check bool)

let contains ~(sub : string) (s : string) : bool =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(** Compile a benchmark at Tiny, collecting pass remarks. *)
let compile_with_remarks (p : P.t) =
  let remarks = ref [] in
  let pass_options =
    {
      Wsc_ir.Pass.default_options with
      on_remark = Some (Remarks.collect remarks);
    }
  in
  let compiled = Core.Pipeline.compile ~pass_options (P.compile p) in
  (compiled, !remarks)

(* ------------------------------------------------------------------ *)
(* JSON printer/parser                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Int 0;
      J.Int (-42);
      J.Int max_int;
      J.Float 1.5;
      J.Float (-0.25);
      J.Float 3.0;
      J.Float 1e30;
      J.Float 1.25e-3;
      J.String "";
      J.String "plain";
      J.String "quote\" backslash\\ newline\n tab\t cr\r ctl\x01";
      J.List [];
      J.Obj [];
      J.List [ J.Int 1; J.String "two"; J.Float 0.5; J.Null ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("l", J.List [ J.Bool false; J.Obj [] ]) ]);
          ("s", J.String "x:y,z");
        ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' ->
          check
            (Printf.sprintf "roundtrip %s" (J.to_string v))
            true (v = v')
      | Error msg -> Alcotest.failf "roundtrip %s: %s" (J.to_string v) msg)
    cases

let test_json_floats_stay_numbers () =
  (* nan/inf must never leak a token Perfetto's parser rejects *)
  List.iter
    (fun f ->
      let s = J.to_string (J.Float f) in
      match J.of_string s with
      | Ok (J.Float _ | J.Int _) -> ()
      | Ok _ -> Alcotest.failf "float %h printed as non-number %s" f s
      | Error msg -> Alcotest.failf "float %h printed as invalid %s: %s" f s msg)
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e308 ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse of %S should fail" s)
    [ ""; "{"; "[1,"; "tru"; "\"abc"; "{\"a\":}"; "1 2"; "[1 2]"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v =
    J.Obj [ ("n", J.Int 3); ("f", J.Float 2.5); ("l", J.List [ J.String "x" ]) ]
  in
  check "member n" true (J.member "n" v = Some (J.Int 3));
  check "member missing" true (J.member "zzz" v = None);
  check "number of int" true (J.to_number_opt (J.Int 3) = Some 3.0);
  check "number of float" true (J.to_number_opt (J.Float 2.5) = Some 2.5);
  check "list" true
    (Option.map List.length (Option.bind (J.member "l" v) J.to_list_opt) = Some 1)

(** Every tool's envelope carries the shared schema_version, and it
    survives a print/parse round trip — downstream scripts dispatch on
    it before touching [results]. *)
let test_summary_schema_version () =
  List.iter
    (fun tool ->
      let doc =
        J.summary ~tool
          ~config:[ ("k", J.Int 1) ]
          ~results:[ J.Obj [ ("r", J.Bool true) ] ]
      in
      check (tool ^ " stamps schema_version") true
        (J.member "schema_version" doc = Some (J.Int J.schema_version));
      match J.of_string (J.to_string doc) with
      | Ok doc' ->
          check
            (tool ^ " schema_version survives roundtrip")
            true
            (J.member "schema_version" doc' = Some (J.Int J.schema_version));
          check (tool ^ " tool survives roundtrip") true
            (J.member "tool" doc' = Some (J.String tool))
      | Error msg -> Alcotest.failf "summary for %s reparse failed: %s" tool msg)
    [ "simulate"; "faults"; "fuzz"; "reduce"; "bench"; "serve"; "batch" ]

(* qcheck: roundtrip over random int/string/bool trees (floats are
   printed to 12 significant digits, so exact roundtrip is only promised
   for the scalar cases above) *)
let json_gen : J.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) int;
               map (fun s -> J.String s) string_printable;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4)
                      (pair string_printable (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"json print/parse roundtrip"
    (QCheck.make json_gen) (fun v ->
      match J.of_string (J.to_string v) with Ok v' -> v = v' | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* bit-identity: tracing on vs off                                     *)
(* ------------------------------------------------------------------ *)

let test_tracing_bit_identical () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let compiled, _ = compile_with_remarks p in
      let h0 = Host.simulate Machine.wse2 compiled (P.init_grids p) in
      let sink = T.collector () in
      let h1 = Host.simulate ~trace:sink Machine.wse2 compiled (P.init_grids p) in
      let name = d.id in
      check (name ^ " cycles identical") true
        (Fabric.elapsed_cycles h0.sim = Fabric.elapsed_cycles h1.sim);
      check (name ^ " stats identical") true
        (Fabric.stats_equal (Fabric.total_stats h0.sim) (Fabric.total_stats h1.sim));
      List.iter2
        (fun g0 g1 ->
          check (name ^ " outputs identical") true (I.max_abs_diff g0 g1 = 0.0))
        (Host.read_all h0) (Host.read_all h1);
      check (name ^ " collected something") true (T.event_count sink > 0))
    B.all

(* ------------------------------------------------------------------ *)
(* exporter well-formedness                                            *)
(* ------------------------------------------------------------------ *)

type ev = { ph : string; ts : float; pid : int; tid : int; name : string; id : float }

let events_of_export (j : J.t) : ev list =
  let evs =
    match Option.bind (J.member "traceEvents" j) J.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  List.map
    (fun e ->
      let str k = Option.bind (J.member k e) J.to_string_opt in
      let num k = Option.bind (J.member k e) J.to_number_opt in
      match str "ph" with
      | None -> Alcotest.fail "event without ph"
      | Some ph ->
          {
            ph;
            ts = Option.value ~default:0.0 (num "ts");
            pid = int_of_float (Option.value ~default:0.0 (num "pid"));
            tid = int_of_float (Option.value ~default:0.0 (num "tid"));
            name = Option.value ~default:"" (str "name");
            id = Option.value ~default:0.0 (num "id");
          })
    evs

(** Spans must nest per track: every E closes an open B with the same
    name on the same (pid, tid), and nothing stays open.  The check is
    insensitive to the order of same-timestamp neighbours. *)
let check_span_pairs (name : string) (evs : ev list) : unit =
  let open_spans : (int * int, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (e.pid, e.tid) in
      let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans key) in
      match e.ph with
      | "B" -> Hashtbl.replace open_spans key (e.name :: stack)
      | "E" ->
          if not (List.mem e.name stack) then
            Alcotest.failf "%s: E %S on track (%d,%d) without a matching B"
              name e.name e.pid e.tid;
          let removed = ref false in
          let stack' =
            List.filter
              (fun n ->
                if (not !removed) && n = e.name then begin
                  removed := true;
                  false
                end
                else true)
              stack
          in
          Hashtbl.replace open_spans key stack'
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun (pid, tid) stack ->
      if stack <> [] then
        Alcotest.failf "%s: %d span(s) left open on track (%d,%d)" name
          (List.length stack) pid tid)
    open_spans

let check_export (name : string) (sink : T.sink) : unit =
  let j =
    match J.of_string (Chrome.to_string sink) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "%s: export is not valid JSON: %s" name msg
  in
  let evs = events_of_export j in
  check (name ^ " has events") true (evs <> []);
  (* only known Chrome phases *)
  List.iter
    (fun e ->
      if not (List.mem e.ph [ "B"; "E"; "i"; "b"; "e"; "C"; "M" ]) then
        Alcotest.failf "%s: unknown phase %S" name e.ph)
    evs;
  (* timestamps are globally monotonic in file order (the exporter
     sorts), hence monotonic per track too *)
  let non_meta = List.filter (fun e -> e.ph <> "M") evs in
  ignore
    (List.fold_left
       (fun prev (e : ev) ->
         if e.ts < prev then
           Alcotest.failf "%s: timestamp %g before %g" name e.ts prev;
         e.ts)
       neg_infinity non_meta);
  List.iter
    (fun (e : ev) ->
      if e.ts < 0.0 then Alcotest.failf "%s: negative timestamp %g" name e.ts)
    non_meta;
  check_span_pairs name evs;
  (* link flows pair up by id *)
  let flows ph = List.filter (fun e -> e.ph = ph) evs in
  let begins = flows "b" and ends = flows "e" in
  check (name ^ " flow counts match") true (List.length begins = List.length ends);
  check (name ^ " has link flows") true (begins <> []);
  List.iter
    (fun (b : ev) ->
      if not (List.exists (fun (e : ev) -> e.id = b.id) ends) then
        Alcotest.failf "%s: flow id %g begun but never ended" name b.id)
    begins;
  (* per-PE spans exist on the fabric process *)
  check (name ^ " has PE spans") true
    (List.exists (fun e -> e.ph = "B" && e.pid = 0) evs);
  (* track metadata is present *)
  check (name ^ " has metadata") true (List.exists (fun e -> e.ph = "M") evs)

let test_export_wellformed () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let compiled, remarks = compile_with_remarks p in
      let sink = T.collector () in
      let _ = Host.simulate ~trace:sink Machine.wse2 compiled (P.init_grids p) in
      Remarks.emit sink remarks;
      check_export d.id sink)
    B.all

let test_export_has_compiler_track () =
  let p = (B.find "diffusion").make B.Tiny in
  let compiled, remarks = compile_with_remarks p in
  let sink = T.collector () in
  let _ = Host.simulate ~trace:sink Machine.wse2 compiled (P.init_grids p) in
  Remarks.emit sink remarks;
  let j =
    match J.of_string (Chrome.to_string sink) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "invalid JSON: %s" msg
  in
  let evs = events_of_export j in
  check "pass spans on compiler process" true
    (List.exists (fun e -> e.ph = "B" && e.pid = 1) evs);
  check "host markers present" true (List.exists (fun e -> e.pid = 2) evs)

(* ------------------------------------------------------------------ *)
(* pass remarks                                                        *)
(* ------------------------------------------------------------------ *)

let test_remarks_collected () =
  let p = (B.find "diffusion").make B.Tiny in
  let _, remarks = compile_with_remarks p in
  check "remarks nonempty" true (remarks <> []);
  List.iter
    (fun (r : Wsc_ir.Pass.remark) ->
      check (r.r_pass ^ " wall time sane") true (r.r_wall_s >= 0.0);
      check (r.r_pass ^ " op counts sane") true
        (r.r_ops_before > 0 && r.r_ops_after > 0))
    remarks;
  check "total wall positive" true (Remarks.total_wall_s remarks > 0.0);
  let table = Remarks.table remarks in
  check "table mentions every pass" true
    (List.for_all
       (fun (r : Wsc_ir.Pass.remark) -> contains ~sub:r.r_pass table)
       remarks);
  check "table has a total row" true (contains ~sub:"total" table)

(* ------------------------------------------------------------------ *)
(* aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let test_aggregation () =
  let p = (B.find "diffusion").make B.Tiny in
  let compiled, _ = compile_with_remarks p in
  let sink = T.collector () in
  let h = Host.simulate ~trace:sink Machine.wse2 compiled (P.init_grids p) in
  let summaries = Fabric.pe_summaries h.sim in
  check "one summary per PE" true
    (List.length summaries = h.sim.Fabric.width * h.sim.Fabric.height);
  let bd = A.breakdown summaries in
  check "busy pct in range" true (bd.bd_busy_pct >= 0.0 && bd.bd_busy_pct <= 100.0);
  check "blocked pct in range" true
    (bd.bd_blocked_pct >= 0.0 && bd.bd_blocked_pct <= 100.0);
  check "clock bounds ordered" true (bd.bd_max_clock >= bd.bd_min_clock);
  let links = A.links (T.events sink) in
  check "links reconstructed" true (links <> []);
  List.iter
    (fun (l : A.link) ->
      let u = A.utilization l in
      check "utilization in range" true (u >= 0.0 && u <= 1.0);
      check "link transfers positive" true (l.ln_transfers > 0))
    links

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "floats stay numbers" `Quick
            test_json_floats_stay_numbers;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "summary schema_version" `Quick
            test_summary_schema_version;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "bit-identical traced/untraced" `Quick
            test_tracing_bit_identical;
        ] );
      ( "export",
        [
          Alcotest.test_case "well-formed for every benchmark" `Quick
            test_export_wellformed;
          Alcotest.test_case "compiler and host tracks" `Quick
            test_export_has_compiler_track;
        ] );
      ( "remarks",
        [ Alcotest.test_case "collected and rendered" `Quick test_remarks_collected ] );
      ( "aggregate",
        [ Alcotest.test_case "summaries, links" `Quick test_aggregation ] );
    ]
