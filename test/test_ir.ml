(* Tests for the SSA IR core: structure, attributes, traversal,
   substitution, cloning, DCE, the textual printer/parser round trip and
   the verifier. *)

open Wsc_ir.Ir
module Printer = Wsc_ir.Printer
module Parser = Wsc_ir.Parser
module Verifier = Wsc_ir.Verifier
module Builtin = Wsc_dialects.Builtin
module Arith = Wsc_dialects.Arith
module Func = Wsc_dialects.Func

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* construction and attributes                                         *)
(* ------------------------------------------------------------------ *)

let test_create_op () =
  let a = new_value F32 and b = new_value F32 in
  let op = create_op "test.add" ~operands:[ a; b ] ~results:[ F32 ] in
  check_int "operand count" 2 (List.length op.operands);
  check_int "result count" 1 (List.length op.results);
  check "result type" true ((result op).vtyp = F32);
  check "fresh result ids" true ((result op).vid <> a.vid)

let test_attrs () =
  let op =
    create_op "test.op" ~results:[]
      ~attrs:[ ("i", Int_attr 42); ("f", Float_attr 1.5); ("s", String_attr "x") ]
  in
  check_int "int attr" 42 (int_attr_exn op "i");
  check "float attr" true (float_attr_exn op "f" = 1.5);
  check_str "string attr" "x" (string_attr_exn op "s");
  check "missing attr" true (attr op "nope" = None);
  set_attr op "i" (Int_attr 7);
  check_int "overwrite" 7 (int_attr_exn op "i");
  remove_attr op "i";
  check "removed" true (attr op "i" = None);
  Alcotest.check_raises "missing raises"
    (Invalid_argument "op test.op: missing attribute gone") (fun () ->
      ignore (attr_exn op "gone"))

let test_dense_ints () =
  let op = create_op "t" ~results:[] ~attrs:[ ("off", Dense_ints [ 1; -2; 3 ]) ] in
  check "dense ints" true (dense_ints_exn op "off" = [ 1; -2; 3 ])

(* ------------------------------------------------------------------ *)
(* type helpers                                                        *)
(* ------------------------------------------------------------------ *)

let test_type_helpers () =
  let t = Temp ([ (-1, 5); (-1, 5); (-2, 10) ], F32) in
  check "elem" true (elem_type t = F32);
  check "shape" true (shape_of t = [ 6; 6; 12 ]);
  check_int "elements" (6 * 6 * 12) (num_elements t);
  check_int "bytes" (6 * 6 * 12 * 4) (size_in_bytes t);
  check_int "rank" 3 (rank t);
  let tt = Temp ([ (0, 4) ], Tensor ([ 8 ], F32)) in
  check "nested elem" true (elem_type tt = F32);
  check_int "tensor bytes" (8 * 4) (size_in_bytes (Tensor ([ 8 ], F32)))

(* ------------------------------------------------------------------ *)
(* traversal, use counts, dce                                          *)
(* ------------------------------------------------------------------ *)

let simple_module () =
  let f =
    Func.func ~name:"f" ~args:[ F32 ] ~results:[ F32 ] (fun b args ->
        let x = List.hd args in
        let c = Wsc_ir.Builder.insert b (Arith.constant_f 2.0) in
        let m = Wsc_ir.Builder.insert b (Arith.mulf c x) in
        let dead = Wsc_ir.Builder.insert b (Arith.addf x x) in
        ignore dead;
        Wsc_ir.Builder.insert0 b (Func.return_ [ m ]))
  in
  Builtin.module_op [ f ]

let test_walk () =
  let m = simple_module () in
  let names = ref [] in
  walk_op (fun o -> names := o.opname :: !names) m;
  check "walk sees module" true (List.mem "builtin.module" !names);
  check "walk sees nested" true (List.mem "arith.mulf" !names);
  check_int "op count" 6 (Wsc_ir.Stats.total_ops m);
  check_int "find_ops" 1 (List.length (find_ops_by_name "arith.mulf" m));
  check "find_op none" true (find_op_by_name "nope.op" m = None)

let test_use_counts_and_dce () =
  let m = simple_module () in
  let pure = function
    | "arith.addf" | "arith.mulf" | "arith.constant" -> true
    | _ -> false
  in
  let removed = dce ~pure m in
  check_int "dead addf removed" 1 removed;
  check_int "mulf kept" 1 (Wsc_ir.Stats.count m "arith.mulf");
  check_int "addf gone" 0 (Wsc_ir.Stats.count m "arith.addf")

let test_subst () =
  let a = new_value F32 and b = new_value F32 and c = new_value F32 in
  let s = Subst.create () in
  Subst.add s ~from:a ~to_:b;
  Subst.add s ~from:b ~to_:c;
  check "chases chains" true ((Subst.resolve s a).vid = c.vid);
  check "identity" true ((Subst.resolve s c).vid = c.vid)

let test_clone () =
  let m = simple_module () in
  let f = Option.get (Func.lookup m "f") in
  let s = Subst.create () in
  let f2 = clone_op s f in
  check "clone keeps name" true (f2.opname = "func.func");
  check_int "clone keeps body size" (List.length (Func.entry f).bops)
    (List.length (Func.entry f2).bops);
  (* the clone must not alias the original's values *)
  let orig_ids = ref [] in
  walk_op (fun o -> List.iter (fun v -> orig_ids := v.vid :: !orig_ids) o.results) f;
  walk_op
    (fun o ->
      List.iter (fun v -> check "fresh ids" false (List.mem v.vid !orig_ids)) o.results)
    f2

let test_rewrite_block () =
  let m = simple_module () in
  let f = Option.get (Func.lookup m "f") in
  let blk = Func.entry f in
  let before = List.length blk.bops in
  rewrite_block
    (fun o -> if o.opname = "arith.addf" then Erase else Keep)
    blk;
  check_int "one erased" (before - 1) (List.length blk.bops)

(* ------------------------------------------------------------------ *)
(* printer / parser round trip                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip_fixpoint m =
  let s1 = Printer.op_to_string m in
  let s2 = Printer.op_to_string (Parser.parse_string s1) in
  let s3 = Printer.op_to_string (Parser.parse_string s2) in
  (s2, s3)

let test_roundtrip_simple () =
  let s2, s3 = roundtrip_fixpoint (simple_module ()) in
  check_str "fixpoint" s2 s3

let test_roundtrip_all_benchmarks () =
  List.iter
    (fun (d : Wsc_benchmarks.Benchmarks.descr) ->
      let p = d.make Wsc_benchmarks.Benchmarks.Tiny in
      let m = Wsc_frontends.Stencil_program.compile p in
      let s2, s3 = roundtrip_fixpoint m in
      check_str ("fixpoint " ^ d.id) s2 s3)
    Wsc_benchmarks.Benchmarks.all

(* a block boundary survives the round trip even between blocks without
   arguments: every block after the entry block carries a label *)
let test_roundtrip_block_boundaries () =
  let leaf name = create_op name ~results:[] in
  let region =
    new_region
      [
        new_block [ leaf "t.a" ];
        new_block [ leaf "t.b"; leaf "t.c" ];
        new_block ~args:[ new_value I32 ] [ leaf "t.d" ];
      ]
  in
  let op = create_op "t.holder" ~results:[] ~regions:[ region ] in
  let shape (o : op) =
    List.map (fun b -> (List.length b.bargs, List.length b.bops)) (List.hd o.regions).blocks
  in
  let text = Printer.op_to_string op in
  let parsed = Parser.parse_string text in
  check "blocks, arguments and ops kept" true (shape op = shape parsed);
  check_str "reprint" text (Printer.op_to_string parsed)

let test_parse_types () =
  List.iter
    (fun t ->
      let s = Printer.typ_to_string t in
      (* embed in a constant op so the parser exercises the type position *)
      let v = new_value t in
      let op = create_op "test.id" ~operands:[ v ] ~results:[ t ] in
      ignore op;
      let text = Printf.sprintf "%%r = \"test.src\"() : () -> (%s)" s in
      let parsed = Parser.parse_string text in
      check_str ("type " ^ s) s (Printer.typ_to_string (result parsed).vtyp))
    [
      F16; F32; F64; I1; I16; I32; I64; Index;
      Tensor ([ 4 ], F32);
      Tensor ([ 4; 8 ], F32);
      Tensor ([], F32);
      Memref ([ 16 ], F32);
      Temp ([ (-1, 5) ], F32);
      Temp ([ (-1, 5); (0, 3) ], Tensor ([ 7 ], F32));
      Field ([ (-2, 10); (-2, 10); (-2, 12) ], F32);
      Ptr (Memref ([ 8 ], F32), Ptr_many);
      Ptr (F32, Ptr_single);
      Dsd Mem1d; Dsd Mem4d; Dsd Fabin; Dsd Fabout;
      Color;
      Struct "comms";
    ]

let test_parse_errors () =
  let bad = [ "\"op\"("; "\"op\"() : () -> (badtype)"; "%x = \"op\"() : () -> ()" ] in
  List.iter
    (fun s ->
      match Parser.parse_string s with
      | exception Parser.Parse_error _ -> ()
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" s)
    bad

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_parse_count_mismatch_named () =
  (* an operand/type count mismatch must be a proper parse error naming
     the op and its source line, not a bare Invalid_argument from the
     zipping List.map2 *)
  let cases =
    [
      ( "// leading comment\n\"test.op\"(%a, %b) : (f32) -> ()",
        [ "test.op"; "line 2"; "2 operands but 1" ] );
      ( "\"test.res\"() : () -> (f32, f32)",
        [ "test.res"; "line 1"; "result" ] );
    ]
  in
  List.iter
    (fun (s, needles) ->
      match Parser.parse_string s with
      | exception Parser.Parse_error (_, msg) ->
          List.iter
            (fun needle ->
              if not (contains msg needle) then
                Alcotest.failf "error %S does not mention %S" msg needle)
            needles
      | exception e ->
          Alcotest.failf "expected Parse_error, got %s" (Printexc.to_string e)
      | _ -> Alcotest.failf "expected parse error for %S" s)
    cases

let test_parse_error_locations () =
  (* every failure carries a structured line/column location and the
     rendered message names both; out-of-range numeric literals must be
     located parse errors, not the bare Failure of int_of_string *)
  let check_loc s ~line =
    match Parser.parse_string s with
    | exception Parser.Parse_error (loc, msg) ->
        Alcotest.(check int) ("line of " ^ s) line loc.Parser.line;
        if loc.Parser.col <= 0 then
          Alcotest.failf "no column for %S: %S" s msg;
        if not (contains msg "column") then
          Alcotest.failf "message %S does not name the column" msg
    | exception e ->
        Alcotest.failf "expected Parse_error for %S, got %s" s
          (Printexc.to_string e)
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  check_loc "\"op\"() : () -> (badtype)" ~line:1;
  check_loc "// comment\n\"op\"() : () -> (f32) extra" ~line:2;
  check_loc "\"t.op\"() { a = 99999999999999999999999 } : () -> ()" ~line:1;
  check_loc "%x = \"op\"() : () -> (f32)\n\"t\"(%x, %x) : (f32) -> ()" ~line:2

(* Every single-fault input, with the exact message and location the
   parser reports for it. *)
let parse_error_table =
  [
    ("\"op", 1, 1, "unterminated string (line 1, column 1)");
    ( "\"t.op\"() {a = 1e} : () -> ()",
      1, 15, "bad float literal '1e' (line 1, column 15)" );
    ( "\"t.op\"() {a = 99999999999999999999999} : () -> ()",
      1, 15,
      "integer literal '99999999999999999999999' out of range (line 1, column 15)" );
    ( "\"op\"() : () -> (badtype)",
      1, 24, "unknown type 'badtype' (at ), line 1, column 24)" );
    ( "%r = \"op\"() : () -> (!csl.dsd<foo>)",
      1, 35, "bad dsd kind (at ), line 1, column 35)" );
    ("\"op\"(%a : (f32) -> ()", 1, 9, "expected ')' (at :, line 1, column 9)");
    ( "// leading comment\n\"test.op\"(%a, %b) : (f32) -> ()",
      2, 32,
      "op test.op (line 2, column 1): 2 operands but 1 operand types (at \
       <eof>, line 2, column 32)" );
    ( "\"test.res\"() : () -> (f32, f32)",
      1, 32,
      "op test.res (line 1, column 1): 0 results but 2 result types (at \
       <eof>, line 1, column 32)" );
    ( "\"op\"() : () -> () extra",
      1, 19, "trailing input: id:extra (line 1, column 19)" );
    ("\"op\"()", 1, 7, "expected ':' (at <eof>, line 1, column 7)");
    ( "\"t.op\"() ({\n  \"t.a\"() : () -> ()\n  \"t.b\"() : () -> (f32\n}) : () -> ()",
      4, 1, "expected ')' (at }, line 4, column 1)" );
    ( "%r = \"op\"() : () -> (!foo.bar)",
      1, 23, "unknown ! type (at id:foo.bar, line 1, column 23)" );
    ( "\"t.op\"() {a = =} : () -> ()",
      1, 15, "expected attribute (at =, line 1, column 15)" );
    ( "%r = \"op\"() : () -> (tensor<4x8yf32>)",
      1, 36, "bad shape element '8yf32' (at >, line 1, column 36)" );
    ( "%r = \"op\"() : () -> (!stencil.temp<[a,1]xf32>)",
      1, 37, "expected integer (at id:a, line 1, column 37)" );
    ( "%r = \"op\"() : () -> (!csl.ptr<f32, both>)",
      1, 36, "expected single|many (at id:both, line 1, column 36)" );
    ( "(\"op\"() : () -> ()",
      1, 1, "expected op name string (at (, line 1, column 1)" );
    ( "\"t.op\"() {s = \"multi\nline\", b = ?} : () -> ()",
      2, 12, "expected attribute (at ?, line 2, column 12)" );
    ( "\"t.op\"() {a = 1.5.5} : () -> ()",
      1, 18, "expected '}' (at id:.5, line 1, column 18)" );
  ]

let check_parse_errors table =
  List.iter
    (fun (s, line, col, msg) ->
      match Parser.parse_string s with
      | exception Parser.Parse_error (loc, m) ->
          check_str ("message of " ^ s) msg m;
          check_int ("line of " ^ s) line loc.Parser.line;
          check_int ("column of " ^ s) col loc.Parser.col
      | exception e ->
          Alcotest.failf "expected Parse_error for %S, got %s" s
            (Printexc.to_string e)
      | _ -> Alcotest.failf "expected parse error for %S" s)
    table

let test_parse_error_messages () = check_parse_errors parse_error_table

(* The lexer runs on demand, so an input with several faults reports
   the first one in text order (here a syntax fault ahead of an
   out-of-range literal); a region holding something that starts no
   block is refused, not looped over. *)
let test_parse_first_fault () =
  check_parse_errors
    [
      ( "\"op\"(5) {a = 99999999999999999999999} : () -> ()",
        1, 6, "expected ')' (at 5, line 1, column 6)" );
      ( "\"op\"() ({ 5 }) : () -> ()",
        1, 11, "expected '}' (at 5, line 1, column 11)" );
    ]

(* MD5 of the text printed at every pass boundary (the input module,
   then the module after each pass of the default pipeline), so any
   change to the printed bytes shows here. *)
let boundary_digest (programs : Wsc_frontends.Stencil_program.t list) =
  let b = Buffer.create (1 lsl 20) in
  let on_ir _ m = Buffer.add_string b (Printer.op_to_string m) in
  List.iter
    (fun p ->
      let m = Wsc_frontends.Stencil_program.compile p in
      on_ir "input" m;
      ignore
        (Wsc_core.Pipeline.compile
           ~pass_options:{ Wsc_ir.Pass.default_options with on_ir = Some on_ir }
           m))
    programs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_print_digests () =
  List.iter2
    (fun (d : Wsc_benchmarks.Benchmarks.descr) want ->
      check_str ("boundary prints of " ^ d.id) want
        (boundary_digest [ d.make Wsc_benchmarks.Benchmarks.Tiny ]))
    Wsc_benchmarks.Benchmarks.all
    [
      "b605b196bc82a78060110a6561787f96";
      "1ad4adbd6b39a0469f1d0a06418d6538";
      "4e5e3c6899420c475b67c868fea3a76d";
      "829378dfaa042e1699cab23ac5ce8c26";
      "4e9010ff554c8cc960c27988e0055f16";
    ];
  check_str "boundary prints of fuzz seed 1, indices 0-59"
    "badbde5a77193d1358f5fa4e4bd184b4"
    (boundary_digest
       (List.init 60 (fun index -> Wsc_harden.Fuzz.generate ~seed:1 ~index)))

let test_parse_attrs_roundtrip () =
  let attrs =
    [
      ("a", Int_attr (-3));
      ("b", Float_attr 2.5);
      ("c", String_attr "hi \"there\"\n");
      ("d", Array_attr [ Int_attr 1; Float_attr 2.0 ]);
      ("e", Dict_attr [ ("x", Int_attr 1); ("y", String_attr "z") ]);
      ("f", Dense_ints [ 1; 2; 3 ]);
      ("g", Dense_floats [ 1.5; -2.25 ]);
      ("h", Symbol_ref "some_fn");
      ("i", Bool_attr true);
      ("j", Unit_attr);
    ]
  in
  let op = create_op "test.attrs" ~results:[] ~attrs in
  let s = Printer.op_to_string op in
  let op2 = Parser.parse_string s in
  List.iter
    (fun (k, v) ->
      let v2 = Option.get (attr op2 k) in
      (* unit prints as "unit" and reparses as itself; booleans likewise *)
      check ("attr " ^ k) true (v = v2 || (v = Unit_attr && v2 = Unit_attr)))
    attrs

(* ------------------------------------------------------------------ *)
(* verifier                                                            *)
(* ------------------------------------------------------------------ *)

let test_verifier_accepts () =
  Verifier.verify (simple_module ())

let test_verifier_ssa_violation () =
  (* an op that uses a value never defined *)
  let ghost = new_value F32 in
  let use = create_op "test.use" ~operands:[ ghost ] ~results:[] in
  let m = Builtin.module_op [ use ] in
  match Verifier.verify m with
  | exception Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected SSA violation"

let test_verifier_use_before_def () =
  let c = Arith.constant_f 1.0 in
  let use = create_op "test.use" ~operands:[ result c ] ~results:[] in
  (* use placed before its definition *)
  let m = Builtin.module_op [ use; c ] in
  match Verifier.verify m with
  | exception Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected use-before-def"

let test_verifier_terminator () =
  (* func without return *)
  let f =
    Func.func ~name:"g" ~args:[] ~results:[] (fun b _ ->
        Wsc_ir.Builder.insert0 b (Arith.constant_f 1.0))
  in
  let m = Builtin.module_op [ f ] in
  match Verifier.verify m with
  | exception Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected missing-terminator error"

let test_verify_result () =
  check "ok is Ok" true (Verifier.verify_result (simple_module ()) = Ok ());
  let ghost = new_value F32 in
  let m = Builtin.module_op [ create_op "t" ~operands:[ ghost ] ~results:[] ] in
  check "error is Error" true
    (match Verifier.verify_result m with Error _ -> true | Ok () -> false)

let test_verifier_names_offending_op () =
  (* a verification failure must carry the offending op's textual form,
     so a failing verify_each run is diagnosable without a dump *)
  let ghost = new_value F32 in
  let m = Builtin.module_op [ create_op "t.bad" ~operands:[ ghost ] ~results:[] ] in
  match Verifier.verify m with
  | exception Verifier.Verification_error msg ->
      if not (contains msg "offending op") then
        Alcotest.failf "message %S lacks the offending-op snippet" msg;
      if not (contains msg "t.bad") then
        Alcotest.failf "message %S does not show the op" msg
  | () -> Alcotest.fail "expected verification error"

(* ------------------------------------------------------------------ *)
(* pass manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_pipeline_on_ir_hook () =
  (* the snapshot hook sees the module after every pass, in order *)
  let seen = ref [] in
  let opts =
    {
      Wsc_ir.Pass.default_options with
      on_ir = Some (fun name _ -> seen := name :: !seen);
    }
  in
  let mk name = Wsc_ir.Pass.make_inplace name (fun _ -> ()) in
  ignore
    (Wsc_ir.Pass.run_pipeline ~options:opts [ mk "a"; mk "b" ] (simple_module ()));
  check "hook call order" true (List.rev !seen = [ "a"; "b" ])

let test_pipeline_runs_in_order () =
  let log = ref [] in
  let mk name = Wsc_ir.Pass.make_inplace name (fun _ -> log := name :: !log) in
  let m = simple_module () in
  ignore (Wsc_ir.Pass.run_pipeline [ mk "a"; mk "b"; mk "c" ] m);
  check "order" true (List.rev !log = [ "a"; "b"; "c" ])

let test_pipeline_verifies () =
  let break =
    Wsc_ir.Pass.make_inplace "break" (fun m ->
        (* splice in an op using an undefined value *)
        let ghost = new_value F32 in
        Builtin.set_body m
          (Builtin.body m @ [ create_op "bad" ~operands:[ ghost ] ~results:[] ]))
  in
  match Wsc_ir.Pass.run_pipeline [ break ] (simple_module ()) with
  | exception Wsc_ir.Pass.Pass_failed ("break", _) -> ()
  | _ -> Alcotest.fail "expected Pass_failed"

let test_pipeline_wraps_any_exception () =
  (* every exception escaping a pass must be attributed to it, not just
     verifier errors; the original exception rides along as payload *)
  let boom =
    [
      ("boom-failure", fun _ -> failwith "kaboom");
      ("boom-not-found", fun _ -> raise Not_found);
      ("boom-invalid", fun _ -> invalid_arg "List.map2");
    ]
  in
  List.iter
    (fun (name, f) ->
      let pass = Wsc_ir.Pass.make name f in
      match Wsc_ir.Pass.run_pipeline [ pass ] (simple_module ()) with
      | exception Wsc_ir.Pass.Pass_failed (n, _) ->
          check_str "failing pass named" name n
      | exception e ->
          Alcotest.failf "expected Pass_failed, got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Pass_failed")
    boom;
  (* a Pass_failed from a nested pipeline keeps its original attribution *)
  let nested =
    Wsc_ir.Pass.make "outer" (fun m ->
        Wsc_ir.Pass.run_pipeline
          [ Wsc_ir.Pass.make "inner" (fun _ -> failwith "deep") ]
          m)
  in
  match Wsc_ir.Pass.run_pipeline [ nested ] (simple_module ()) with
  | exception Wsc_ir.Pass.Pass_failed ("inner", _) -> ()
  | exception Wsc_ir.Pass.Pass_failed (n, _) ->
      Alcotest.failf "attributed to %S, expected the inner pass" n
  | _ -> Alcotest.fail "expected Pass_failed"

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let m = simple_module () in
  let hist = Wsc_ir.Stats.op_histogram m in
  check_int "mulf count" 1 (List.assoc "arith.mulf" hist);
  check_int "addf count" 1 (List.assoc "arith.addf" hist)

let () =
  Alcotest.run "ir"
    [
      ( "core",
        [
          Alcotest.test_case "create op" `Quick test_create_op;
          Alcotest.test_case "attributes" `Quick test_attrs;
          Alcotest.test_case "dense ints" `Quick test_dense_ints;
          Alcotest.test_case "type helpers" `Quick test_type_helpers;
          Alcotest.test_case "walk" `Quick test_walk;
          Alcotest.test_case "use counts and dce" `Quick test_use_counts_and_dce;
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "clone" `Quick test_clone;
          Alcotest.test_case "rewrite block" `Quick test_rewrite_block;
        ] );
      ( "printer-parser",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
          Alcotest.test_case "roundtrip benchmarks" `Quick
            test_roundtrip_all_benchmarks;
          Alcotest.test_case "block boundaries" `Quick
            test_roundtrip_block_boundaries;
          Alcotest.test_case "types" `Quick test_parse_types;
          Alcotest.test_case "attrs" `Quick test_parse_attrs_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error locations" `Quick test_parse_error_locations;
          Alcotest.test_case "count mismatch named" `Quick
            test_parse_count_mismatch_named;
          Alcotest.test_case "error messages" `Quick test_parse_error_messages;
          Alcotest.test_case "first fault reported" `Quick test_parse_first_fault;
          Alcotest.test_case "pass-boundary print digests" `Quick
            test_print_digests;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts valid" `Quick test_verifier_accepts;
          Alcotest.test_case "ssa violation" `Quick test_verifier_ssa_violation;
          Alcotest.test_case "use before def" `Quick test_verifier_use_before_def;
          Alcotest.test_case "terminator" `Quick test_verifier_terminator;
          Alcotest.test_case "verify_result" `Quick test_verify_result;
          Alcotest.test_case "names offending op" `Quick
            test_verifier_names_offending_op;
        ] );
      ( "passes",
        [
          Alcotest.test_case "pipeline order" `Quick test_pipeline_runs_in_order;
          Alcotest.test_case "on_ir hook" `Quick test_pipeline_on_ir_hook;
          Alcotest.test_case "pipeline verifies" `Quick test_pipeline_verifies;
          Alcotest.test_case "pipeline wraps exceptions" `Quick
            test_pipeline_wraps_any_exception;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
