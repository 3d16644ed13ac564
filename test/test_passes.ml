(* Tests for the transformation pipeline, group by group, using the
   sequential interpreter as the semantic oracle at every stage. *)

open Wsc_ir.Ir
module P = Wsc_frontends.Stencil_program
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Stencil = Wsc_dialects.Stencil
module Dmp = Wsc_dialects.Dmp
module Core = Wsc_core
module Stats = Wsc_ir.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* run the transformed module on the same initial data as the reference *)
let run_transformed (p : P.t) (passes : Wsc_ir.Pass.t list) :
    op * I.grid list * I.grid list =
  let ref_grids = P.run_reference p in
  let m = Wsc_ir.Pass.run_pipeline passes (P.compile p) in
  let grids = P.init_grids p in
  ignore
    (Core.Csl_stencil_interp.run_func m ~name:"main" (List.map (fun g -> I.Rgrid g) grids));
  (m, ref_grids, grids)

let assert_matches name ref_grids grids =
  let maxd = I.max_abs_diff_list ref_grids grids in
  if maxd > 1e-5 then Alcotest.failf "%s: max diff %g" name maxd

let group1 = [ Core.Stencil_inlining.pass; Core.Distribute.distribute_pass;
               Core.Distribute.tensorize_pass ]
let group2 extra =
  group1
  @ [ Core.Varith_passes.to_varith_pass; Core.Varith_passes.fuse_repeated_pass ]
  @ extra

(* ------------------------------------------------------------------ *)
(* stencil inlining                                                    *)
(* ------------------------------------------------------------------ *)

let test_inlining_fuses_uvkbe () =
  let p = (B.find "uvkbe").make B.Tiny in
  let m = Wsc_ir.Pass.run_pipeline [ Core.Stencil_inlining.pass ] (P.compile p) in
  check_int "single fused apply" 1 (Stats.count m "stencil.apply")

let test_inlining_semantics_scalar () =
  let p = (B.find "uvkbe").make B.Tiny in
  let ref_grids = P.run_reference p in
  let m = Wsc_ir.Pass.run_pipeline [ Core.Stencil_inlining.pass ] (P.compile p) in
  let grids =
    List.map
      (fun _ ->
        let g = I.grid_of_typ (P.field_type p) in
        I.init_grid g;
        g)
      p.P.state
  in
  ignore
    (Core.Csl_stencil_interp.run_func m ~name:"main" (List.map (fun g -> I.Rgrid g) grids));
  assert_matches "inlining" ref_grids grids

let test_inlining_passthrough () =
  (* producer with a second consumer: its value must be passed through *)
  let expr_a = P.Add (P.Access ("u", [ 1; 0; 0 ]), P.Access ("u", [ -1; 0; 0 ])) in
  let expr_b = P.Mul (P.Const 0.5, P.Access ("a", [ 0; 0; 0 ])) in
  let p =
    {
      P.pname = "pass";
      frontend = "test";
      extents = (4, 4, 4);
      halo = 1;
      state = [ "u" ];
      kernels =
        [
          { P.kname = "ka"; output = "a"; expr = expr_a };
          { P.kname = "kb"; output = "b"; expr = expr_b };
        ];
      (* both a and b survive the step: a is used by kb AND yielded *)
      next_state = [ "a" ];
      iterations = 1;
      use_loop = true;
      dsl_loc = 0;
    }
  in
  let m = Wsc_ir.Pass.run_pipeline [ Core.Stencil_inlining.pass ] (P.compile p) in
  let applies = find_ops_by_name "stencil.apply" m in
  check_int "one fused apply" 1 (List.length applies);
  check_int "passthrough adds a result" 2 (List.length (List.hd applies).results);
  (* and semantics hold *)
  let ref_grids = P.run_reference p in
  let grids =
    List.map
      (fun _ ->
        let g = I.grid_of_typ (P.field_type p) in
        I.init_grid g;
        g)
      p.P.state
  in
  ignore
    (Core.Csl_stencil_interp.run_func m ~name:"main" (List.map (fun g -> I.Rgrid g) grids));
  assert_matches "passthrough" ref_grids grids

(* ------------------------------------------------------------------ *)
(* canonicalize                                                        *)
(* ------------------------------------------------------------------ *)

let canon_program expr =
  {
    P.pname = "canon";
    frontend = "test";
    extents = (3, 3, 4);
    halo = 1;
    state = [ "u" ];
    kernels = [ { P.kname = "k"; output = "w"; expr } ];
    next_state = [ "w" ];
    iterations = 1;
    use_loop = true;
    dsl_loc = 0;
  }

let test_canonicalize_folds_constants () =
  (* (2*3)*u + 0  ->  6*u with a single constant *)
  let expr =
    P.Add
      ( P.Mul (P.Mul (P.Const 2.0, P.Const 3.0), P.Access ("u", [ 1; 0; 0 ])),
        P.Const 0.0 )
  in
  let p = canon_program expr in
  let m = Wsc_ir.Pass.run_pipeline [ Core.Canonicalize.pass ] (P.compile p) in
  (* a frontend-level fold already reduces 2*3; canonicalize removes +0
     and leaves exactly one multiplication and one constant in the body *)
  let apply = Option.get (find_op_by_name "stencil.apply" m) in
  check_int "one mulf" 1 (Stats.count apply "arith.mulf");
  check_int "no addf" 0 (Stats.count apply "arith.addf");
  (* and semantics hold *)
  let _, r, g =
    run_transformed p ([ Core.Canonicalize.pass ] @ group1)
  in
  assert_matches "canonicalize" r g

let test_canonicalize_cse_after_inlining () =
  (* inlining duplicates the producer per access; canonicalize merges the
     duplicated accesses and constants *)
  let p = (B.find "uvkbe").make B.Tiny in
  let before =
    Wsc_ir.Pass.run_pipeline [ Core.Stencil_inlining.pass ] (P.compile p)
  in
  let n_before = Stats.count before "stencil.access" in
  let after =
    Wsc_ir.Pass.run_pipeline
      [ Core.Stencil_inlining.pass; Core.Canonicalize.pass ]
      (P.compile p)
  in
  let n_after = Stats.count after "stencil.access" in
  check "CSE removed duplicate accesses" true (n_after <= n_before);
  check "constants deduplicated" true
    (Stats.count after "arith.constant" <= Stats.count before "arith.constant")

let test_canonicalize_identities () =
  List.iter
    (fun (name, expr) ->
      let p = canon_program expr in
      let _, r, g = run_transformed p ([ Core.Canonicalize.pass ] @ group1) in
      assert_matches name r g)
    [
      ("x*1", P.Mul (P.Access ("u", [ 1; 0; 0 ]), P.Const 1.0));
      ("x*0 + y", P.Add (P.Mul (P.Access ("u", [ 1; 0; 0 ]), P.Const 0.0),
                         P.Access ("u", [ -1; 0; 0 ])));
      ("x-0", P.Sub (P.Access ("u", [ 0; 1; 0 ]), P.Const 0.0));
      ("x/1", P.Div (P.Access ("u", [ 0; -1; 0 ]), P.Const 1.0));
    ]

(* ------------------------------------------------------------------ *)
(* distribute-stencil                                                  *)
(* ------------------------------------------------------------------ *)

let test_distribute_swaps () =
  let p = (B.find "seismic").make B.Tiny in
  let m =
    Wsc_ir.Pass.run_pipeline
      [ Core.Stencil_inlining.pass; Core.Distribute.distribute_pass ]
      (P.compile p)
  in
  let swaps = find_ops_by_name "dmp.swap" m in
  check_int "one swap (u communicated)" 1 (List.length swaps);
  let sw = List.hd swaps in
  let descs = Dmp.swaps sw in
  check_int "four directions" 4 (List.length descs);
  List.iter (fun (s : Dmp.swap_desc) -> check_int "depth = radius" 4 s.depth) descs;
  (* needed-columns-only: remote accesses have z offset 0, so the z range
     is exactly the interior *)
  let _, _, nz = p.P.extents in
  List.iter
    (fun (s : Dmp.swap_desc) ->
      check_int "z_lo" 0 s.z_lo;
      check_int "z_hi" nz s.z_hi)
    descs

let test_distribute_uvkbe_two_fields () =
  let p = (B.find "uvkbe").make B.Tiny in
  let m =
    Wsc_ir.Pass.run_pipeline
      [ Core.Stencil_inlining.pass; Core.Distribute.distribute_pass ]
      (P.compile p)
  in
  let swaps = find_ops_by_name "dmp.swap" m in
  check_int "two communicated fields" 2 (List.length swaps);
  (* u is read at [-1,0] (west); v at [0,-1] (south) *)
  let dirs =
    List.concat_map (fun sw -> List.map (fun (s : Dmp.swap_desc) -> s.dir) (Dmp.swaps sw)) swaps
  in
  check "west present" true (List.mem Dmp.West dirs);
  check "south present" true (List.mem Dmp.South dirs);
  check_int "only the needed directions" 2 (List.length dirs)

let test_distribute_rejects_diagonals () =
  (* box patterns are outside the star-shaped communication library
     (paper SS5.6): the compiler must refuse, not miscompile *)
  let expr =
    P.Add (P.Access ("u", [ 1; -1; 0 ]), P.Access ("u", [ 0; 0; 0 ]))
  in
  let p =
    {
      P.pname = "diag";
      frontend = "test";
      extents = (4, 4, 4);
      halo = 1;
      state = [ "u" ];
      kernels = [ { P.kname = "k"; output = "w"; expr } ];
      next_state = [ "w" ];
      iterations = 1;
      use_loop = true;
      dsl_loc = 0;
    }
  in
  match Wsc_ir.Pass.run_pipeline [ Core.Distribute.distribute_pass ] (P.compile p) with
  | exception Wsc_ir.Pass.Pass_failed (_, Core.Distribute.Distribute_error _) -> ()
  | exception Core.Distribute.Distribute_error _ -> ()
  | _ -> Alcotest.fail "expected diagonal-access rejection"

let test_distribute_topology () =
  let p = (B.find "jacobian").make (B.Proxy (5, 7)) in
  let m =
    Wsc_ir.Pass.run_pipeline [ Core.Distribute.distribute_pass ] (P.compile p)
  in
  let sw = Option.get (find_op_by_name "dmp.swap" m) in
  check "topology is the xy extent" true (Dmp.topology sw = (5, 7))

(* ------------------------------------------------------------------ *)
(* tensorize                                                           *)
(* ------------------------------------------------------------------ *)

let test_tensorize_types () =
  let p = (B.find "diffusion").make B.Tiny in
  let m = Wsc_ir.Pass.run_pipeline group1 (P.compile p) in
  let apply = Option.get (find_op_by_name "stencil.apply" m) in
  (match (result apply).vtyp with
  | Temp ([ _; _ ], Tensor ([ z ], F32)) ->
      check_int "column carries z halo" (6 + 4) z
  | t -> Alcotest.failf "bad type %s" (Wsc_ir.Printer.typ_to_string t));
  check_int "z halo attr" 2 (int_attr_exn apply "z_halo");
  check_int "z interior attr" 6 (int_attr_exn apply "z_interior");
  (* all accesses are now 2-D *)
  walk_op
    (fun o ->
      if o.opname = "stencil.access" then
        check_int "2-D offsets" 2 (List.length (dense_ints_exn o "offset")))
    m

let test_group1_semantics_all () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let _, r, g = run_transformed p group1 in
      assert_matches ("group1 " ^ d.id) r g)
    B.all

(* ------------------------------------------------------------------ *)
(* varith                                                              *)
(* ------------------------------------------------------------------ *)

let test_to_varith_collapses_chains () =
  let p = (B.find "seismic").make B.Tiny in
  let m =
    Wsc_ir.Pass.run_pipeline (group1 @ [ Core.Varith_passes.to_varith_pass ])
      (P.compile p)
  in
  (* the 25-point reduction collapses to few variadic adds *)
  let adds = Stats.count m "varith.add" in
  check "chains collapsed" true (adds >= 1);
  check_int "binary addf gone" 0 (Stats.count m "arith.addf");
  (* the biggest varith.add has many operands *)
  let max_arity =
    List.fold_left
      (fun acc o -> max acc (List.length o.operands))
      0
      (find_ops_by_name "varith.add" m)
  in
  check "wide variadic op" true (max_arity >= 10)

let test_fuse_repeated_operands () =
  (* u[0]*3 expressed as u+u+u must become 3*u *)
  let expr =
    P.Add
      ( P.Add (P.Access ("u", [ 0; 0; 0 ]), P.Access ("u", [ 0; 0; 0 ])),
        P.Add (P.Access ("u", [ 0; 0; 0 ]), P.Access ("u", [ 1; 0; 0 ])) )
  in
  let p =
    {
      P.pname = "rep";
      frontend = "test";
      extents = (3, 3, 4);
      halo = 1;
      state = [ "u" ];
      kernels = [ { P.kname = "k"; output = "w"; expr } ];
      next_state = [ "w" ];
      iterations = 1;
      use_loop = true;
      dsl_loc = 0;
    }
  in
  let passes =
    group1
    @ [ Core.Varith_passes.to_varith_pass; Core.Varith_passes.fuse_repeated_pass ]
  in
  let m, r, g = run_transformed p passes in
  (* a multiplication by the repeat count appears *)
  let has_mul_by_3 =
    List.exists
      (fun o ->
        List.exists
          (fun v ->
            match
              find_op
                (fun c ->
                  c.opname = "arith.constant"
                  && List.exists (fun rv -> rv.vid = v.vid) c.results)
                m
            with
            | Some c -> Wsc_dialects.Arith.constant_value c = Some 3.0
            | None -> false)
          o.operands)
      (find_ops_by_name "arith.mulf" m)
  in
  check "multiplication by 3" true has_mul_by_3;
  assert_matches "fuse repeated" r g

(* ------------------------------------------------------------------ *)
(* convert-stencil-to-csl-stencil                                      *)
(* ------------------------------------------------------------------ *)

let csl_stencil_passes ?(opts = Core.To_csl_stencil.default_options) () =
  group2
    [ Core.To_csl_stencil.lower_swaps_pass; Core.To_csl_stencil.pass ~options:opts () ]

let config_of_bench ?(opts = Core.To_csl_stencil.default_options) id =
  let p = (B.find id).make B.Tiny in
  let m = Wsc_ir.Pass.run_pipeline (csl_stencil_passes ~opts ()) (P.compile p) in
  Core.Csl_stencil.config_of
    (Option.get (find_op_by_name "csl_stencil.apply" m))

let test_promotion_detected () =
  List.iter
    (fun (id, expect) ->
      let cfg = config_of_bench id in
      check_int (id ^ " promoted coeffs") expect (List.length cfg.coeffs))
    [ ("jacobian", 4); ("diffusion", 8); ("acoustic", 8); ("seismic", 16); ("uvkbe", 0) ]

let test_promotion_coefficient_values () =
  let cfg = config_of_bench "jacobian" in
  List.iter
    (fun (_, _, _, c) ->
      if Float.abs (c -. 0.16666666) > 1e-6 then
        Alcotest.failf "unexpected coefficient %g" c)
    cfg.coeffs

let test_promotion_disable () =
  let opts =
    { Core.To_csl_stencil.default_options with promote_coefficients = false }
  in
  let cfg = config_of_bench ~opts "jacobian" in
  check_int "no promotion" 0 (List.length cfg.coeffs)

let test_chunking_budget () =
  (* a tight budget forces multiple chunks *)
  let opts =
    { Core.To_csl_stencil.default_options with comm_budget_bytes = 32 }
  in
  let cfg = config_of_bench ~opts "jacobian" in
  check "chunked" true (cfg.num_chunks > 1);
  check_int "chunks x size = range" 6 (cfg.num_chunks * cfg.chunk_size)

let test_chunking_override_must_divide () =
  let opts =
    { Core.To_csl_stencil.default_options with num_chunks_override = Some 5 }
  in
  (* z interior is 6; 5 does not divide it *)
  match config_of_bench ~opts "jacobian" with
  | exception Wsc_ir.Pass.Pass_failed _ -> ()
  | exception Core.To_csl_stencil.Lowering_error _ -> ()
  | _ -> Alcotest.fail "expected chunking error"

let test_group2_semantics_all_variants () =
  let variants =
    [
      ("default", Core.To_csl_stencil.default_options);
      ( "2 chunks",
        { Core.To_csl_stencil.default_options with num_chunks_override = Some 2 } );
      ( "no promotion",
        { Core.To_csl_stencil.default_options with promote_coefficients = false } );
      ( "no one-shot",
        { Core.To_csl_stencil.default_options with one_shot_reduction = false } );
    ]
  in
  List.iter
    (fun (vname, opts) ->
      List.iter
        (fun (d : B.descr) ->
          let p = d.make B.Tiny in
          let _, r, g = run_transformed p (csl_stencil_passes ~opts ()) in
          assert_matches (Printf.sprintf "group2 %s %s" d.id vname) r g)
        B.all)
    variants

let mixed_program () =
  (* mask * (u[-1] + u[1]) mixes local and remote accesses in one
     product: the reduce-on-arrival split cannot express it, so the
     conversion must fall back to pack mode *)
  let expr =
    P.Mul
      ( P.Access ("mask", [ 0; 0; 0 ]),
        P.Add (P.Access ("u", [ -1; 0; 0 ]), P.Access ("u", [ 1; 0; 0 ])) )
  in
  {
    P.pname = "mixed";
    frontend = "test";
    extents = (3, 3, 4);
    halo = 1;
    state = [ "u"; "mask" ];
    kernels = [ { P.kname = "k"; output = "w"; expr } ];
    next_state = [ "w"; "mask" ];
    iterations = 2;
    use_loop = true;
    dsl_loc = 0;
  }

let test_mixed_term_pack_mode () =
  let p = mixed_program () in
  let m, r, g = run_transformed p (csl_stencil_passes ()) in
  let apply = Option.get (find_op_by_name "csl_stencil.apply" m) in
  let cfg = Core.Csl_stencil.config_of apply in
  (* pack mode: no promoted coefficients, accumulator holds one slot per
     received distance-column (east depth 1 + west depth 1 = 2 slots) *)
  check_int "no promotion in pack mode" 0 (List.length cfg.coeffs);
  (match (Core.Csl_stencil.acc_init apply).vtyp with
  | Tensor ([ n ], F32) -> check_int "packed accumulator" (2 * 4) n
  | _ -> Alcotest.fail "bad accumulator type");
  assert_matches "pack mode" r g

let test_mixed_term_pack_mode_bufferized () =
  let p = mixed_program () in
  let passes = csl_stencil_passes () @ [ Core.Bufferize.pass ~fuse_fmac:true ] in
  let _, r, g = run_transformed p passes in
  assert_matches "pack mode bufferized" r g

(* ------------------------------------------------------------------ *)
(* bufferize + fmac fusion                                             *)
(* ------------------------------------------------------------------ *)

let bufferize_passes ?(fuse = true) () =
  csl_stencil_passes () @ [ Core.Bufferize.pass ~fuse_fmac:fuse ]

let test_bufferize_dps_form () =
  let p = (B.find "seismic").make B.Tiny in
  let m = Wsc_ir.Pass.run_pipeline (bufferize_passes ()) (P.compile p) in
  let apply = Option.get (find_op_by_name "csl_stencil.apply" m) in
  check "marked bufferized" true (has_attr apply "bufferized");
  (* regions contain only reference-semantics ops *)
  walk_op
    (fun o ->
      match o.opname with
      | "arith.addf" | "arith.mulf" | "varith.add" | "tensor.extract_slice" ->
          Alcotest.failf "value-semantics op %s survives bufferization" o.opname
      | _ -> ())
    apply

let test_bufferize_semantics_all () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let _, r, g = run_transformed p (bufferize_passes ()) in
      assert_matches ("bufferize " ^ d.id) r g)
    B.all

let test_unfused_still_correct () =
  List.iter
    (fun (d : B.descr) ->
      let p = d.make B.Tiny in
      let _, r, g = run_transformed p (bufferize_passes ~fuse:false ()) in
      assert_matches ("unfused " ^ d.id) r g)
    B.all

(* ------------------------------------------------------------------ *)
(* memory planning                                                     *)
(* ------------------------------------------------------------------ *)

let test_memory_check () =
  (* a z extent too large for 48 kB must be rejected by the actor pass *)
  let p =
    {
      ((B.find "jacobian").make B.Tiny) with
      P.extents = (4, 4, 4000);
      iterations = 1;
    }
  in
  match Core.Pipeline.compile (P.compile p) with
  | exception Wsc_ir.Pass.Pass_failed (_, Core.To_actors.Actor_error _) -> ()
  | exception Core.To_actors.Actor_error _ -> ()
  | exception Core.To_csl_stencil.Lowering_error _ -> ()
  | exception Wsc_ir.Pass.Pass_failed (_, Core.To_csl_stencil.Lowering_error _) -> ()
  | _ -> Alcotest.fail "expected per-PE memory error"

let () =
  Alcotest.run "passes"
    [
      ( "inlining",
        [
          Alcotest.test_case "fuses uvkbe" `Quick test_inlining_fuses_uvkbe;
          Alcotest.test_case "semantics" `Quick test_inlining_semantics_scalar;
          Alcotest.test_case "passthrough" `Quick test_inlining_passthrough;
        ] );
      ( "canonicalize",
        [
          Alcotest.test_case "constant folding" `Quick test_canonicalize_folds_constants;
          Alcotest.test_case "cse after inlining" `Quick
            test_canonicalize_cse_after_inlining;
          Alcotest.test_case "identities" `Quick test_canonicalize_identities;
        ] );
      ( "distribute",
        [
          Alcotest.test_case "swap structure" `Quick test_distribute_swaps;
          Alcotest.test_case "two fields" `Quick test_distribute_uvkbe_two_fields;
          Alcotest.test_case "topology" `Quick test_distribute_topology;
          Alcotest.test_case "rejects diagonals" `Quick
            test_distribute_rejects_diagonals;
        ] );
      ( "tensorize",
        [
          Alcotest.test_case "types" `Quick test_tensorize_types;
          Alcotest.test_case "group1 semantics (all)" `Quick test_group1_semantics_all;
        ] );
      ( "varith",
        [
          Alcotest.test_case "collapse chains" `Quick test_to_varith_collapses_chains;
          Alcotest.test_case "fuse repeated" `Quick test_fuse_repeated_operands;
        ] );
      ( "csl-stencil",
        [
          Alcotest.test_case "promotion detected" `Quick test_promotion_detected;
          Alcotest.test_case "promotion values" `Quick test_promotion_coefficient_values;
          Alcotest.test_case "promotion disable" `Quick test_promotion_disable;
          Alcotest.test_case "chunk budget" `Quick test_chunking_budget;
          Alcotest.test_case "chunk override divides" `Quick
            test_chunking_override_must_divide;
          Alcotest.test_case "semantics (all variants)" `Slow
            test_group2_semantics_all_variants;
          Alcotest.test_case "mixed term: pack mode" `Quick test_mixed_term_pack_mode;
          Alcotest.test_case "pack mode bufferized" `Quick
            test_mixed_term_pack_mode_bufferized;
        ] );
      ( "bufferize",
        [
          Alcotest.test_case "DPS form" `Quick test_bufferize_dps_form;
          Alcotest.test_case "semantics (all)" `Quick test_bufferize_semantics_all;
          Alcotest.test_case "unfused correct" `Quick test_unfused_still_correct;
        ] );
      ( "memory",
        [ Alcotest.test_case "48 kB check" `Quick test_memory_check ] );
    ]
