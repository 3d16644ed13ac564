(* Tests for the standard dialects and the sequential reference
   interpreter: op constructors, dialect verifiers, grid machinery,
   arithmetic/control-flow evaluation and stencil-apply semantics. *)

open Wsc_ir.Ir
module B = Wsc_ir.Builder
module I = Wsc_dialects.Interp
module Arith = Wsc_dialects.Arith
module Scf = Wsc_dialects.Scf
module Func = Wsc_dialects.Func
module Builtin = Wsc_dialects.Builtin
module Stencil = Wsc_dialects.Stencil
module Dmp = Wsc_dialects.Dmp
module Varith = Wsc_dialects.Varith

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let get (g : I.grid) p = g.I.gdata.(I.flat_index g p)
let set (g : I.grid) p v = g.I.gdata.(I.flat_index g p) <- v

(* ------------------------------------------------------------------ *)
(* interpreter: scalars and control flow                               *)
(* ------------------------------------------------------------------ *)

let run_scalar_fn body =
  let f =
    Func.func ~name:"main" ~args:[] ~results:[ F32 ] (fun b _ ->
        let r = body b in
        B.insert0 b (Func.return_ [ r ]))
  in
  let m = Builtin.module_op [ f ] in
  Wsc_ir.Verifier.verify m;
  match I.run_func m ~name:"main" [] with
  | [ I.Rfloat f ] -> f
  | [ I.Rint i ] -> float_of_int i
  | _ -> Alcotest.fail "expected one scalar"

let test_arith_eval () =
  let r =
    run_scalar_fn (fun b ->
        let x = B.insert b (Arith.constant_f 3.0) in
        let y = B.insert b (Arith.constant_f 4.0) in
        let s = B.insert b (Arith.addf x y) in
        let d = B.insert b (Arith.subf s y) in
        let p = B.insert b (Arith.mulf d y) in
        B.insert b (Arith.divf p y))
  in
  check_float "(((3+4)-4)*4)/4" 3.0 r

let test_varith_eval () =
  let r =
    run_scalar_fn (fun b ->
        let c v = B.insert b (Arith.constant_f v) in
        let s = B.insert b (Varith.add [ c 1.0; c 2.0; c 3.0; c 4.0 ]) in
        let m = B.insert b (Varith.mul [ s; c 0.5 ]) in
        m)
  in
  check_float "varith" 5.0 r

(* Tensor varith accumulates in one fresh array: from the second operand
   on it adds in place, and no operand (a frame value) is written.  A
   scalar operand broadcasts; the interpreter takes mixed operands even
   though the verifier refuses them. *)
let test_varith_tensors () =
  let t = Tensor ([ 3 ], F32) in
  let f =
    Func.func ~name:"main" ~args:[ t; t ] ~results:[ t; t ] (fun b args ->
        match args with
        | [ x; y ] ->
            let k = B.insert b (Arith.constant_f 2.0) in
            let s = B.insert b (Varith.add [ x; y; k; x ]) in
            let p = B.insert b (Varith.mul [ k; x; y ]) in
            B.insert0 b (Func.return_ [ s; p ])
        | _ -> assert false)
  in
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 10.0; 20.0; 30.0 |] in
  match I.run_func (Builtin.module_op [ f ]) ~name:"main" [ I.Rtensor x; I.Rtensor y ] with
  | [ I.Rtensor s; I.Rtensor p ] ->
      check "sum" true (s = [| 14.0; 26.0; 38.0 |]);
      check "product" true (p = [| 20.0; 80.0; 180.0 |]);
      check "operands unchanged" true (x = [| 1.0; 2.0; 3.0 |] && y = [| 10.0; 20.0; 30.0 |])
  | _ -> Alcotest.fail "expected two tensors"

let test_scf_for_eval () =
  (* sum 0..9 via float iteration value *)
  let f =
    Func.func ~name:"main" ~args:[] ~results:[ F32 ] (fun b _ ->
        let lb = B.insert b (Arith.constant_index 0) in
        let ub = B.insert b (Arith.constant_index 10) in
        let st = B.insert b (Arith.constant_index 1) in
        let init = B.insert b (Arith.constant_f 0.0) in
        let one = B.insert b (Arith.constant_f 1.0) in
        let loop =
          Scf.for_ ~lb ~ub ~step:st ~iter_args:[ init ] (fun bb _iv args ->
              let acc = List.hd args in
              let acc' = B.insert bb (Arith.addf acc one) in
              B.insert0 bb (Scf.yield [ acc' ]))
        in
        let r = B.insert b loop in
        B.insert0 b (Func.return_ [ r ]))
  in
  let m = Builtin.module_op [ f ] in
  match I.run_func m ~name:"main" [] with
  | [ I.Rfloat r ] -> check_float "loop ran 10x" 10.0 r
  | _ -> Alcotest.fail "bad result"

let test_scf_if_eval () =
  let r =
    run_scalar_fn (fun b ->
        let x = B.insert b (Arith.constant_i 3) in
        let y = B.insert b (Arith.constant_i 5) in
        let c = B.insert b (Arith.cmpi ~pred:"slt" x y) in
        B.insert b
          (Scf.if_ ~cond:c ~results:[ F32 ]
             (fun tb -> B.insert0 tb (Scf.yield [ B.insert tb (Arith.constant_f 1.0) ]))
             (fun eb -> B.insert0 eb (Scf.yield [ B.insert eb (Arith.constant_f 2.0) ]))))
  in
  check_float "then branch" 1.0 r

let test_func_call () =
  let callee =
    Func.func ~name:"double" ~args:[ F32 ] ~results:[ F32 ] (fun b args ->
        let two = B.insert b (Arith.constant_f 2.0) in
        let r = B.insert b (Arith.mulf two (List.hd args)) in
        B.insert0 b (Func.return_ [ r ]))
  in
  let main =
    Func.func ~name:"main" ~args:[] ~results:[ F32 ] (fun b _ ->
        let x = B.insert b (Arith.constant_f 21.0) in
        let r = B.insert b (Func.call ~callee:"double" [ x ] ~results:[ F32 ]) in
        B.insert0 b (Func.return_ [ r ]))
  in
  let m = Builtin.module_op [ callee; main ] in
  match I.run_func m ~name:"main" [] with
  | [ I.Rfloat r ] -> check_float "call" 42.0 r
  | _ -> Alcotest.fail "bad result"

(* ------------------------------------------------------------------ *)
(* grids                                                               *)
(* ------------------------------------------------------------------ *)

let test_grid_indexing () =
  let g = I.make_grid [ (-1, 3); (-1, 3) ] F32 in
  set g [ -1; -1 ] 1.5;
  set g [ 2; 2 ] 2.5;
  check_float "corner lo" 1.5 (get g [ -1; -1 ]);
  check_float "corner hi" 2.5 (get g [ 2; 2 ]);
  check "out of bounds" true
    (match get g [ 3; 0 ] with
    | exception I.Interp_error _ -> true
    | _ -> false)

let test_grid_tensor_elems () =
  let g = I.make_grid [ (0, 2); (0, 2) ] (Tensor ([ 3 ], F32)) in
  I.grid_set g [ 1; 0 ] (I.Rtensor [| 1.0; 2.0; 3.0 |]);
  (match I.grid_get g [ 1; 0 ] with
  | I.Rtensor a ->
      check_float "col 0" 1.0 a.(0);
      check_float "col 2" 3.0 a.(2)
  | _ -> Alcotest.fail "expected tensor");
  check "wrong size rejected" true
    (match I.grid_set g [ 0; 0 ] (I.Rtensor [| 1.0 |]) with
    | exception I.Interp_error _ -> true
    | _ -> false)

let test_retensorize_layout () =
  let g3 = I.make_grid [ (0, 2); (0, 2); (-1, 2) ] F32 in
  I.init_grid g3;
  let g2 = I.retensorize_grid g3 in
  check "shares the 3-D grid's storage" true (g2.I.gdata == g3.I.gdata);
  (* column (1,1) of the 2-D view equals the z-run of the 3-D view *)
  match I.grid_get g2 [ 1; 1 ] with
  | I.Rtensor col ->
      List.iteri
        (fun k z ->
          check_float
            (Printf.sprintf "col elem %d" k)
            (get g3 [ 1; 1; z ])
            col.(k))
        [ -1; 0; 1 ]
  | _ -> Alcotest.fail "expected tensor"

let test_iter_points_order () =
  let pts = ref [] and p = [| 0; 0 |] in
  I.iter_box [ (0, 2); (0, 2) ] p (fun () -> pts := Array.to_list p :: !pts);
  check "row major" true
    (List.rev !pts = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]);
  (* init_grid fills the flat data in the same order, a z-column element
     at p taking the values of the points p @ [k] *)
  let g = I.make_grid [ (-1, 1); (0, 2) ] (Tensor ([ 3 ], F32)) in
  I.init_grid g;
  let p = [| 0; 0 |] and i = ref 0 in
  I.iter_box g.I.gbounds p (fun () ->
      for k = 0 to 2 do
        check_float "init order"
          (I.init_value [ p.(0); p.(1); k ])
          g.I.gdata.(!i);
        incr i
      done)

(* ------------------------------------------------------------------ *)
(* stencil apply semantics                                             *)
(* ------------------------------------------------------------------ *)

(* 1-D-in-x average on a 4x1x1-ish grid (3-D types as the dialect wants) *)
let shift_module () =
  let gt = Temp ([ (-1, 4); (0, 1); (0, 1) ], F32) in
  let ft = Field ([ (-1, 4); (0, 1); (0, 1) ], F32) in
  let f =
    Func.func ~name:"main" ~args:[ ft ] ~results:[] (fun b args ->
        let t = B.insert b (Stencil.load (List.hd args)) in
        let ap =
          Stencil.apply
            ~compute_bounds:[ (0, 4); (0, 1); (0, 1) ]
            ~inputs:[ t ] ~result_type:gt
            (fun bb bargs ->
              let v =
                B.insert bb (Stencil.access (List.hd bargs) ~offset:[ -1; 0; 0 ])
              in
              B.insert0 bb (Stencil.return_ [ v ]))
        in
        let r = B.insert b ap in
        B.insert0 b (Stencil.store r (List.hd args));
        B.insert0 b (Func.return_ []))
  in
  (Builtin.module_op [ f ], ft)

let test_apply_shift_and_dirichlet () =
  let m, ft = shift_module () in
  let g = I.grid_of_typ ft in
  List.iteri (fun i x -> set g [ x; 0; 0 ] (float_of_int i)) [ -1; 0; 1; 2; 3 ];
  ignore (I.run_func m ~name:"main" [ I.Rgrid g ]);
  (* interior shifted right by one *)
  check_float "x=0 gets old x=-1" 0.0 (get g [ 0; 0; 0 ]);
  check_float "x=3 gets old x=2" 3.0 (get g [ 3; 0; 0 ]);
  (* the halo cell keeps its Dirichlet value *)
  check_float "halo unchanged" 0.0 (get g [ -1; 0; 0 ])

let test_apply_verifier () =
  (* block args must mirror operands *)
  let gt = Temp ([ (0, 2); (0, 2); (0, 2) ], F32) in
  let t = new_value gt in
  let bad =
    create_op "stencil.apply" ~operands:[ t ] ~results:[ gt ]
      ~regions:[ new_region [ new_block ~args:[] [] ] ]
  in
  match Wsc_ir.Verifier.verify_registered (Builtin.module_op []) with
  | () -> (
      match Wsc_ir.Verifier.verify (Builtin.module_op [ bad ]) with
      | exception Wsc_ir.Verifier.Verification_error _ -> ()
      | () -> Alcotest.fail "expected apply verifier error")

let test_access_rank_check () =
  let t = new_value (Temp ([ (0, 2); (0, 2) ], F32)) in
  let a = Stencil.access t ~offset:[ 1; 0; 0 ] in
  let m = Builtin.module_op [ a ] in
  (* operand of a is free, so check only the registered verifier *)
  match Wsc_ir.Verifier.verify_registered m with
  | exception Wsc_ir.Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected rank error"

(* ------------------------------------------------------------------ *)
(* dmp swaps                                                           *)
(* ------------------------------------------------------------------ *)

let test_dmp_roundtrip () =
  let swaps =
    [
      { Dmp.dir = Dmp.East; depth = 2; z_lo = 0; z_hi = 10 };
      { Dmp.dir = Dmp.South; depth = 1; z_lo = 1; z_hi = 9 };
    ]
  in
  let a = Dmp.swap_attr swaps in
  check "swap attr roundtrip" true (Dmp.swaps_of_attr a = swaps);
  let t = new_value (Temp ([ (0, 4); (0, 4) ], Tensor ([ 10 ], F32))) in
  let sw = Dmp.swap t ~topology:(4, 4) ~swaps in
  check "topology" true (Dmp.topology sw = (4, 4));
  check_int "volume" ((2 * 10) + 8) (Dmp.exchange_volume sw)

let test_direction_names () =
  List.iter
    (fun d ->
      check "name roundtrip" true
        (Dmp.direction_of_string (Dmp.direction_to_string d) = d))
    Dmp.all_directions

(* ------------------------------------------------------------------ *)
(* linalg / memref / tensor constructors                               *)
(* ------------------------------------------------------------------ *)

let test_linalg_dps () =
  let m1 = new_value (Memref ([ 8 ], F32)) in
  let m2 = new_value (Memref ([ 8 ], F32)) in
  let add = Wsc_dialects.Linalg_d.add ~a:m1 ~b:m2 ~out:m2 in
  check "no results" true (add.results = []);
  check "dst is last" true ((Wsc_dialects.Linalg_d.dst add).vid = m2.vid);
  let fmac = Wsc_dialects.Linalg_d.fmac ~a:m1 ~b:m2 ~out:m1 ~scalar:0.5 in
  check_float "scalar attr" 0.5 (float_attr_exn fmac "scalar")

let test_tensor_slice_bounds () =
  let t = new_value (Tensor ([ 8 ], F32)) in
  let ok = Wsc_dialects.Tensor_d.extract_slice t ~offset:2 ~size:6 in
  Wsc_ir.Verifier.verify_registered (Builtin.module_op [])
  |> fun () ->
  ignore ok;
  let bad = Wsc_dialects.Tensor_d.extract_slice t ~offset:4 ~size:6 in
  match Wsc_ir.Verifier.verify_registered (Builtin.module_op [ bad ]) with
  | exception Wsc_ir.Verifier.Verification_error _ -> ()
  | () -> Alcotest.fail "expected slice bounds error"

(* ------------------------------------------------------------------ *)
(* property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_grid_roundtrip =
  QCheck.Test.make ~name:"grid set/get roundtrip" ~count:200
    QCheck.(
      triple (int_range 0 3) (int_range 0 3) (float_range (-100.0) 100.0))
    (fun (x, y, v) ->
      let g = I.make_grid [ (-1, 4); (-1, 4) ] F32 in
      set g [ x; y ] v;
      get g [ x; y ] = v)

let prop_flat_index_bijective =
  QCheck.Test.make ~name:"flat_index is a bijection" ~count:50 QCheck.unit
    (fun () ->
      let g = I.make_grid [ (-1, 3); (0, 2); (-2, 1) ] F32 in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      let pt = [| 0; 0; 0 |] in
      I.iter_box g.I.gbounds pt (fun () ->
          let ix = I.flat_index g (Array.to_list pt) in
          if Hashtbl.mem seen ix then ok := false;
          Hashtbl.replace seen ix ());
      !ok && Hashtbl.length seen = Array.length g.I.gdata)

let prop_elementwise_matches_scalar =
  QCheck.Test.make ~name:"tensor arith matches scalar arith" ~count:200
    QCheck.(pair (list_of_size (Gen.return 5) (float_range (-10.) 10.))
              (list_of_size (Gen.return 5) (float_range 1.0 10.)))
    (fun (xs, ys) ->
      let a = I.Rtensor (Array.of_list xs) and b = I.Rtensor (Array.of_list ys) in
      match I.elementwise2 Wsc_dialects.Bufview.Add a b with
      | I.Rtensor r ->
          List.for_all2 (fun x (y, i) -> r.(i) = x +. y)
            xs
            (List.mapi (fun i y -> (y, i)) ys)
      | _ -> false)

let () =
  Alcotest.run "dialects"
    [
      ( "interp-scalar",
        [
          Alcotest.test_case "arith" `Quick test_arith_eval;
          Alcotest.test_case "varith" `Quick test_varith_eval;
          Alcotest.test_case "varith on tensors" `Quick test_varith_tensors;
          Alcotest.test_case "scf.for" `Quick test_scf_for_eval;
          Alcotest.test_case "scf.if" `Quick test_scf_if_eval;
          Alcotest.test_case "func.call" `Quick test_func_call;
        ] );
      ( "grids",
        [
          Alcotest.test_case "indexing" `Quick test_grid_indexing;
          Alcotest.test_case "tensor elements" `Quick test_grid_tensor_elems;
          Alcotest.test_case "retensorize layout" `Quick test_retensorize_layout;
          Alcotest.test_case "iter order" `Quick test_iter_points_order;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "apply shift + dirichlet" `Quick
            test_apply_shift_and_dirichlet;
          Alcotest.test_case "apply verifier" `Quick test_apply_verifier;
          Alcotest.test_case "access rank" `Quick test_access_rank_check;
        ] );
      ( "dmp",
        [
          Alcotest.test_case "swap roundtrip" `Quick test_dmp_roundtrip;
          Alcotest.test_case "direction names" `Quick test_direction_names;
        ] );
      ( "dps",
        [
          Alcotest.test_case "linalg" `Quick test_linalg_dps;
          Alcotest.test_case "tensor slice bounds" `Quick test_tensor_slice_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_grid_roundtrip; prop_flat_index_bijective; prop_elementwise_matches_scalar ]
      );
    ]
