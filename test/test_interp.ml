(* Tests for the staged reference interpreter: bit-identity of its
   outputs against digests recorded from the unstaged interpreter it
   replaced and from the point-at-a-time loop the row loop replaced,
   scalar apply bodies at the row loop's edges, the access bounds check,
   and the reference-size refusal. *)

open Wsc_ir.Ir
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Stencil = Wsc_dialects.Stencil
module Func = Wsc_dialects.Func
module Builtin = Wsc_dialects.Builtin
module Arith = Wsc_dialects.Arith
module Varith = Wsc_dialects.Varith
module Bld = Wsc_ir.Builder

let check = Alcotest.(check bool)

(* MD5 of every element's bit pattern, grid after grid *)
let digest (gs : I.grid list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (g : I.grid) ->
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) g.I.gdata)
    gs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_staged m grids =
  ignore
    (Core.Csl_stencil_interp.run_func m ~name:"main" (List.map (fun g -> I.Rgrid g) grids));
  grids

let lowered passes (p : P.t) =
  run_staged (Wsc_ir.Pass.run_pipeline passes (P.compile p)) (P.init_grids p)

let o = Core.Pipeline.default_options
let frontend = Core.Pipeline.frontend_passes o
let middle = frontend @ Core.Pipeline.middle_passes o

(* the middle passes with one of the receive views' variants: raw
   unscaled columns, or promoted terms reduced per direction *)
let middle_with o = Core.Pipeline.frontend_passes o @ Core.Pipeline.middle_passes o
let unpromoted = middle_with { o with promote_coefficients = false }
let per_direction = middle_with { o with one_shot_reduction = false }

(* ------------------------------------------------------------------ *)
(* output digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Recorded from the unstaged interpreter, two timesteps on a w x h PE
   proxy (full z): (benchmark, w, h, reference output, initial grids,
   output after the frontend passes, output after the middle passes). *)
let digests =
  [
    ( "jacobian", 4, 4, "b97e44a945631eb862ec78e5d20fc535", "5d7e96652abc24279c1454ff84828f53",
      "b97e44a945631eb862ec78e5d20fc535", "7139a50634c4a21134e0f369ae3eced9" );
    ( "diffusion", 4, 4, "5e117da88beb513781bf3d0c616ace07", "d95fdafce49b9d30210f5cec6bd23550",
      "9a05ebff15b2952bb6b4cbff3a2d4723", "f5f6accf239db31c53a46079d7e0e61f" );
    ( "acoustic", 4, 4, "263b6bcac68d563aaf20e0c42274088f", "8a8bf4c05db16d414e901bf90d1fa133",
      "6ae0c252ffe560a7ea3134292ac3651e", "448920a74979f5dfd7bc016bcdcea8c1" );
    ( "seismic", 4, 4, "0cf3fdac4457502ea99d6a1065322fbd", "cf7847e6786a6ebfdb66e95a39ceb101",
      "bf23d8363c54282db6be8908c0c9cb25", "ed2f18a442964bf7f4b3537d897067e6" );
    ( "uvkbe", 4, 4, "584d7c57d6b07707b5341da8beeea3bd", "1512ce909c073ebb3f841a41d075d0d8",
      "8d8c74efa721df68ea62472af5a3d0b3", "29b0513ca2e6e489344e4dfa1ab427da" );
    ( "jacobian", 8, 8, "175ed8c79e520ff22fedd8210d4958ae", "60079726b5fbf0f05f9039f558611518",
      "175ed8c79e520ff22fedd8210d4958ae", "8dd960b335564200041ef4024b0282e0" );
    ( "diffusion", 8, 8, "ede56fcad8ec38747edfc3a77f2d7cc0", "76aab480d15a4b8e4563695e2dd2e448",
      "8bc145c60b7dcb6bd68032941531b70f", "89e6891ef202502a39134210f80fc7e8" );
    ( "acoustic", 8, 8, "70afea8ca88fd7554ef849c74bf30767", "bfa0a54cefe802bf2cb93df5852f6d86",
      "43a73461c84acf4bb7be8cec85412113", "52ed770191f72034a916666df5d31842" );
    ( "seismic", 8, 8, "bcad81cdbd587b40a8dd983a5f69c66e", "9d65aafda04b510a056eadfa6c1a6820",
      "91fb2316a52d1b26743a2694e3f4e323", "27cbe60d173b29de76710e02af08494e" );
    ( "uvkbe", 8, 8, "437d834bc28c85e39596f41616c654b8", "9da7db015d3b4100a00720c2ff2ce9c9",
      "db23965e04f7e590fc46e309f24505d7", "a07e8b73cb205db47c145cf9f7e6d44b" );
  ]

let test_digests () =
  List.iter
    (fun (id, w, h, reference, init, dist, mid) ->
      let p = (B.find id).B.make_n (B.Proxy (w, h)) 2 in
      let name what = Printf.sprintf "%s %dx%d %s" id w h what in
      Alcotest.(check string) (name "reference") reference (digest (P.run_reference p));
      Alcotest.(check string) (name "initial grids") init (digest (P.init_grids p));
      Alcotest.(check string) (name "after frontend passes") dist (digest (lowered frontend p));
      Alcotest.(check string) (name "after middle passes") mid (digest (lowered middle p)))
    digests

(* Recorded from the element loops the receive views used before they
   ran on Bufview's kernels, two timesteps on a 4 x 4 PE proxy (full z):
   (benchmark, output after the unpromoted middle passes, output after
   the per-direction middle passes).  The unpromoted outputs equal the
   default ones (the same sums in the same order), and so does uvkbe's
   per-direction output (it exchanges nothing). *)
let variant_digests =
  [
    ("jacobian", "7139a50634c4a21134e0f369ae3eced9", "48b7232329058e1f59e0611fd669d83a");
    ("diffusion", "f5f6accf239db31c53a46079d7e0e61f", "d556b5e558dab9d142c7aaa2565b3bfc");
    ("acoustic", "448920a74979f5dfd7bc016bcdcea8c1", "d4ad8872b501f12df143f1a6b929fb4a");
    ("seismic", "ed2f18a442964bf7f4b3537d897067e6", "1199138fb41f189507f77536eedc630c");
    ("uvkbe", "29b0513ca2e6e489344e4dfa1ab427da", "29b0513ca2e6e489344e4dfa1ab427da");
  ]

let test_variant_digests () =
  List.iter
    (fun (id, unpromoted_d, per_direction_d) ->
      let p = (B.find id).B.make_n (B.Proxy (4, 4)) 2 in
      Alcotest.(check string) (id ^ " 4x4 after unpromoted middle passes") unpromoted_d
        (digest (lowered unpromoted p));
      Alcotest.(check string) (id ^ " 4x4 after per-direction middle passes") per_direction_d
        (digest (lowered per_direction p)))
    variant_digests

(* Recorded from the point-at-a-time scalar loop: the reference output
   of the fuzzer's programs (seed 1, indices 0-29), whose short and odd
   rows, divisions, masks and two-kernel chains the benchmarks lack. *)
let fuzz_digests =
  [
    "7f35cda9311e3a2c678c596c323a516b"; "72653a2e9d7eb1627dc200ae34757e13"; "7c4aaef2bf72fc2b020a0f07861ebce5";
    "e03554c4449364838b95e3876d84d4fb"; "a7cbb20e41eced67ed8ac7a8d04beeaa"; "2ca1c188676bc49b7397e53ee7c3d546";
    "8bc7ef54f7a769908d5d6bdb1d66e780"; "7b9a9557da12bb8e18a1a1388d46cfa1"; "9fabf0325e2905f0d5162049b4b585c0";
    "c8d62b7a680f85e6e5de49d845a5c2b4"; "8508e2d9061fccbc684b8dea6787a30a"; "3a400bda3e097a22cf9a13f3a398ccdc";
    "308a4ae4374057ad5bbab9962876d3af"; "dd71653cac7698235000106b6edd13cb"; "65a2a67c744224e7c696f513a7d4e3b4";
    "8827e3abc6faff0f2c03704576d9346c"; "7325fa5ec2a6d89b2a83bf21bb1cc707"; "7beb00c47450ed20b69b9792e1a64e52";
    "ebefe57c15a5f6aaaa6729560175f8a6"; "a60de96bcdfe29608723a26a4c709e99"; "75fbb5a2db13bb0a7603186c01e5785c";
    "c4a1d018d1620ce49f1cb1d36090f256"; "e1327c6d349258b5c6f8a186a3d9d2b5"; "e3654fd9061eb1e56abf8c6c8b5726d2";
    "b3a6a1e78083841ba1de3abee1cb21e2"; "b9061860f28670400e99fd5ef3956a9a"; "ee52fae79ceea47be0f4e950f28486b8";
    "b26613932b1f62f8384eefb78b6dad72"; "d03da887d98e093754fecdbb4beffed6"; "dc8d97f59ae0e1b43f5f44d4b1387372";
  ]

let test_fuzz_digests () =
  List.iteri
    (fun index expected ->
      let p = Wsc_harden.Fuzz.generate ~seed:1 ~index in
      Alcotest.(check string)
        (Printf.sprintf "fuzz program %d reference" index)
        expected
        (digest (P.run_reference p)))
    fuzz_digests

(* ------------------------------------------------------------------ *)
(* scalar bodies at the row loop's edges                               *)
(* ------------------------------------------------------------------ *)

(* [main(in, out, s)]: [out] := apply over [compute] of [body], whose
   arguments are the apply's block argument (the loaded [in]) and the
   function's scalar [s] (an outer value), on [nz]-deep rows (grid z
   bounds [0, nz + 2)) *)
let edge_module ~nz ~compute body =
  let bounds = [ (0, 4); (0, 3); (0, nz + 2) ] in
  let gt = Temp (bounds, F32) and ft = Field (bounds, F32) in
  let f =
    Func.func ~name:"main" ~args:[ ft; ft; F64 ] ~results:[] (fun b args ->
        let inp, out, s =
          match args with [ i; o; s ] -> (i, o, s) | _ -> assert false
        in
        let t = Bld.insert b (Stencil.load inp) in
        let ap =
          Stencil.apply ~compute_bounds:compute ~inputs:[ t ] ~result_type:gt (fun bb bargs ->
              let w = body bb (List.hd bargs) s in
              Bld.insert0 bb (Stencil.return_ [ w ]))
        in
        Bld.insert0 b (Stencil.store (Bld.insert b ap) out);
        Bld.insert0 b (Func.return_ []))
  in
  (Builtin.module_op [ f ], bounds)

(* Run [body] on [nz]-deep rows over [compute] and check every point
   against [expected get (x, y, z)], [get] reading the input at an
   absolute point; points outside [compute] keep the input's value. *)
let check_edge name ~nz ~compute body expected =
  let m, bounds = edge_module ~nz ~compute body in
  let input = I.make_grid bounds F32 and out = I.make_grid bounds F32 in
  Array.iteri
    (fun i _ -> input.I.gdata.(i) <- 1.0 +. (float_of_int ((i * 37) mod 101) /. 7.0))
    input.I.gdata;
  let s = 0.375 in
  ignore (I.run_func m ~name:"main" [ I.Rgrid input; I.Rgrid out; I.Rfloat s ]);
  let get x y z = I.grid_get input [ x; y; z ] |> function I.Rfloat f -> f | _ -> nan in
  let inside = List.for_all2 (fun c (lb, ub) -> c >= lb && c < ub) in
  let pt = Array.make 3 0 in
  I.iter_box bounds pt (fun () ->
      let x = pt.(0) and y = pt.(1) and z = pt.(2) in
      let want = if inside [ x; y; z ] compute then expected get s (x, y, z) else get x y z in
      match I.grid_get out [ x; y; z ] with
      | I.Rfloat got when Int64.bits_of_float got = Int64.bits_of_float want -> ()
      | I.Rfloat got ->
          Alcotest.failf "%s: (%d,%d,%d) = %h, expected %h" name x y z got want
      | _ -> Alcotest.failf "%s: (%d,%d,%d) not a scalar" name x y z)

let acc bb u off = Bld.insert bb (Stencil.access u ~offset:off)

(* every float op of a scalar body: a three-operand varith.add of an
   access, a constant product and a quotient, a two-operand varith.mul,
   then addf and subf *)
let mixed_body bb u _ =
  let c = Bld.insert bb (Arith.constant_f 0.5) in
  let a = acc bb u [ 0; 0; -1 ] in
  let b = Bld.insert bb (Arith.mulf c (acc bb u [ 1; 0; 0 ])) in
  let q = Bld.insert bb (Arith.divf (acc bb u [ 0; 0; 1 ]) (acc bb u [ 0; 0; 0 ])) in
  let v = Bld.insert bb (Varith.add [ a; b; q ]) in
  let p = Bld.insert bb (Varith.mul [ v; acc bb u [ 0; 1; 0 ] ]) in
  let e = Bld.insert bb (Arith.addf p (acc bb u [ 0; -1; 0 ])) in
  Bld.insert bb (Arith.subf e (acc bb u [ -1; 0; 0 ]))

let mixed_expected get _ (x, y, z) =
  let v = ((get x y (z - 1) +. (0.5 *. get (x + 1) y z)) +. (get x y (z + 1) /. get x y z)) in
  ((v *. get x (y + 1) z) +. get x (y - 1) z) -. get (x - 1) y z

let interior nz = [ (1, 3); (1, 2); (1, nz + 1) ]

let test_row_extents () =
  List.iter
    (fun nz ->
      check_edge (Printf.sprintf "innermost extent %d" nz) ~nz ~compute:(interior nz) mixed_body
        mixed_expected)
    [ 1; 2; 127; 128; 129; 130; 300 ]

let test_empty_box () =
  check_edge "empty compute box" ~nz:4 ~compute:[ (1, 3); (1, 2); (2, 2) ] mixed_body
    mixed_expected;
  (* offsets that would leave the grid are not checked over an empty box *)
  check_edge "empty compute box at the edge" ~nz:4 ~compute:[ (0, 0); (0, 3); (0, 6) ]
    mixed_body mixed_expected

let test_returned_values () =
  check_edge "returned constant" ~nz:130 ~compute:(interior 130)
    (fun bb _ _ -> Bld.insert bb (Arith.constant_f 2.5))
    (fun _ _ _ -> 2.5);
  check_edge "returned import" ~nz:130 ~compute:(interior 130)
    (fun _ _ s -> s)
    (fun _ s _ -> s);
  check_edge "import operand" ~nz:5 ~compute:(interior 5)
    (fun bb u s -> Bld.insert bb (Arith.mulf s (acc bb u [ 0; 0; 1 ])))
    (fun get s (x, y, z) -> s *. get x y (z + 1));
  check_edge "one-operand varith.add" ~nz:130 ~compute:(interior 130)
    (fun bb u _ -> Bld.insert bb (Varith.add [ acc bb u [ 0; 0; -1 ] ]))
    (fun get _ (x, y, z) -> get x y (z - 1));
  check_edge "returned access" ~nz:130 ~compute:(interior 130)
    (fun bb u _ -> acc bb u [ 0; 1; 1 ])
    (fun get _ (x, y, z) -> get x (y + 1) (z + 1));
  check_edge "varith.mul of accesses" ~nz:130 ~compute:(interior 130)
    (fun bb u _ ->
      Bld.insert bb (Varith.mul [ acc bb u [ 0; 0; 1 ]; acc bb u [ -1; 0; 0 ]; acc bb u [ 0; 0; -1 ] ]))
    (fun get _ (x, y, z) -> (get x y (z + 1) *. get (x - 1) y z) *. get x y (z - 1));
  check_edge "same offset read twice" ~nz:130 ~compute:(interior 130)
    (fun bb u _ ->
      let a = acc bb u [ 0; 0; 1 ] in
      let sq = Bld.insert bb (Arith.mulf a (acc bb u [ 0; 0; 1 ])) in
      Bld.insert bb (Arith.subf sq a))
    (fun get _ (x, y, z) -> (get x y (z + 1) *. get x y (z + 1)) -. get x y (z + 1))

(* ------------------------------------------------------------------ *)
(* access bounds                                                       *)
(* ------------------------------------------------------------------ *)

(* an apply whose compute bounds plus the access offset leave the grid *)
let out_of_bounds_module ~scalar =
  let elt = if scalar then F32 else Tensor ([ 2 ], F32) in
  let bounds = [ (0, 4); (0, 1); (0, 1) ] in
  let gt = Temp (bounds, elt) and ft = Field (bounds, elt) in
  let f =
    Func.func ~name:"main" ~args:[ ft ] ~results:[] (fun b args ->
        let t = Wsc_ir.Builder.insert b (Stencil.load (List.hd args)) in
        let ap =
          Stencil.apply ~compute_bounds:bounds ~inputs:[ t ] ~result_type:gt (fun bb bargs ->
              let v =
                Wsc_ir.Builder.insert bb (Stencil.access (List.hd bargs) ~offset:[ -1; 0; 0 ])
              in
              Wsc_ir.Builder.insert0 bb (Stencil.return_ [ v ]))
        in
        let r = Wsc_ir.Builder.insert b ap in
        Wsc_ir.Builder.insert0 b (Stencil.store r (List.hd args));
        Wsc_ir.Builder.insert0 b (Func.return_ []))
  in
  (Builtin.module_op [ f ], ft)

let test_out_of_bounds_access () =
  List.iter
    (fun scalar ->
      let m, ft = out_of_bounds_module ~scalar in
      match I.run_func m ~name:"main" [ I.Rgrid (I.grid_of_typ ft) ] with
      | exception I.Interp_error msg ->
          check (Printf.sprintf "message names the index: %s" msg) true
            (msg = "grid index -1 out of [0,4)")
      | _ -> Alcotest.fail "expected Interp_error")
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* reference size refusal                                              *)
(* ------------------------------------------------------------------ *)

let check_reference =
  P.check_reference ~max_bytes:Wsc_wse.Fabric.max_simulated_bytes

let test_reference_estimate () =
  (* jacobian: 6 distinct accesses and 6 flops per point *)
  let p = (B.find "jacobian").B.make_n (B.Proxy (4, 4)) 2 in
  let e = P.reference_estimate p in
  Alcotest.(check int) "point-ops" (2 * 4 * 4 * 900 * 12) e.P.point_ops;
  Alcotest.(check int) "bytes" (8 * 6 * 6 * 902 * 2) e.P.bytes

let test_reference_accepted () =
  List.iter
    (fun (d : B.descr) ->
      check_reference (d.B.make B.Tiny);
      check_reference (d.B.make_n B.Small 2))
    B.all

let test_reference_refused () =
  let p = (B.find "jacobian").B.make B.Small in
  match check_reference p with
  | () -> Alcotest.fail "Small jacobian at 100000 timesteps accepted"
  | exception P.Reference_refused msg ->
      let e = P.reference_estimate p in
      let contains sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      check "states the point-ops" true (contains (string_of_int e.P.point_ops));
      check "states the bytes" true (contains (string_of_int e.P.bytes))

(* a NaN anywhere makes the comparison NaN, which is never within
   tolerance: a run that produced NaNs reports MISMATCH *)
let test_nan_is_a_mismatch () =
  let grid data = { I.gbounds = [ (0, Array.length data) ]; gelt = F32; gdata = data } in
  let a = grid [| 1.0; 2.0; 3.0; 4.0 |] in
  List.iter
    (fun i ->
      let b = grid (Array.copy a.I.gdata) in
      b.I.gdata.(i) <- Float.nan;
      let d = I.max_abs_diff a b in
      check (Printf.sprintf "NaN at %d gives NaN" i) true (Float.is_nan d);
      check (Printf.sprintf "NaN at %d is a mismatch" i) false (P.within_tolerance d))
    [ 0; 2; 3 ];
  Alcotest.(check (float 0.0)) "finite difference" 0.5
    (I.max_abs_diff a (grid [| 1.0; 2.5; 3.0; 4.0 |]))

let () =
  Alcotest.run "interp"
    [
      ( "staged",
        [
          Alcotest.test_case "output digests" `Quick test_digests;
          Alcotest.test_case "middle-pass variant digests" `Quick test_variant_digests;
          Alcotest.test_case "fuzz program digests" `Quick test_fuzz_digests;
          Alcotest.test_case "row extents" `Quick test_row_extents;
          Alcotest.test_case "empty compute box" `Quick test_empty_box;
          Alcotest.test_case "returned constants and imports" `Quick test_returned_values;
          Alcotest.test_case "out-of-bounds access" `Quick test_out_of_bounds_access;
          Alcotest.test_case "NaN difference is a mismatch" `Quick test_nan_is_a_mismatch;
        ] );
      ( "reference size",
        [
          Alcotest.test_case "estimate" `Quick test_reference_estimate;
          Alcotest.test_case "accepted up to Small at 2 timesteps" `Quick
            test_reference_accepted;
          Alcotest.test_case "refused with the estimate" `Quick test_reference_refused;
        ] );
    ]
