(* Tests for the staged reference interpreter: bit-identity of its
   outputs against digests recorded from the unstaged interpreter it
   replaced, the access bounds check, and the reference-size refusal. *)

open Wsc_ir.Ir
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Core = Wsc_core
module Stencil = Wsc_dialects.Stencil
module Func = Wsc_dialects.Func
module Builtin = Wsc_dialects.Builtin

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
    ~max_point_ops:Wsc_wse.Fabric.max_reference_point_ops

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
