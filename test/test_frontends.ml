(* Tests for the three frontends and the shared stencil-program
   representation: Fortran parsing and stencil extraction, symbolic
   finite differences, kernel-metadata validation, and program-to-IR
   compilation. *)

module P = Wsc_frontends.Stencil_program
module Flang = Wsc_frontends.Flang_fe
module Devito = Wsc_frontends.Devito_fe
module Psy = Wsc_frontends.Psyclone_fe
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))
let get (g : I.grid) p = g.I.gdata.(I.flat_index g p)

(* ------------------------------------------------------------------ *)
(* stencil_program utilities                                           *)
(* ------------------------------------------------------------------ *)

let test_accesses_and_inputs () =
  let e =
    P.Add
      ( P.Mul (P.Const 2.0, P.Access ("u", [ 1; 0; 0 ])),
        P.Add (P.Access ("v", [ 0; 0; 0 ]), P.Access ("u", [ 0; 0; 0 ])) )
  in
  let k = { P.kname = "k"; output = "w"; expr = e } in
  check "accesses" true
    (P.accesses e = [ ("u", [ 1; 0; 0 ]); ("v", [ 0; 0; 0 ]); ("u", [ 0; 0; 0 ]) ]);
  check "inputs dedup in order" true (P.kernel_inputs k = [ "u"; "v" ]);
  check_int "flops" 3 (P.expr_flops e)

let test_fold_constants () =
  let e = P.Mul (P.Const 2.0, P.Add (P.Const 1.0, P.Const 3.0)) in
  check "folds" true (P.fold_constants e = P.Const 8.0);
  let e2 = P.Add (P.Access ("u", [ 0 ]), P.Sub (P.Const 5.0, P.Const 2.0)) in
  check "partial fold" true
    (P.fold_constants e2 = P.Add (P.Access ("u", [ 0 ]), P.Const 3.0))

let test_program_radius () =
  let p = (B.find "seismic").make B.Tiny in
  check_int "seismic radius 4" 4 (P.program_radius p);
  let p2 = (B.find "jacobian").make B.Tiny in
  check_int "jacobian radius 1" 1 (P.program_radius p2)

let test_compile_verifies () =
  List.iter
    (fun (d : B.descr) ->
      let m = P.compile (d.make B.Tiny) in
      Wsc_ir.Verifier.verify m)
    B.all

(* the one acceptance verdict behind wsc simulate, the oracle and the
   fault campaign: strictly below the tolerance, and never for NaN *)
let test_within_tolerance () =
  check "0 accepted" true (P.within_tolerance 0.0);
  check "just below accepted" true (P.within_tolerance (Float.pred P.tolerance));
  check "boundary rejected" false (P.within_tolerance P.tolerance);
  check "above rejected" false (P.within_tolerance 1.0);
  check "nan rejected" false (P.within_tolerance Float.nan);
  check "infinity rejected" false (P.within_tolerance Float.infinity)

(* ------------------------------------------------------------------ *)
(* mini-Flang                                                          *)
(* ------------------------------------------------------------------ *)

let simple_fortran =
  {|
real :: a(0:nx+1, 0:ny+1, 0:nz+1)
real :: b(0:nx+1, 0:ny+1, 0:nz+1)
do t = 1, 5
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        b(i,j,k) = 0.5 * (a(i-1,j,k) + a(i+1,j,k))
      end do
    end do
  end do
  a = b
end do
|}

let test_flang_parse () =
  let p = Flang.compile ~name:"t" ~extents:(4, 4, 4) simple_fortran in
  check_int "one kernel" 1 (List.length p.P.kernels);
  check "state" true (p.P.state = [ "a" ]);
  check "next state" true (p.P.next_state = [ "b" ]);
  check_int "source trip count" 5 p.P.iterations;
  check_int "halo from offsets" 1 p.P.halo;
  (* loop var order: innermost i is x *)
  check "x offsets" true
    (P.accesses (List.hd p.P.kernels).P.expr
    = [ ("a", [ -1; 0; 0 ]); ("a", [ 1; 0; 0 ]) ])

let test_flang_iteration_override () =
  let p = Flang.compile ~name:"t" ~extents:(4, 4, 4) ~iterations:9 simple_fortran in
  check_int "override wins" 9 p.P.iterations

let test_flang_no_timeloop () =
  let src =
    {|
real :: a(0:nx+1, 0:ny+1, 0:nz+1)
real :: b(0:nx+1, 0:ny+1, 0:nz+1)
do k = 1, nz
  do j = 1, ny
    do i = 1, nx
      b(i,j,k) = a(i,j,k) + 1.0
    end do
  end do
end do
|}
  in
  let p = Flang.compile ~name:"t" ~extents:(4, 4, 4) src in
  check_int "single shot" 1 p.P.iterations;
  check "state is input" true (p.P.state = [ "a" ])

let test_flang_semantics () =
  (* un(i) = 0.5*(u(i-1)+u(i+1)) for one step, checked by hand at a point *)
  let p = Flang.compile ~name:"t" ~extents:(4, 4, 4) ~iterations:1 simple_fortran in
  let grids = P.run_reference p in
  let g = List.hd grids in
  (* reconstruct the expected value from the deterministic init *)
  let expected =
    0.5 *. (I.init_value [ 0; 1; 1 ] +. I.init_value [ 2; 1; 1 ])
  in
  check_float "hand-computed point" expected (get g [ 1; 1; 1 ])

let test_flang_errors () =
  let cases =
    [
      (* imperfect nest *)
      {|
do k = 1, nz
  do j = 1, ny
    a(1,j,k) = 1.0
  end do
end do
|};
      (* free scalar in expression *)
      {|
do k = 1, nz
  do j = 1, ny
    do i = 1, nx
      b(i,j,k) = a(i,j,k) * alpha
    end do
  end do
end do
|};
      (* missing end *)
      {|
do k = 1, nz
  do j = 1, ny
|};
    ]
  in
  List.iter
    (fun src ->
      match Flang.compile ~name:"t" ~extents:(2, 2, 2) src with
      | exception Flang.Frontend_error _ -> ()
      | _ -> Alcotest.fail "expected frontend error")
    cases

(* ------------------------------------------------------------------ *)
(* mini-Devito                                                         *)
(* ------------------------------------------------------------------ *)

let test_deriv2_coeffs_consistency () =
  (* central-difference coefficients sum to zero and are symmetric *)
  List.iter
    (fun order ->
      let cs = Devito.deriv2_coeffs order in
      let sum = List.fold_left (fun a (_, c) -> a +. c) 0.0 cs in
      check_float (Printf.sprintf "order %d sums to 0" order) 0.0 sum;
      List.iter
        (fun (o, c) ->
          let c' = List.assoc (-o) cs in
          check "symmetric" true (c = c'))
        cs)
    [ 2; 4; 8 ]

let test_deriv2_exact_on_quadratic () =
  (* d2/dx2 of x^2 = 2 exactly for any order on the integer grid *)
  List.iter
    (fun order ->
      let cs = Devito.deriv2_coeffs order in
      let x0 = 10.0 in
      let d2 =
        List.fold_left
          (fun acc (o, c) -> acc +. (c *. ((x0 +. float_of_int o) ** 2.0)))
          0.0 cs
      in
      check_float (Printf.sprintf "order %d exact" order) 2.0 d2)
    [ 2; 4; 8 ]

let test_devito_operator_structure () =
  let g = Devito.grid ~shape:(4, 4, 6) "g" in
  let u = Devito.time_function ~time_order:2 ~space_order:4 ~grid:g "u" in
  let open Devito in
  let p =
    operator ~name:"wave" ~iterations:3
      [ eq (forward u) ((num 2.0 * fn u) - backward u + laplace (fn u)) ]
  in
  check "two time levels" true (p.P.state = [ "u_prev"; "u" ]);
  check "rotation" true (p.P.next_state = [ "u"; "u_next" ]);
  check_int "radius 2 from order 4" 2 p.P.halo;
  (* 13-point stencil: 3 axes x 5 points - 2 duplicate centres *)
  let offsets =
    List.sort_uniq compare (List.map snd (P.accesses (List.hd p.P.kernels).P.expr))
  in
  check_int "13 distinct access offsets" 13 (List.length offsets)

let test_devito_lhs_must_be_forward () =
  let g = Devito.grid ~shape:(4, 4, 4) "g" in
  let u = Devito.time_function ~space_order:2 ~grid:g "u" in
  let open Devito in
  match operator ~name:"bad" ~iterations:1 [ eq (fn u) (fn u) ] with
  | exception Devito.Frontend_error _ -> ()
  | _ -> Alcotest.fail "expected frontend error"

let test_devito_spacing () =
  (* halving the spacing quadruples the second-derivative coefficients *)
  let g1 = Devito.grid ~spacing:1.0 ~shape:(4, 4, 4) "g" in
  let g2 = Devito.grid ~spacing:0.5 ~shape:(4, 4, 4) "g" in
  let mk g =
    let u = Devito.time_function ~space_order:2 ~grid:g "u" in
    let open Devito in
    operator ~name:"d" ~iterations:1 [ eq (forward u) (dxx (fn u)) ]
  in
  let coeff_of p =
    let rec find = function
      | P.Mul (P.Const c, P.Access ("u", [ 1; 0; 0 ])) -> Some c
      | P.Add (a, b) | P.Sub (a, b) | P.Mul (a, b) | P.Div (a, b) -> (
          match find a with Some c -> Some c | None -> find b)
      | _ -> None
    in
    find (List.hd (mk p).P.kernels).P.expr
  in
  match (coeff_of g1, coeff_of g2) with
  | Some c1, Some c2 -> check_float "4x coefficient" (4.0 *. c1) c2
  | _ -> Alcotest.fail "coefficient not found"

(* ------------------------------------------------------------------ *)
(* mini-PSyclone                                                       *)
(* ------------------------------------------------------------------ *)

let test_psyclone_metadata_validation () =
  let open Psy in
  let bad_cases =
    [
      (* reads beyond declared depth *)
      kernel ~name:"k1"
        ~meta:
          [
            { field = "u"; access = Gh_read; shape = Cross 1 };
            { field = "w"; access = Gh_write; shape = Pointwise };
          ]
        ~body:(P.Access ("u", [ 2; 0; 0 ]));
      (* pointwise field accessed at an offset *)
      kernel ~name:"k2"
        ~meta:
          [
            { field = "u"; access = Gh_read; shape = Pointwise };
            { field = "w"; access = Gh_write; shape = Pointwise };
          ]
        ~body:(P.Access ("u", [ 1; 0; 0 ]));
      (* undeclared field *)
      kernel ~name:"k3"
        ~meta:[ { field = "w"; access = Gh_write; shape = Pointwise } ]
        ~body:(P.Access ("ghost", [ 0; 0; 0 ]));
      (* diagonal access is not on the cross *)
      kernel ~name:"k4"
        ~meta:
          [
            { field = "u"; access = Gh_read; shape = Cross 2 };
            { field = "w"; access = Gh_write; shape = Pointwise };
          ]
        ~body:(P.Access ("u", [ 1; 1; 0 ]));
      (* reading the output *)
      kernel ~name:"k5"
        ~meta:[ { field = "w"; access = Gh_write; shape = Pointwise } ]
        ~body:(P.Access ("w", [ 0; 0; 0 ]));
    ]
  in
  List.iter
    (fun k ->
      match Psy.check_kernel k with
      | exception Psy.Frontend_error _ -> ()
      | () -> Alcotest.failf "kernel %s should have been rejected" k.Psy.kname)
    bad_cases

let test_psyclone_invoke () =
  let p = (B.find "uvkbe").make B.Tiny in
  check_int "two kernels" 2 (List.length p.P.kernels);
  check_int "four state fields" 4 (List.length p.P.state);
  check "no loop" true (not p.P.use_loop)

(* ------------------------------------------------------------------ *)
(* property tests                                                      *)
(* ------------------------------------------------------------------ *)

let expr_gen : P.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
    (fix (fun self n ->
         if n <= 1 then
           oneof
             [
               map (fun c -> P.Const c) (float_range (-4.0) 4.0);
               map
                 (fun (dx, dy) -> P.Access ("u", [ dx; dy; 0 ]))
                 (pair (int_range (-1) 1) (int_range (-1) 1));
             ]
         else
           oneof
             [
               map2 (fun a b -> P.Add (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> P.Sub (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> P.Mul (a, b)) (self (n / 2)) (self (n / 2));
             ]))

let rec eval_expr (lookup : string -> int list -> float) = function
  | P.Const c -> c
  | P.Access (g, off) -> lookup g off
  | P.Add (a, b) -> eval_expr lookup a +. eval_expr lookup b
  | P.Sub (a, b) -> eval_expr lookup a -. eval_expr lookup b
  | P.Mul (a, b) -> eval_expr lookup a *. eval_expr lookup b
  | P.Div (a, b) -> eval_expr lookup a /. eval_expr lookup b

let prop_fold_constants_preserves =
  QCheck.Test.make ~name:"fold_constants preserves value" ~count:300
    (QCheck.make expr_gen) (fun e ->
      let lookup _ off = List.fold_left (fun a i -> a +. float_of_int i) 1.0 off in
      let v1 = eval_expr lookup e in
      let v2 = eval_expr lookup (P.fold_constants e) in
      Float.abs (v1 -. v2) <= 1e-6 *. Float.max 1.0 (Float.abs v1)
      || (Float.is_nan v1 && Float.is_nan v2))

let prop_emitted_ir_matches_expr =
  (* compiling a random expression and interpreting it must equal direct
     expression evaluation at every interior point *)
  QCheck.Test.make ~name:"compiled stencil matches expression" ~count:60
    (QCheck.make ~print:(fun _ -> "<expr>") expr_gen)
    (fun e ->
      let prog =
        {
          P.pname = "prop";
          frontend = "test";
          extents = (3, 3, 4);
          halo = 1;
          state = [ "u" ];
          kernels = [ { P.kname = "k"; output = "w"; expr = e } ];
          next_state = [ "w" ];
          iterations = 1;
          use_loop = false;
          dsl_loc = 0;
        }
      in
      let g0 = I.grid_of_typ (P.field_type prog) in
      I.init_grid g0;
      let expected p =
        eval_expr
          (fun _ off -> get g0 (List.map2 ( + ) p off))
          e
      in
      let out = List.hd (P.run_reference prog) in
      let ok = ref true in
      let pt = [| 0; 0; 0 |] in
      I.iter_box [ (0, 3); (0, 3); (0, 4) ] pt (fun () ->
          let p = Array.to_list pt in
          let v = get out p in
          let w = expected p in
          if Float.abs (v -. w) > 1e-5 *. Float.max 1.0 (Float.abs w) then
            ok := false);
      !ok)

let () =
  Alcotest.run "frontends"
    [
      ( "stencil-program",
        [
          Alcotest.test_case "accesses/inputs" `Quick test_accesses_and_inputs;
          Alcotest.test_case "fold constants" `Quick test_fold_constants;
          Alcotest.test_case "radius" `Quick test_program_radius;
          Alcotest.test_case "compile verifies" `Quick test_compile_verifies;
          Alcotest.test_case "within tolerance" `Quick test_within_tolerance;
        ] );
      ( "flang",
        [
          Alcotest.test_case "parse + extract" `Quick test_flang_parse;
          Alcotest.test_case "iteration override" `Quick test_flang_iteration_override;
          Alcotest.test_case "no time loop" `Quick test_flang_no_timeloop;
          Alcotest.test_case "semantics" `Quick test_flang_semantics;
          Alcotest.test_case "errors" `Quick test_flang_errors;
        ] );
      ( "devito",
        [
          Alcotest.test_case "coeff consistency" `Quick test_deriv2_coeffs_consistency;
          Alcotest.test_case "exact on quadratics" `Quick test_deriv2_exact_on_quadratic;
          Alcotest.test_case "operator structure" `Quick test_devito_operator_structure;
          Alcotest.test_case "lhs must be forward" `Quick test_devito_lhs_must_be_forward;
          Alcotest.test_case "spacing" `Quick test_devito_spacing;
        ] );
      ( "psyclone",
        [
          Alcotest.test_case "metadata validation" `Quick
            test_psyclone_metadata_validation;
          Alcotest.test_case "invoke" `Quick test_psyclone_invoke;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fold_constants_preserves; prop_emitted_ir_matches_expr ] );
    ]
