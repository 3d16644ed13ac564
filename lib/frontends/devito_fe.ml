(** Mini-Devito frontend.

    A symbolic finite-difference eDSL mirroring the Devito API surface the
    paper's benchmarks use: grids, (time-)functions with a space order,
    derivative operators built from standard central-difference
    coefficients, equations, and an operator.  Lowering produces a
    {!Stencil_program.t}, the common entry to the pipeline.

    Second-order-accurate (space_order 2) and fourth-order-accurate
    (space_order 4) Laplacians give 7-point and 13-point 3D star stencils
    respectively, matching the paper's Diffusion / Acoustic kernels. *)

module P = Stencil_program

exception Frontend_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Frontend_error s)) fmt

type grid = { gname : string; shape : int * int * int; spacing : float }

(** A symbolic function on a grid.  [time_order] 1 gives [u] / [u.forward];
    2 adds [u.backward]. *)
type fn = { fname : string; fgrid : grid; space_order : int; time_order : int }

(** Symbolic expressions: functions at time offsets, spatial derivatives. *)
type sym =
  | Fn_at of fn * int  (** function at time offset: -1 backward, 0, +1 forward *)
  | Snum of float
  | Sadd of sym * sym
  | Ssub of sym * sym
  | Smul of sym * sym
  | Sdiv of sym * sym
  | Deriv2 of sym * int  (** second spatial derivative along dimension 0|1|2 *)
  | Laplace of sym  (** sum of second derivatives over all three dims *)

let grid ?(spacing = 1.0) ~shape name = { gname = name; shape; spacing }

let time_function ?(time_order = 1) ~space_order ~grid name =
  { fname = name; fgrid = grid; space_order; time_order }

let ( + ) a b = Sadd (a, b)
let ( - ) a b = Ssub (a, b)
let ( * ) a b = Smul (a, b)
let ( / ) a b = Sdiv (a, b)
let num f = Snum f
let fn u = Fn_at (u, 0)
let forward u = Fn_at (u, 1)
let backward u = Fn_at (u, -1)
let laplace e = Laplace e
let dxx e = Deriv2 (e, 0)

type eq = { lhs : sym; rhs : sym }

let eq lhs rhs = { lhs; rhs }

(** Central second-derivative coefficients (offset, coefficient), unit
    spacing, for a given order of accuracy. *)
let deriv2_coeffs = function
  | 2 -> [ (-1, 1.0); (0, -2.0); (1, 1.0) ]
  | 4 ->
      [
        (-2, -1.0 /. 12.0);
        (-1, 4.0 /. 3.0);
        (0, -5.0 /. 2.0);
        (1, 4.0 /. 3.0);
        (2, -1.0 /. 12.0);
      ]
  | 8 ->
      [
        (-4, -1.0 /. 560.0);
        (-3, 8.0 /. 315.0);
        (-2, -1.0 /. 5.0);
        (-1, 8.0 /. 5.0);
        (0, -205.0 /. 72.0);
        (1, 8.0 /. 5.0);
        (2, -1.0 /. 5.0);
        (3, 8.0 /. 315.0);
        (4, -1.0 /. 560.0);
      ]
  | o -> fail "unsupported space order %d" o

(** Name of the stencil-program grid for a function at a time offset.
    Time offset 0 = current ("u"), -1 = previous ("u_prev"). *)
let grid_name (f : fn) (t : int) : string =
  match t with
  | 0 -> f.fname
  | -1 -> f.fname ^ "_prev"
  | 1 -> f.fname ^ "_next"
  | t -> fail "unsupported time offset %d" t

let shift_offset off extra = List.map2 Stdlib.( + ) off extra

(** Lower a symbolic expression to a point-wise stencil expression. *)
let rec lower_sym (s : sym) (shift : int list) : P.expr =
  match s with
  | Snum f -> P.Const f
  | Fn_at (f, t) -> P.Access (grid_name f t, shift)
  | Sadd (a, b) -> P.Add (lower_sym a shift, lower_sym b shift)
  | Ssub (a, b) -> P.Sub (lower_sym a shift, lower_sym b shift)
  | Smul (a, b) -> P.Mul (lower_sym a shift, lower_sym b shift)
  | Sdiv (a, b) -> P.Div (lower_sym a shift, lower_sym b shift)
  | Deriv2 (e, dim) ->
      let order = space_order_of e in
      let h = spacing_of e in
      let inv_h2 = 1.0 /. (h *. h) in
      let terms =
        List.map
          (fun (off, c) ->
            let extra = List.init 3 (fun d -> if d = dim then off else 0) in
            P.Mul (P.Const (c *. inv_h2), lower_sym e (shift_offset shift extra)))
          (deriv2_coeffs order)
      in
      List.fold_left (fun acc t -> P.Add (acc, t)) (List.hd terms) (List.tl terms)
  | Laplace e ->
      P.Add (P.Add (lower_sym (Deriv2 (e, 0)) shift, lower_sym (Deriv2 (e, 1)) shift),
             lower_sym (Deriv2 (e, 2)) shift)

and space_order_of = function
  | Fn_at (f, _) -> f.space_order
  | Snum _ -> 2
  | Sadd (a, b) | Ssub (a, b) | Smul (a, b) | Sdiv (a, b) ->
      max (space_order_of a) (space_order_of b)
  | Deriv2 (e, _) | Laplace e -> space_order_of e

and spacing_of = function
  | Fn_at (f, _) -> f.fgrid.spacing
  | Snum _ -> 1.0
  | Sadd (a, _) | Ssub (a, _) | Smul (a, _) | Sdiv (a, _) -> spacing_of a
  | Deriv2 (e, _) | Laplace e -> spacing_of e

(** Build an operator: each equation must assign [forward u] for some
    time function [u].  Produces the stencil program run for
    [iterations] timesteps. *)
let operator ~(name : string) ~(iterations : int) ?(dsl_loc = 0) (eqs : eq list) :
    P.t =
  if eqs = [] then fail "operator: no equations";
  let target = function
    | Fn_at (f, 1) -> f
    | _ -> fail "operator: every lhs must be a forward function reference"
  in
  let kernels =
    List.map
      (fun e ->
        let f = target e.lhs in
        {
          P.kname = f.fname ^ "_update";
          output = grid_name f 1;
          expr = lower_sym e.rhs [ 0; 0; 0 ];
        })
      eqs
  in
  let fns = List.map (fun e -> target e.lhs) eqs in
  let f0 = List.hd fns in
  let extents = f0.fgrid.shape in
  (* state grids: for time_order 2 both u_prev and u; for 1 just u *)
  let state =
    List.concat_map
      (fun f ->
        if f.time_order >= 2 then [ grid_name f (-1); grid_name f 0 ]
        else [ grid_name f 0 ])
      fns
  in
  let next_state =
    List.concat_map
      (fun f ->
        if f.time_order >= 2 then [ grid_name f 0; grid_name f 1 ]
        else [ grid_name f 1 ])
      fns
  in
  let prog =
    {
      P.pname = name;
      frontend = "devito";
      extents;
      halo = 1;
      state;
      kernels;
      next_state;
      iterations;
      use_loop = true;
      dsl_loc;
    }
  in
  { prog with halo = max 1 (P.program_radius prog) }
