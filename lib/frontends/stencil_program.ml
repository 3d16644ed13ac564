(** Frontend-independent stencil program representation.

    Each of the three frontends (mini-Flang, mini-Devito, mini-PSyclone)
    translates its surface syntax into this representation, which is then
    compiled into stencil-dialect IR — the common entry point of the
    paper's pipeline (Figure 3). *)

open Wsc_ir.Ir
module B = Wsc_ir.Builder
module Stencil = Wsc_dialects.Stencil
module Arith = Wsc_dialects.Arith
module Scf = Wsc_dialects.Scf
module Func = Wsc_dialects.Func
module Builtin = Wsc_dialects.Builtin

(** Point-wise expression over grid accesses at constant offsets. *)
type expr =
  | Access of string * int list  (** grid name, offset per dimension *)
  | Const of float
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

(** One stencil kernel: computes grid [output] from an expression over
    previously defined grids. *)
type kernel = { kname : string; output : string; expr : expr }

type t = {
  pname : string;
  frontend : string;  (** which DSL produced this: flang/devito/psyclone/csl *)
  extents : int * int * int;  (** interior nx, ny, nz *)
  halo : int;  (** halo width (the stencil radius) *)
  state : string list;  (** grids carried across timesteps, in order *)
  kernels : kernel list;  (** applied in order within one step *)
  next_state : string list;  (** per state slot: a kernel output or a state name *)
  iterations : int;
  use_loop : bool;  (** wrap steps in an [scf.for] (false: straight-line) *)
  dsl_loc : int;  (** lines of DSL source code, for the Table 1 comparison *)
}

(** {1 Expression utilities} *)

let rec accesses = function
  | Access (g, off) -> [ (g, off) ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> accesses a @ accesses b

let rec fold_constants = function
  | (Access _ | Const _) as e -> e
  | Add (a, b) -> (
      match (fold_constants a, fold_constants b) with
      | Const x, Const y -> Const (x +. y)
      | a, b -> Add (a, b))
  | Sub (a, b) -> (
      match (fold_constants a, fold_constants b) with
      | Const x, Const y -> Const (x -. y)
      | a, b -> Sub (a, b))
  | Mul (a, b) -> (
      match (fold_constants a, fold_constants b) with
      | Const x, Const y -> Const (x *. y)
      | a, b -> Mul (a, b))
  | Div (a, b) -> (
      match (fold_constants a, fold_constants b) with
      | Const x, Const y -> Const (x /. y)
      | a, b -> Div (a, b))

(** Grid names read by a kernel, in first-use order, without duplicates. *)
let kernel_inputs (k : kernel) : string list =
  List.fold_left
    (fun acc (g, _) -> if List.mem g acc then acc else acc @ [ g ])
    [] (accesses k.expr)

(** Maximum |offset| per dimension over the whole program. *)
let program_radius (p : t) : int =
  List.fold_left
    (fun r k ->
      List.fold_left
        (fun r (_, off) -> List.fold_left (fun r o -> max r (abs o)) r off)
        r (accesses k.expr))
    0 p.kernels

(** Count of FLOPs per point of a kernel expression. *)
let rec expr_flops = function
  | Access _ | Const _ -> 0
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      1 + expr_flops a + expr_flops b

(** {1 Compilation to stencil-dialect IR} *)

(** The halo-extended grid type all state grids share. *)
let grid_type (p : t) : typ =
  let nx, ny, nz = p.extents in
  let h = p.halo in
  Temp ([ (-h, nx + h); (-h, ny + h); (-h, nz + h) ], F32)

let field_type (p : t) : typ =
  match grid_type p with Temp (b, e) -> Field (b, e) | t -> t

(** The interior compute bounds. *)
let interior (p : t) : (int * int) list =
  let nx, ny, nz = p.extents in
  [ (0, nx); (0, ny); (0, nz) ]

(** Emit the body of one kernel into builder [b], with [env] mapping grid
    names to SSA values (block args of the apply).  Accesses are CSE'd per
    (grid, offset). *)
let emit_expr (b : B.t) (env : (string * value) list) (expr : expr) : value =
  let cache : (string * int list, value) Hashtbl.t = Hashtbl.create 16 in
  let rec go = function
    | Const c -> B.insert b (Arith.constant_f c)
    | Access (g, off) -> (
        match Hashtbl.find_opt cache (g, off) with
        | Some v -> v
        | None ->
            let grid =
              match List.assoc_opt g env with
              | Some v -> v
              | None -> invalid_arg ("unknown grid " ^ g)
            in
            let v = B.insert b (Stencil.access grid ~offset:off) in
            Hashtbl.replace cache (g, off) v;
            v)
    | Add (x, y) ->
        let vx = go x in
        let vy = go y in
        B.insert b (Arith.addf vx vy)
    | Sub (x, y) ->
        let vx = go x in
        let vy = go y in
        B.insert b (Arith.subf vx vy)
    | Mul (x, y) ->
        let vx = go x in
        let vy = go y in
        B.insert b (Arith.mulf vx vy)
    | Div (x, y) ->
        let vx = go x in
        let vy = go y in
        B.insert b (Arith.divf vx vy)
  in
  go (fold_constants expr)

(** Emit one [stencil.apply] for kernel [k] reading grids from [env]. *)
let emit_kernel (p : t) (b : B.t) (env : (string * value) list) (k : kernel) : value =
  let input_names = kernel_inputs k in
  let inputs =
    List.map
      (fun n ->
        match List.assoc_opt n env with
        | Some v -> v
        | None -> invalid_arg ("kernel " ^ k.kname ^ ": unknown grid " ^ n))
      input_names
  in
  let apply =
    Stencil.apply ~compute_bounds:(interior p) ~inputs ~result_type:(grid_type p)
      (fun bb args ->
        let body_env = List.combine input_names args in
        let r = emit_expr bb body_env k.expr in
        B.insert0 bb (Stencil.return_ [ r ]))
  in
  B.insert b apply

(** Emit the kernels of one timestep and return the next state values. *)
let emit_step (p : t) (b : B.t) (state_env : (string * value) list) :
    (string * value) list * value list =
  let env =
    List.fold_left
      (fun env k ->
        let out = emit_kernel p b env k in
        env @ [ (k.output, out) ])
      state_env p.kernels
  in
  let next =
    List.map
      (fun n ->
        match List.assoc_opt n env with
        | Some v -> v
        | None -> invalid_arg ("next_state: unknown grid " ^ n))
      p.next_state
  in
  (env, next)

(** Compile the program to a module containing function [main]: it takes
    one field per state grid, loads them, runs the timestep loop (or the
    straight-line kernels), and stores the final state back. *)
let compile (p : t) : op =
  let ft = field_type p in
  let n_state = List.length p.state in
  let f =
    Func.func ~name:"main"
      ~args:(List.init n_state (fun _ -> ft))
      ~results:[] (fun b args ->
        let temps = List.map (fun fv -> B.insert b (Stencil.load fv)) args in
        let finals =
          if p.use_loop then begin
            let lb = B.insert b (Arith.constant_index 0) in
            let ub = B.insert b (Arith.constant_index p.iterations) in
            let step = B.insert b (Arith.constant_index 1) in
            let loop =
              Scf.for_ ~lb ~ub ~step ~iter_args:temps (fun bb _iv iter ->
                  let state_env = List.combine p.state iter in
                  let _, next = emit_step p bb state_env in
                  B.insert0 bb (Scf.yield next))
            in
            B.insert_multi b loop
          end
          else begin
            let env = ref (List.combine p.state temps) in
            let out = ref temps in
            for _ = 1 to p.iterations do
              let env', next = emit_step p b !env in
              ignore env';
              out := next;
              env := List.combine p.state next
            done;
            !out
          end
        in
        List.iter2 (fun t fv -> B.insert0 b (Stencil.store t fv)) finals args;
        B.insert0 b (Func.return_ []))
  in
  Builtin.module_op [ f ]

(** {1 Reference execution}

    Convenience wrapper: allocate and initialize fields, run [main] with
    the sequential interpreter, return the final state grids. *)
module Interp = Wsc_dialects.Interp

let run_reference (p : t) : Interp.grid list =
  let m = compile p in
  let ft = field_type p in
  let grids =
    List.map
      (fun _ ->
        let g = Interp.grid_of_typ ft in
        Interp.init_grid g;
        g)
      p.state
  in
  ignore (Interp.run_func m ~name:"main" (List.map (fun g -> Interp.Rgrid g) grids));
  grids

(** Estimated size of {!run_reference}: [bytes] of the grids it holds at
    once (every state grid plus one output per kernel), and [point_ops],
    the body ops it runs (one per distinct access and per flop of every
    kernel, at every interior point of every timestep). *)
type estimate = { bytes : int; point_ops : int }

let reference_estimate (p : t) : estimate =
  let cells =
    match grid_type p with
    | Temp (b, _) -> List.fold_left (fun n (lb, ub) -> n * (ub - lb)) 1 b
    | _ -> 0
  in
  let points = List.fold_left (fun n (lb, ub) -> n * (ub - lb)) 1 (interior p) in
  let per_point =
    List.fold_left
      (fun n k -> n + List.length (List.sort_uniq compare (accesses k.expr)) + expr_flops k.expr)
      0 p.kernels
  in
  {
    bytes = 8 * cells * (List.length p.state + List.length p.kernels);
    point_ops = p.iterations * points * per_point;
  }

exception Reference_refused of string

(** Largest reference {!check_reference} admits, in apply-body ops.  At
    1.2-2.5 ns per op (the five benchmarks at Small, 2 timesteps, on a
    2-core x86-64 host), 2e10 ops is under a minute; the benchmarks'
    Small size fits at a few timesteps. *)
let max_point_ops = 20_000_000_000

let check_reference ~max_bytes (p : t) : unit =
  let e = reference_estimate p in
  if e.bytes > max_bytes || e.point_ops > max_point_ops then
    raise
      (Reference_refused
         (Printf.sprintf
            "the sequential reference of %s needs an estimated %d bytes and %d \
             point-ops, over the limit of %d bytes and %d point-ops; use a smaller \
             size or fewer iterations"
            p.pname e.bytes e.point_ops max_bytes max_point_ops))

(** The same initial state in the 2-D z-column layout the lowered
    program (and the fabric) takes, one fresh grid per state slot. *)
let init_grids (p : t) : Interp.grid list =
  let ft = field_type p in
  List.map
    (fun _ ->
      let g = Interp.grid_of_typ ft in
      Interp.init_grid g;
      Interp.retensorize_grid g)
    p.state

(** {1 Acceptance} *)

let tolerance = 1e-4
let within_tolerance (d : float) : bool = d < tolerance
