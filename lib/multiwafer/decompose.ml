(** Wafer-level decomposition — see the interface.

    The same grid-slice strategy the [distribute-stencil] pass applies
    per-PE (paper §5.1), applied once more at the top: the global
    interior is cut into a [wx × wy] grid of contiguous rectangles, one
    per wafer, and the halo exchanges between neighbouring wafers are
    the [dmp.swap]s [distribute-stencil] derives for the PE grid —
    per-direction depths and the needed-columns-only z restriction
    (§6.1) — merged per direction. *)

module P = Wsc_frontends.Stencil_program
module Ir = Wsc_ir.Ir
module Dmp = Wsc_dialects.Dmp
module Distribute = Wsc_core.Distribute
module B = Wsc_ir.Builder
module Stencil = Wsc_dialects.Stencil
module Func = Wsc_dialects.Func
module Builtin = Wsc_dialects.Builtin

exception Decompose_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decompose_error s)) fmt

type slice = {
  wi : int;
  wj : int;
  x0 : int;
  y0 : int;
  snx : int;
  sny : int;
  swaps : Dmp.swap_desc list;
}

type plan = {
  wafers : int * int;
  program : P.t;
  slices : slice list;
  swaps : Dmp.swap_desc list;
}

(* ------------------------------------------------------------------ *)
(* the halo exchanges, from distribute-stencil                         *)
(* ------------------------------------------------------------------ *)

(** One descriptor per direction: the deepest of the direction's
    [dmp.swap] descriptors, over the union of their z ranges. *)
let merge (descs : Dmp.swap_desc list) : Dmp.swap_desc list =
  let widen a b =
    {
      a with
      Dmp.depth = max a.Dmp.depth b.Dmp.depth;
      z_lo = min a.Dmp.z_lo b.Dmp.z_lo;
      z_hi = max a.Dmp.z_hi b.Dmp.z_hi;
    }
  in
  List.filter_map
    (fun dir ->
      match List.filter (fun d -> d.Dmp.dir = dir) descs with
      | [] -> None
      | d :: ds -> Some (List.fold_left widen d ds))
    Dmp.all_directions

(** An interior wafer's exchanges, read off the [dmp.swap]s that
    [distribute-stencil] inserts into the program's IR, when
    epoch-stepped decomposition preserves the single-wafer semantics:
    (a) the program steps through time one iteration at a time
    ([use_loop], or a single iteration), so one BSP epoch is exactly
    one timestep, and (b) no swap exchanges a kernel's output —
    intermediates must be consumed point-wise, so no intra-step
    inter-wafer traffic exists. *)
let exchanges (p : P.t) : (Dmp.swap_desc list, string) result =
  if not (p.P.use_loop || p.P.iterations <= 1) then
    Error
      (Printf.sprintf
         "%s: straight-line program with %d iterations fuses across \
          timesteps; wafer decomposition needs use_loop or iterations <= 1"
         p.P.pname p.P.iterations)
  else
    match Distribute.distribute (P.compile p) with
    | exception Distribute.Distribute_error msg ->
        Error (Printf.sprintf "%s: %s" p.P.pname msg)
    | m -> (
        let swap_ops = Ir.find_ops_by_name "dmp.swap" m in
        (* apply results in program order: the kernels of one step *)
        let outputs = List.map Ir.result (Ir.find_ops Stencil.is_apply m) in
        let kernel_output (sw : Ir.op) =
          let v = Ir.operand sw 0 in
          List.find_index (fun (o : Ir.value) -> o.Ir.vid = v.Ir.vid) outputs
          |> Option.map (fun i ->
                 (List.nth p.P.kernels (i mod List.length p.P.kernels)).P.output)
        in
        match List.find_map kernel_output swap_ops with
        | Some g ->
            Error
              (Printf.sprintf
                 "%s: intermediate grid %s is read at a nonzero x/y offset; \
                  inter-wafer halos carry state grids only"
                 p.P.pname g)
        | None -> Ok (merge (List.concat_map Dmp.swaps swap_ops)))

let decomposable (p : P.t) : (unit, string) result = Result.map ignore (exchanges p)

(* ------------------------------------------------------------------ *)
(* the plan                                                            *)
(* ------------------------------------------------------------------ *)

(** Balanced 1-D split: the first [extent mod parts] slices are one
    cell wider, so slice widths differ by at most one and equal-width
    slices compile to identical per-wafer programs (one cache entry). *)
let split (extent : int) (parts : int) : (int * int) list =
  let base = extent / parts and rem = extent mod parts in
  let rec go i x0 =
    if i = parts then []
    else
      let w = base + if i < rem then 1 else 0 in
      (x0, w) :: go (i + 1) (x0 + w)
  in
  go 0 0

let plan ~(wafers : int * int) (p : P.t) : plan =
  let wx, wy = wafers in
  let nx, ny, _ = p.P.extents in
  if wx < 1 || wy < 1 then fail "wafer grid %dx%d: both sides must be >= 1" wx wy;
  if wx > nx || wy > ny then
    fail "wafer grid %dx%d does not fit the %dx%d interior" wx wy nx ny;
  let swaps = match exchanges p with Ok s -> s | Error msg -> fail "%s" msg in
  let xs = split nx wx and ys = split ny wy in
  let slices =
    List.concat
      (List.mapi
         (fun wj (y0, sny) ->
           List.mapi
             (fun wi (x0, snx) ->
               (* a side exchanges only when a wafer sits there *)
               let has_neighbour (d : Dmp.swap_desc) =
                 let vx, vy = Dmp.vector d.Dmp.dir in
                 let ni = wi + vx and nj = wj + vy in
                 ni >= 0 && ni < wx && nj >= 0 && nj < wy
               in
               { wi; wj; x0; y0; snx; sny; swaps = List.filter has_neighbour swaps })
             xs)
         ys)
  in
  { wafers; program = p; slices; swaps }

(** The per-wafer subproblem: same kernels, state rotation and halo on
    the slice's interior, advancing one timestep per BSP epoch.  The
    loop structure is preserved (a one-iteration [scf.for] compiles the
    identical per-step code as the global loop body), so the per-point
    arithmetic matches the undecomposed program bit for bit. *)
let subprogram (pl : plan) (s : slice) : P.t =
  let _, _, nz = pl.program.P.extents in
  { pl.program with P.extents = (s.snx, s.sny, nz); iterations = 1 }

(** Scalars this wafer receives per epoch: every swap contributes
    [depth] rows of boundary cells, [z_hi - z_lo] columns deep, along
    the full shared edge. *)
let slice_exchange_scalars (s : slice) : int =
  List.fold_left
    (fun acc (d : Dmp.swap_desc) ->
      let edge = if fst (Dmp.vector d.Dmp.dir) <> 0 then s.sny else s.snx in
      acc + (Dmp.sum_volume [ d ] * edge))
    0 s.swaps

(** Scalars received per epoch across all wafers (every cell is counted
    at its receiver, like [Dmp.exchange_volume] counts per PE). *)
let exchange_scalars (pl : plan) : int =
  List.fold_left (fun acc s -> acc + slice_exchange_scalars s) 0 pl.slices

(** The plan as IR: a module whose [wafer_plan] function loads each
    state field and marks it with a [dmp.wafer_swap] carrying the
    wafer topology and the interior wafer's exchange descriptors —
    printable, parseable and verifiable like any pipeline stage. *)
let plan_module (pl : plan) : Ir.op =
  let p = pl.program in
  let ft = P.field_type p in
  let f =
    Func.func ~name:"wafer_plan"
      ~args:(List.map (fun _ -> ft) p.P.state)
      ~results:[] (fun b args ->
        List.iter
          (fun fv ->
            let t = B.insert b (Stencil.load fv) in
            ignore (B.insert b (Dmp.wafer_swap t ~topology:pl.wafers ~swaps:pl.swaps)))
          args;
        B.insert0 b (Func.return_ []))
  in
  Builtin.module_op [ f ]
