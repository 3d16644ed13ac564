(** Wafer-level decomposition — see the interface.

    The same grid-slice strategy the [distribute-stencil] pass applies
    per-PE (paper §5.1), applied once more at the top: the global
    interior is cut into a [wx × wy] grid of contiguous rectangles, one
    per wafer, and the halo exchanges between neighbouring wafers are
    described with the intra-wafer [Dmp.swap_desc] machinery —
    per-direction depths from the actual access offsets and the
    needed-columns-only z restriction (§6.1). *)

module P = Wsc_frontends.Stencil_program
module Dmp = Wsc_dialects.Dmp
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
  depth_west : int;
  depth_east : int;
  depth_north : int;
  depth_south : int;
  z_lo : int;
  z_hi : int;
}

(* ------------------------------------------------------------------ *)
(* decomposability                                                     *)
(* ------------------------------------------------------------------ *)

let all_accesses (p : P.t) : (string * int list) list =
  List.concat_map (fun (k : P.kernel) -> P.accesses k.P.expr) p.P.kernels

(** Epoch-stepped decomposition preserves the single-wafer semantics
    only when (a) every grid read at a nonzero x/y offset is a state
    grid — intermediates must be consumed point-wise, so no intra-step
    inter-wafer traffic exists — and (b) the program steps through time
    one iteration at a time ([use_loop], or a single iteration), so one
    BSP epoch is exactly one timestep. *)
let decomposable (p : P.t) : (unit, string) result =
  if not (p.P.use_loop || p.P.iterations <= 1) then
    Error
      (Printf.sprintf
         "%s: straight-line program with %d iterations fuses across \
          timesteps; wafer decomposition needs use_loop or iterations <= 1"
         p.P.pname p.P.iterations)
  else
    let bad =
      List.find_opt
        (fun (g, off) ->
          let remote =
            match off with dx :: dy :: _ -> dx <> 0 || dy <> 0 | _ -> false
          in
          remote && not (List.mem g p.P.state))
        (all_accesses p)
    in
    match bad with
    | Some (g, _) ->
        Error
          (Printf.sprintf
             "%s: intermediate grid %s is read at a nonzero x/y offset; \
              inter-wafer halos carry state grids only"
             p.P.pname g)
    | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* halo depths and the z restriction                                   *)
(* ------------------------------------------------------------------ *)

(** Per-direction receive depths and needed z columns, from the offsets
    the kernels actually use (not the declared halo, which may be
    wider).  Receiving from the west neighbour serves accesses with
    dx < 0, and so on; the z range is the union of columns any interior
    point reaches. *)
let halo_shape (p : P.t) : int * int * int * int * int * int =
  let _, _, nz = p.P.extents in
  let w = ref 0 and e = ref 0 and n = ref 0 and s = ref 0 in
  let dz_min = ref 0 and dz_max = ref 0 in
  List.iter
    (fun (g, off) ->
      match off with
      | [ dx; dy; dz ] ->
          if List.mem g p.P.state then begin
            w := max !w (-dx);
            e := max !e dx;
            n := max !n (-dy);
            s := max !s dy
          end;
          dz_min := min !dz_min dz;
          dz_max := max !dz_max dz
      | _ -> ())
    (all_accesses p);
  (!w, !e, !n, !s, min 0 !dz_min, nz + max 0 !dz_max)

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

(** The exchanges of a wafer whose West/East/North/South halos are
    [(w, e, n, s)] deep; a side of depth 0 exchanges nothing. *)
let swaps_of ~z_lo ~z_hi (w, e, n, s) : Dmp.swap_desc list =
  List.filter_map
    (fun (dir, depth) -> if depth > 0 then Some { Dmp.dir; depth; z_lo; z_hi } else None)
    [ (Dmp.West, w); (Dmp.East, e); (Dmp.North, n); (Dmp.South, s) ]

let plan ~(wafers : int * int) (p : P.t) : plan =
  let wx, wy = wafers in
  let nx, ny, _ = p.P.extents in
  if wx < 1 || wy < 1 then fail "wafer grid %dx%d: both sides must be >= 1" wx wy;
  if wx > nx || wy > ny then
    fail "wafer grid %dx%d does not fit the %dx%d interior" wx wy nx ny;
  (match decomposable p with Ok () -> () | Error msg -> fail "%s" msg);
  let dw, de, dn, ds, z_lo, z_hi = halo_shape p in
  let xs = split nx wx and ys = split ny wy in
  let slices =
    List.concat
      (List.mapi
         (fun wj (y0, sny) ->
           List.mapi
             (fun wi (x0, snx) ->
               let swaps =
                 swaps_of ~z_lo ~z_hi
                   ( (if wi > 0 then dw else 0),
                     (if wi < wx - 1 then de else 0),
                     (if wj > 0 then dn else 0),
                     if wj < wy - 1 then ds else 0 )
               in
               { wi; wj; x0; y0; snx; sny; swaps })
             xs)
         ys)
  in
  {
    wafers;
    program = p;
    slices;
    depth_west = dw;
    depth_east = de;
    depth_north = dn;
    depth_south = ds;
    z_lo;
    z_hi;
  }

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
      let edge =
        match d.Dmp.dir with
        | Dmp.West | Dmp.East -> s.sny
        | Dmp.North | Dmp.South -> s.snx
      in
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
let plan_module (pl : plan) : Wsc_ir.Ir.op =
  let p = pl.program in
  let swaps =
    swaps_of ~z_lo:pl.z_lo ~z_hi:pl.z_hi
      (pl.depth_west, pl.depth_east, pl.depth_north, pl.depth_south)
  in
  let ft = P.field_type p in
  let f =
    Func.func ~name:"wafer_plan"
      ~args:(List.map (fun _ -> ft) p.P.state)
      ~results:[] (fun b args ->
        List.iter
          (fun fv ->
            let t = B.insert b (Stencil.load fv) in
            ignore (B.insert b (Dmp.wafer_swap t ~topology:pl.wafers ~swaps)))
          args;
        B.insert0 b (Func.return_ []))
  in
  Builtin.module_op [ f ]
