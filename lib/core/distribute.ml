(** Group 1 transformations (paper §5.1): decomposition and data
    dependencies.

    [distribute-stencil] decomposes the x/y dimensions across the WSE's 2D
    PE grid (one grid column per PE) and inserts [dmp.swap] ops describing
    the halo exchanges each [stencil.apply] depends on.  The z range of
    each swap is narrowed to the columns actually read remotely
    (needed-columns-only, §6.1).

    [tensorize-z] then converts the 3D grid of f32 scalars into a 2D grid
    of f32 z-column tensors: accesses gain explicit [tensor.extract_slice]
    ops for their z offset, scalar constants become dense splats, and the
    body's arithmetic becomes rank-polymorphic tensor arithmetic. *)

open Wsc_ir.Ir
module Stencil = Wsc_dialects.Stencil
module Dmp = Wsc_dialects.Dmp
module Arith = Wsc_dialects.Arith
module Tensor = Wsc_dialects.Tensor_d

(** {1 distribute-stencil} *)

exception Distribute_error of string

(** The runtime communication library covers star-shaped patterns
    (paper §5.6); diagonal dependencies would need the box-pattern
    library update the paper leaves to future work.  Rejecting them here
    — before any communication is planned — turns a would-be silent
    miscompilation into a diagnostic. *)
let check_star_shaped (apply : op) : unit =
  List.iter
    (fun off ->
      match off with
      | x :: y :: _ when x <> 0 && y <> 0 ->
          raise
            (Distribute_error
               (Printf.sprintf
                  "access at offset (%d, %d) is diagonal: only star-shaped \
                   stencils are supported by the communication library \
                   (box patterns are future work, paper §5.6)"
                  x y))
      | _ -> ())
    (Stencil.offsets apply)

(** Swap descriptors needed by [apply] for its [input_index]-th operand. *)
let swaps_for (apply : op) (input_index : int) : Dmp.swap_desc list =
  let body = Stencil.apply_body apply in
  let arg = List.nth body.bargs input_index in
  let cb = Stencil.compute_bounds apply in
  let z_interior = match cb with [ _; _; z ] -> z | _ -> (0, 0) in
  let offsets =
    List.filter_map
      (fun o ->
        if o.opname = "stencil.access" && (operand o 0).vid = arg.vid then
          Some (dense_ints_exn o "offset")
        else None)
      body.bops
  in
  let per_direction dir =
    (* an offset reads from the neighbour it points towards (offsets are
       star-shaped, so at most one of x, y is nonzero) *)
    let vx, vy = Dmp.vector dir in
    let selects = function x :: y :: _ -> (x * vx) + (y * vy) > 0 | _ -> false in
    let dir_offsets = List.filter selects offsets in
    if dir_offsets = [] then None
    else begin
      let depth =
        List.fold_left
          (fun d off ->
            match off with
            | x :: y :: _ -> max d (max (abs x) (abs y))
            | _ -> d)
          0 dir_offsets
      in
      let z_offs = List.map (fun off -> List.nth off 2) dir_offsets in
      let z_min = List.fold_left min 0 z_offs
      and z_max = List.fold_left max 0 z_offs in
      let z_lo, z_hi = z_interior in
      Some { Dmp.dir; depth; z_lo = z_lo + z_min; z_hi = z_hi + z_max }
    end
  in
  List.filter_map per_direction Dmp.all_directions

(** Topology: one PE per interior (x, y) grid point. *)
let topology_of (apply : op) : int * int =
  match Stencil.compute_bounds apply with
  | (lx, ux) :: (ly, uy) :: _ -> (ux - lx, uy - ly)
  | _ -> invalid_arg "distribute-stencil: apply is not at least 2-D"

let distribute (m : op) : op =
  rewrite_nested
    (fun o ->
      if not (Stencil.is_apply o) then Keep
      else begin
        check_star_shaped o;
        let topo = topology_of o in
        let subst = Subst.create () in
        let swap_ops =
          List.concat
            (List.mapi
               (fun i input ->
                 match swaps_for o i with
                 | [] -> []
                 | swaps ->
                     let sw = Dmp.swap input ~topology:topo ~swaps in
                     Subst.add subst ~from:input ~to_:(result sw);
                     [ sw ])
               o.operands)
        in
        if swap_ops = [] then Keep
        else begin
          o.operands <- List.map (Subst.resolve subst) o.operands;
          Replace (swap_ops @ [ o ])
        end
      end)
    m;
  m

let distribute_pass = Wsc_ir.Pass.make "distribute-stencil" distribute

(** {1 tensorize-z} *)

let tensorize_typ = function
  | Temp ([ bx; by; (zl, zu) ], F32) -> Temp ([ bx; by ], Tensor ([ zu - zl ], F32))
  | Field ([ bx; by; (zl, zu) ], F32) -> Field ([ bx; by ], Tensor ([ zu - zl ], F32))
  | t -> t

(** Rewrite one apply body from 3D scalar form to 2D tensor form.
    [z_halo] is the z halo width, [nz] the z interior extent. *)
let tensorize_apply_body (apply : op) ~(z_halo : int) ~(nz : int) : unit =
  let zfull = nz + (2 * z_halo) in
  let body = Stencil.apply_body apply in
  let b = Wsc_ir.Builder.create () in
  let subst = Subst.create () in
  (* cache: one access op per (arg, dx, dy); one slice per (access, zoff) *)
  let access_cache : (int * int * int, value) Hashtbl.t = Hashtbl.create 8 in
  let slice_cache : (int * int, value) Hashtbl.t = Hashtbl.create 8 in
  let get_access (arg : value) dx dy =
    match Hashtbl.find_opt access_cache (arg.vid, dx, dy) with
    | Some v -> v
    | None ->
        let a = Stencil.access arg ~offset:[ dx; dy ] in
        (result a).vtyp <- Tensor ([ zfull ], F32);
        let v = Wsc_ir.Builder.insert b a in
        Hashtbl.replace access_cache (arg.vid, dx, dy) v;
        v
  in
  let get_slice (col : value) zoff =
    match Hashtbl.find_opt slice_cache (col.vid, zoff) with
    | Some v -> v
    | None ->
        let s = Tensor.extract_slice col ~offset:(z_halo + zoff) ~size:nz in
        let v = Wsc_ir.Builder.insert b s in
        Hashtbl.replace slice_cache (col.vid, zoff) v;
        v
  in
  let ret_handled = ref false in
  List.iter
    (fun o ->
      match o.opname with
      | "stencil.access" ->
          let arg = Subst.resolve subst (operand o 0) in
          (match dense_ints_exn o "offset" with
          | [ dx; dy; dz ] ->
              let col = get_access arg dx dy in
              let v = get_slice col dz in
              Subst.add subst ~from:(result o) ~to_:v
          | _ -> invalid_arg "tensorize-z: access is not 3-D")
      | "arith.constant" ->
          (* scalar f32 constants become dense splats over the interior *)
          (match ((result o).vtyp, attr o "value") with
          | F32, Some (Float_attr f) ->
              let c = Arith.constant_dense ~shape:[ nz ] f in
              Subst.add subst ~from:(result o) ~to_:(result c);
              Wsc_ir.Builder.insert0 b c
          | _ ->
              o.operands <- List.map (Subst.resolve subst) o.operands;
              Wsc_ir.Builder.insert0 b o)
      | "stencil.return" ->
          ret_handled := true;
          let rets = List.map (Subst.resolve subst) o.operands in
          (* wrap each returned interior column into a full column copied
             from the first input at offset zero (Dirichlet z boundary) *)
          let center = get_access (List.hd body.bargs) 0 0 in
          let h_ix = Wsc_ir.Builder.insert b (Arith.constant_index z_halo) in
          let full =
            List.map
              (fun r ->
                Wsc_ir.Builder.insert b
                  (Tensor.insert_slice ~src:r ~dst:center ~offset:h_ix))
              rets
          in
          Wsc_ir.Builder.insert0 b (Stencil.return_ full)
      | _ ->
          o.operands <- List.map (Subst.resolve subst) o.operands;
          List.iter (fun r -> if r.vtyp = F32 then r.vtyp <- Tensor ([ nz ], F32)) o.results;
          Wsc_ir.Builder.insert0 b o)
    body.bops;
  if not !ret_handled then invalid_arg "tensorize-z: apply body has no return";
  body.bops <- Wsc_ir.Builder.ops b

let tensorize (m : op) : op =
  (* per-apply body rewrite, using z metadata from the 3-D types *)
  walk_op
    (fun o ->
      if Stencil.is_apply o then begin
        match (result o).vtyp with
        | Temp ([ _; _; (zl, zu) ], F32) ->
            let cb = Stencil.compute_bounds o in
            let z_lo, z_hi = List.nth cb 2 in
            let nz = z_hi - z_lo in
            let z_halo = z_lo - zl in
            if zu - z_hi <> z_halo then
              invalid_arg "tensorize-z: asymmetric z halo unsupported";
            tensorize_apply_body o ~z_halo ~nz;
            set_attr o "z_halo" (Int_attr z_halo);
            set_attr o "z_interior" (Int_attr nz);
            set_attr o "compute_bounds"
              (Stencil.bounds_attr (List.filteri (fun i _ -> i < 2) cb))
        | _ -> ()
      end)
    m;
  (* global type conversion: every 3-D grid value becomes 2-D of tensors *)
  let convert_value v = v.vtyp <- tensorize_typ v.vtyp in
  let rec convert_op o =
    List.iter convert_value o.results;
    (match o.opname with
    | "func.func" ->
        (match attr o "function_type" with
        | Some (Type_attr (Function (ins, outs))) ->
            set_attr o "function_type"
              (Type_attr (Function (List.map tensorize_typ ins, List.map tensorize_typ outs)))
        | _ -> ())
    | _ -> ());
    List.iter
      (fun r ->
        List.iter
          (fun blk ->
            List.iter convert_value blk.bargs;
            List.iter convert_op blk.bops)
          r.blocks)
      o.regions
  in
  convert_op m;
  m

let tensorize_pass = Wsc_ir.Pass.make "stencil-tensorize-z-dimension" tensorize
