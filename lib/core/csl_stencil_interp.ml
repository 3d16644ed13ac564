(** Reference semantics for [csl_stencil.apply], staged into the
    sequential interpreter through its explicit stager argument.

    Models exactly what the fabric does, but in a single address space:
    for every PE (2D point), the receive-chunk region runs once per chunk
    with a view of the neighbours' column slices, then the done region
    combines the accumulator with locally held data.  When coefficients
    are promoted, the view holds per-direction staging buffers — incoming
    columns scaled by their coefficient and reduced over the distances —
    exactly what the communication layer delivers at runtime.

    Handles both the tensor form (post group 2) and the bufferized form
    (post group 3, detected by the [bufferized] attr). *)

open Wsc_ir.Ir
module I = Wsc_dialects.Interp
module Bufview = Wsc_dialects.Bufview
module Stencil = Wsc_dialects.Stencil

(** Offset in [g]'s data of the [cs] values from [z_off] of the z-column
    at [(x, y)], or None outside the grid or when [g] does not hold
    z-columns. *)
let chunk_offset (g : I.grid) x y ~z_off ~cs : int option =
  match g.I.gbounds with
  | [ (xl, xu); (yl, yu) ] when x >= xl && x < xu && y >= yl && y < yu ->
      let z = I.tensor_extent g.I.gelt in
      if z = 1 then None
      else if z_off < 0 || z_off + cs > z then
        invalid_arg "csl_stencil.apply: chunk outside the z-column"
      else Some (((((x - xl) * (yu - yl)) + (y - yl)) * z) + z_off)
  | _ -> None

(** Build the per-input received views for one chunk at PE [(px, py)].
    [one_shot]: all directions reduce into the zero-offset staging
    position (§5.7). *)
let build_rcv_grids ~one_shot (cfg : Csl_stencil.apply_config) (comm_grids : I.grid list) px
    py ~(z_halo : int) ~(off : int) ~(radius : int) : I.grid list =
  let cs = cfg.chunk_size and w = (2 * radius) + 1 in
  let rb = [ (-radius, radius + 1); (-radius, radius + 1) ] in
  (* offset of the staged column at position (dx, dy) of the view *)
  let pos dx dy = (((dx + radius) * w) + (dy + radius)) * cs in
  let chunk g dx dy = chunk_offset g (px + dx) (py + dy) ~z_off:(z_halo + off) ~cs in
  List.mapi
    (fun i (g : I.grid) ->
      let rg = I.make_grid rb (Tensor ([ cs ], F32)) in
      let column data off = Bufview.make data ~off ~len:cs () in
      (if cfg.coeffs <> [] then begin
         (* promoted: pre-scaled reduction, per direction at the unit
            offset, or into one shared position when one-shot *)
         List.iter
           (fun (i', dx, dy, c) ->
             if i' = i then
               match chunk g dx dy with
               | Some src ->
                   let dst =
                     column rg.I.gdata
                       (if one_shot then pos 0 0 else pos (compare dx 0) (compare dy 0))
                   in
                   Bufview.fmac_into dst (column g.I.gdata src) c dst
               | None -> ())
           cfg.coeffs
       end
       else
         (* unpromoted: raw column per (dx, dy) *)
         for dx = -radius to radius do
           for dy = -radius to radius do
             if dx <> 0 || dy <> 0 then
               match chunk g dx dy with
               | Some src ->
                   Bufview.blit ~src:(column g.I.gdata src) ~dst:(column rg.I.gdata (pos dx dy))
               | None -> ()
           done
         done);
      rg)
    comm_grids

type setup = {
  cfg : Csl_stencil.apply_config;
  z_halo : int;
  cb : (int * int) list;
  radius : int;
  one_shot : bool;
}

let setup (op : op) : setup =
  let cfg = Csl_stencil.config_of op in
  let cb = Stencil.bounds_of_attr (attr_exn op "compute_bounds") in
  if List.length cb <> 2 then I.fail "csl_stencil.apply: compute bounds must be 2-D";
  {
    cfg;
    z_halo = int_attr_exn op "z_halo";
    cb;
    radius =
      List.fold_left
        (fun r (s : Wsc_dialects.Dmp.swap_desc) -> max r s.depth)
        1 (List.concat cfg.swaps);
    one_shot = has_attr op "one_shot";
  }

(* Write a done-region column into every output grid at [pt]. *)
let write_columns (out_grids : I.grid list) (pt : int array) (cols : float array list) : unit =
  if List.length cols <> List.length out_grids then
    I.fail "csl_stencil.apply: done region must yield one column per result";
  List.iter2
    (fun (g : I.grid) col ->
      let z = I.tensor_extent g.I.gelt in
      if Array.length col <> z then
        I.fail "grid_set: tensor size %d, grid elt %d" (Array.length col) z;
      Array.blit col 0 g.I.gdata (I.index_at g pt [| 0; 0 |] * z) z)
    out_grids cols

(* The apply, once per PE [pt] of the compute bounds: from a copy of the
   initial accumulator, [chunk fr acc off rcv_grids] runs the receive
   region on each chunk's views and returns the accumulator, then the
   columns of [finish fr vals acc] go into fresh output grids. *)
let per_pe (s : setup) (op : op) (inputs : (I.frame -> I.rtvalue) list) (pt : int array)
    ~(chunk : I.frame -> float array -> int -> I.grid list -> float array)
    ~(finish : I.frame -> I.rtvalue list -> float array -> float array list) :
    I.frame -> I.rtvalue list =
 fun fr ->
  let vals = List.map (fun r -> r fr) inputs in
  let comm_grids = List.filteri (fun i _ -> i < s.cfg.comm_count) vals |> List.map I.as_grid in
  let acc_init = I.as_tensor (List.nth vals s.cfg.comm_count) in
  let out_grids = List.map (fun _ -> I.copy_grid (List.hd comm_grids)) op.results in
  I.iter_box s.cb pt (fun () ->
      let acc = ref (Array.copy acc_init) in
      for c = 0 to s.cfg.num_chunks - 1 do
        let off = c * s.cfg.chunk_size in
        acc :=
          chunk fr !acc off
            (build_rcv_grids ~one_shot:s.one_shot s.cfg comm_grids pt.(0) pt.(1)
               ~z_halo:s.z_halo ~off ~radius:s.radius)
      done;
      write_columns out_grids pt (finish fr vals !acc));
  List.map (fun g -> I.Rgrid g) out_grids

(** Tensor-form evaluation (post group 2): both regions staged by the
    interpreter, accesses reading at the view centre (receive) or the PE
    (done). *)
let stage_tensor (sc : I.scope) (op : op) : I.frame -> I.rtvalue list =
  let s = setup op and inputs = List.map (I.read sc) op.operands in
  let recv_block = entry_block (Csl_stencil.recv_region op) in
  let done_block = entry_block (Csl_stencil.done_region op) in
  let pt = [| 0; 0 |] and n = s.cfg.comm_count in
  let recv_args = List.map (I.write sc) recv_block.bargs in
  let run_recv = I.stage_block sc ~point:[| 0; 0 |] recv_block in
  let done_args = List.map (I.write sc) done_block.bargs in
  let run_done = I.stage_block sc ~point:pt done_block in
  per_pe s op inputs pt
    ~chunk:(fun fr acc off rcv_grids ->
      List.iteri
        (fun i set ->
          set fr
            (if i < n then I.Rgrid (List.nth rcv_grids i)
             else if i = n then I.Rint off
             else I.Rtensor acc))
        recv_args;
      match run_recv fr with
      | [ I.Rtensor acc' ] -> acc'
      | _ -> I.fail "csl_stencil.apply: recv region must yield the accumulator")
    ~finish:(fun fr vals acc ->
      List.iteri (fun i set -> set fr (if i = n then I.Rtensor acc else List.nth vals i)) done_args;
      List.map I.as_tensor (run_done fr))

(** Bufferized-form evaluation (post group 3): both regions staged by
    {!Buf_eval}. *)
let stage_bufferized (sc : I.scope) (op : op) : I.frame -> I.rtvalue list =
  let s = setup op and inputs = List.map (I.read sc) op.operands in
  let recv_block = entry_block (Csl_stencil.recv_region op) in
  let done_block = entry_block (Csl_stencil.done_region op) in
  let recv = Buf_eval.stage recv_block and done_ = Buf_eval.stage done_block in
  let n_recv = List.length recv_block.bargs and n_done = List.length done_block.bargs in
  let pt = [| 0; 0 |] and n = s.cfg.comm_count in
  per_pe s op inputs pt
    ~chunk:(fun _ acc off rcv_grids ->
      let rcv_grids = Array.of_list rcv_grids in
      ignore
        (Buf_eval.run recv ~point:[| 0; 0 |]
           (Array.init n_recv (fun i ->
                if i < n then Buf_eval.Vgrid rcv_grids.(i)
                else if i = n then Buf_eval.Vint off
                else Buf_eval.Vbuf (Bufview.of_array acc))));
      acc)
    ~finish:(fun _ vals acc ->
      Buf_eval.run done_ ~point:pt
        (Array.init n_done (fun i ->
             if i = n then Buf_eval.Vbuf (Bufview.of_array acc)
             else
               match List.nth vals i with
               | I.Rgrid g -> Buf_eval.Vgrid g
               | _ -> I.fail "csl_stencil.apply: operand %d is not a grid" i))
      |> List.map (function
           | Buf_eval.Vbuf b -> Bufview.to_array b
           | _ -> I.fail "csl_stencil.apply: done region must yield buffers"))

(** The stager for the csl_stencil ops; [csl_stencil.prefetch] marks a
    fetch and, in single-address-space semantics, is the identity (like
    [dmp.swap]). *)
let stage : I.ext =
 fun sc op ->
  match op.opname with
  | "csl_stencil.apply" ->
      Some (if has_attr op "bufferized" then stage_bufferized sc op else stage_tensor sc op)
  | "csl_stencil.prefetch" ->
      let r = I.read sc (operand op 0) in
      Some (fun fr -> [ r fr ])
  | _ -> None

let run_func (m : op) ~(name : string) (args : I.rtvalue list) : I.rtvalue list =
  I.run_func ~ext:stage m ~name args

let register () = I.set_default_ext stage
