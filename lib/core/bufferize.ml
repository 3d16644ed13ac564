(** Group 3 (paper §5.3): memory realization within a PE.

    Rewrites the value-semantics tensor bodies of [csl_stencil.apply] into
    reference semantics: tensors become memrefs, arithmetic becomes
    destination-passing-style [linalg] ops writing into explicit buffers,
    and the accumulator is reused in place for intermediate and final
    results.  Intermediate buffers are allocated automatically when an
    expression cannot be computed in place (the bufferization fail-safe
    the paper gets from upstream MLIR). *)

open Wsc_ir.Ir
module Linalg = Wsc_dialects.Linalg_d
module Memref = Wsc_dialects.Memref_d
module Arith = Wsc_dialects.Arith
module B = Wsc_ir.Builder

exception Bufferize_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bufferize_error s)) fmt

let def_map_of_block (b : block) : (int, op) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun o -> List.iter (fun r -> Hashtbl.replace h r.vid o) o.results) b.bops;
  h

let dense_const defs (v : value) : float option =
  match Hashtbl.find_opt defs v.vid with
  | Some o when Arith.is_constant o -> Arith.constant_value o
  | _ -> None

let memref_of_tensor = function
  | Tensor (shape, e) -> Memref (shape, e)
  | t -> t

let len_of v = match shape_of v.vtyp with [ n ] -> n | _ -> fail "expected 1-D value"

(** Lowering context for one region. *)
type lctx = {
  defs : (int, op) Hashtbl.t;
  b : B.t;
  buf_cache : (int, value) Hashtbl.t;  (** tensor value vid -> memref value *)
  fuse_fmac : bool;
      (** emit [linalg.fmac] for multiply-accumulate chains (paper §5.7);
          when off, a multiply into a temporary plus an add *)
}

(** Produce a memref value aliasing or holding [v]'s data. *)
let rec lower_buf (c : lctx) (v : value) : value =
  match Hashtbl.find_opt c.buf_cache v.vid with
  | Some m -> m
  | None ->
      let m =
        match Hashtbl.find_opt c.defs v.vid with
        | None ->
            (* block argument: already converted to a memref by the caller *)
            v
        | Some o -> (
            match o.opname with
            | "csl_stencil.access" ->
                let nw =
                  Csl_stencil.access (operand o 0)
                    ~offset:(dense_ints_exn o "offset")
                    ~result:(memref_of_tensor (result o).vtyp)
                in
                B.insert c.b nw
            | "tensor.extract_slice" ->
                let src = lower_buf c (operand o 0) in
                B.insert c.b
                  (Memref.subview src ~offset:(int_attr_exn o "offset")
                     ~size:(int_attr_exn o "size"))
            | _ ->
                let tmp =
                  B.insert c.b (Memref.alloc ~shape:[ len_of v ] ~hint:"tmp" ())
                in
                lower_into c tmp v;
                tmp)
      in
      Hashtbl.replace c.buf_cache v.vid m;
      m

(** Compute [v] into destination buffer [dst]. *)
and lower_into (c : lctx) (dst : value) (v : value) : unit =
  match Hashtbl.find_opt c.defs v.vid with
  | None ->
      (* block arg (e.g. the accumulator): copy *)
      B.insert0 c.b (Linalg.copy ~a:v ~out:dst)
  | Some o -> (
      match o.opname with
      | "varith.add" -> (
          match o.operands with
          | [] -> fail "empty varith.add"
          | x :: rest ->
              lower_into c dst x;
              List.iter (fun y -> accumulate c dst y 1.0) rest)
      | "arith.addf" ->
          lower_into c dst (operand o 0);
          accumulate c dst (operand o 1) 1.0
      | "arith.subf" ->
          lower_into c dst (operand o 0);
          accumulate c dst (operand o 1) (-1.0)
      | "varith.mul" | "arith.mulf" -> (
          let consts, rest =
            List.partition (fun x -> dense_const c.defs x <> None) o.operands
          in
          let k =
            List.fold_left
              (fun k x -> k *. Option.get (dense_const c.defs x))
              1.0 consts
          in
          match rest with
          | [] -> B.insert0 c.b (Linalg.fill ~out:dst ~value:k)
          | [ x ] ->
              let bx = lower_buf c x in
              if k = 1.0 then B.insert0 c.b (Linalg.copy ~a:bx ~out:dst)
              else B.insert0 c.b (Linalg.mul_scalar ~a:bx ~out:dst ~scalar:k)
          | x :: y :: more ->
              let bx = lower_buf c x in
              let by = lower_buf c y in
              B.insert0 c.b (Linalg.mul ~a:bx ~b:by ~out:dst);
              List.iter
                (fun z ->
                  let bz = lower_buf c z in
                  B.insert0 c.b (Linalg.mul ~a:dst ~b:bz ~out:dst))
                more;
              if k <> 1.0 then
                B.insert0 c.b (Linalg.mul_scalar ~a:dst ~out:dst ~scalar:k))
      | "arith.divf" -> (
          match dense_const c.defs (operand o 1) with
          | Some k ->
              let bx = lower_buf c (operand o 0) in
              B.insert0 c.b (Linalg.mul_scalar ~a:bx ~out:dst ~scalar:(1.0 /. k))
          | None ->
              let bx = lower_buf c (operand o 0) in
              let by = lower_buf c (operand o 1) in
              B.insert0 c.b (Linalg.div ~a:bx ~b:by ~out:dst))
      | "arith.constant" -> (
          match Arith.constant_value o with
          | Some k -> B.insert0 c.b (Linalg.fill ~out:dst ~value:k)
          | None -> fail "non-float constant in tensor position")
      | "csl_stencil.access" | "tensor.extract_slice" ->
          let bv = lower_buf c v in
          B.insert0 c.b (Linalg.copy ~a:bv ~out:dst)
      | name -> fail "bufferize: cannot lower %s" name)

(** Accumulate [sign * v] into [dst]. *)
and accumulate (c : lctx) (dst : value) (v : value) (sign : float) : unit =
  let fallback () =
    let bv = lower_buf c v in
    if sign > 0.0 then B.insert0 c.b (Linalg.add ~a:dst ~b:bv ~out:dst)
    else B.insert0 c.b (Linalg.sub ~a:dst ~b:bv ~out:dst)
  in
  match Hashtbl.find_opt c.defs v.vid with
  | Some o when o.opname = "arith.mulf" || o.opname = "varith.mul" -> (
      let consts, rest =
        List.partition (fun x -> dense_const c.defs x <> None) o.operands
      in
      let k =
        sign
        *. List.fold_left
             (fun k x -> k *. Option.get (dense_const c.defs x))
             1.0 consts
      in
      match rest with
      | [ x ] when c.fuse_fmac ->
          (* the canonical fused multiply-accumulate *)
          let bx = lower_buf c x in
          B.insert0 c.b (Linalg.fmac ~a:dst ~b:bx ~out:dst ~scalar:k)
      | [ x ] ->
          let bx = lower_buf c x in
          let tmp = B.insert c.b (Memref.alloc ~shape:[ len_of x ] ~hint:"tmp" ()) in
          B.insert0 c.b (Linalg.mul_scalar ~a:bx ~out:tmp ~scalar:k);
          B.insert0 c.b (Linalg.add ~a:dst ~b:tmp ~out:dst)
      | _ -> fallback ())
  | Some o when Arith.is_constant o -> (
      match Arith.constant_value o with
      | Some k -> B.insert0 c.b (Linalg.add_scalar ~a:dst ~out:dst ~scalar:(sign *. k))
      | None -> fallback ())
  | _ -> fallback ()

(** {1 Region conversion} *)

(** Receive-chunk region: compute the chunk value directly into the
    accumulator slice at the dynamic offset. *)
let bufferize_recv_region ~(fuse_fmac : bool) (apply : op) : unit =
  let blk = entry_block (Csl_stencil.recv_region apply) in
  let cfg = Csl_stencil.config_of apply in
  let n = List.length blk.bargs in
  let acc_arg = List.nth blk.bargs (n - 1) in
  let off_arg = List.nth blk.bargs (n - 2) in
  acc_arg.vtyp <- memref_of_tensor acc_arg.vtyp;
  let defs = def_map_of_block blk in
  let yield_op =
    match terminator blk with
    | Some t when t.opname = "csl_stencil.yield" -> t
    | _ -> fail "recv region: missing yield"
  in
  let b = B.create () in
  let c = { defs; b; buf_cache = Hashtbl.create 16; fuse_fmac } in
  (* rebuild an index computation (constants and adds over the offset
     block argument) into the new body *)
  let rec lower_index (v : value) : value =
    if v.vid = off_arg.vid then off_arg
    else
      match Hashtbl.find_opt defs v.vid with
      | Some o when Arith.is_constant o -> B.insert b (clone_op (Subst.create ()) o)
      | Some o when o.opname = "arith.addi" ->
          let x = lower_index (operand o 0) and y = lower_index (operand o 1) in
          B.insert b
            (create_op "arith.addi" ~operands:[ x; y ] ~results:[ Index ])
      | _ -> fail "recv region: unsupported slice offset"
  in
  (* the yield value is a chain of insert_slice ops ending at the
     accumulator argument: one per packed column, or a single one in
     reduce mode *)
  let rec collect_inserts (v : value) acc =
    if v.vid = acc_arg.vid then acc
    else
      match Hashtbl.find_opt defs v.vid with
      | Some o when o.opname = "tensor.insert_slice" ->
          collect_inserts (operand o 1) (o :: acc)
      | _ -> fail "recv region: expected insert_slice chain before yield"
  in
  let inserts = collect_inserts (List.hd yield_op.operands) [] in
  List.iter
    (fun insert_op ->
      let src = operand insert_op 0 in
      let off = lower_index (operand insert_op 2) in
      let dst =
        B.insert b (Memref.subview_dyn acc_arg ~offset:off ~size:cfg.chunk_size)
      in
      lower_into c dst src)
    inserts;
  B.insert0 b (Csl_stencil.yield [ acc_arg ]);
  blk.bops <- B.ops b

(** Done region: allocate the output column, copy the Dirichlet z-halo
    from the centre column, compute the interior in place. *)
let bufferize_done_region ~(fuse_fmac : bool) (apply : op) : unit =
  let blk = entry_block (Csl_stencil.done_region apply) in
  let cfg = Csl_stencil.config_of apply in
  let z_halo = int_attr_exn apply "z_halo" in
  let nz = int_attr_exn apply "z_interior" in
  let acc_arg = List.nth blk.bargs cfg.comm_count in
  acc_arg.vtyp <- memref_of_tensor acc_arg.vtyp;
  let defs = def_map_of_block blk in
  let yield_op =
    match terminator blk with
    | Some t when t.opname = "csl_stencil.yield" -> t
    | _ -> fail "done region: missing yield"
  in
  let inserts =
    List.map
      (fun rv ->
        match Hashtbl.find_opt defs rv.vid with
        | Some o when o.opname = "tensor.insert_slice" -> o
        | _ -> fail "done region: expected insert_slice before yield")
      yield_op.operands
  in
  let zfull = nz + (2 * z_halo) in
  let b = B.create () in
  let c = { defs; b; buf_cache = Hashtbl.create 16; fuse_fmac } in
  (* one output buffer per yielded column (multi-result applies come from
     stencil inlining's pass-through outputs) *)
  let outs =
    List.map
      (fun insert_op ->
        let interior_val = operand insert_op 0 in
        let center_val = operand insert_op 1 in
        let out = B.insert b (Memref.alloc ~shape:[ zfull ] ~hint:"out" ()) in
        let center = lower_buf c center_val in
        if z_halo > 0 then begin
          let lo_src = B.insert b (Memref.subview center ~offset:0 ~size:z_halo) in
          let lo_dst = B.insert b (Memref.subview out ~offset:0 ~size:z_halo) in
          B.insert0 b (Linalg.copy ~a:lo_src ~out:lo_dst);
          let hi_src =
            B.insert b (Memref.subview center ~offset:(z_halo + nz) ~size:z_halo)
          in
          let hi_dst =
            B.insert b (Memref.subview out ~offset:(z_halo + nz) ~size:z_halo)
          in
          B.insert0 b (Linalg.copy ~a:hi_src ~out:hi_dst)
        end;
        let dst_int = B.insert b (Memref.subview out ~offset:z_halo ~size:nz) in
        lower_into c dst_int interior_val;
        out)
      inserts
  in
  B.insert0 b (Csl_stencil.yield outs);
  blk.bops <- B.ops b

(** Replace the accumulator's [tensor.empty] init with a [memref.alloc]. *)
let bufferize_acc_init (root : op) (apply : op) : unit =
  let acc = Csl_stencil.acc_init apply in
  let subst = Subst.create () in
  rewrite_nested
    (fun o ->
      if o.opname = "tensor.empty" && (result o).vid = acc.vid then begin
        let nw = Memref.alloc ~shape:(shape_of acc.vtyp) ~hint:"acc" () in
        Subst.add subst ~from:acc ~to_:(result nw);
        Replace [ nw ]
      end
      else Keep)
    root;
  Subst.apply_op subst root

let run ~(fuse_fmac : bool) (m : op) : op =
  let applies = find_ops_by_name "csl_stencil.apply" m in
  List.iter
    (fun apply ->
      bufferize_recv_region ~fuse_fmac apply;
      bufferize_done_region ~fuse_fmac apply;
      bufferize_acc_init m apply;
      set_attr apply "bufferized" Unit_attr)
    applies;
  m

let pass ~(fuse_fmac : bool) =
  Wsc_ir.Pass.make "csl-stencil-bufferize" (run ~fuse_fmac)
