(** Evaluator for bufferized (memref + linalg) region bodies.

    Shared reference semantics between the post-group-3 interpreter hook
    and tests: values are buffer views, integers or grids; linalg ops
    mutate their destination views in place, exactly as DSD builtins do
    on a PE.  A block is staged once: every op is resolved into a closure
    over the slots of a cell array, the block arguments taking the
    first slots. *)

open Wsc_ir.Ir
module I = Wsc_dialects.Interp
module Bufview = Wsc_dialects.Bufview

type cell =
  | Vbuf of Bufview.t
  | Vint of int
  | Vfloat of float
  | Vgrid of I.grid

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type staged = {
  nargs : int;
  nslots : int;
  code : (cell array -> int array -> unit) array;
  yields : int array;
}

let as_buf = function Vbuf b -> b | _ -> fail "buf_eval: expected buffer"
let as_int = function Vint i -> i | _ -> fail "buf_eval: expected int"

(** View of the z-column stored at [point + offset] in a grid of tensors. *)
let grid_column_view (g : I.grid) (point : int array) (offset : int array) : Bufview.t =
  let z = I.tensor_extent g.I.gelt in
  Bufview.make g.I.gdata ~off:(I.index_at g point offset * z) ~len:z ()

let stage (blk : block) : staged =
  let slots = Hashtbl.create 32 and n = ref 0 in
  let def (v : value) =
    let s = !n in
    incr n;
    Hashtbl.replace slots v.vid s;
    s
  in
  let slot (v : value) =
    match Hashtbl.find_opt slots v.vid with
    | Some s -> s
    | None -> fail "buf_eval: unbound value %%%d" v.vid
  in
  List.iter (fun a -> ignore (def a)) blk.bargs;
  let nargs = !n and yields = ref [||] in
  let stage_op (o : op) : (cell array -> int array -> unit) option =
    let s i = slot (operand o i) in
    let linalg2 op =
      let a = s 0 and b = s 1 and d = s 2 in
      Some (fun c _ -> Bufview.arith_into op (as_buf c.(a)) (as_buf c.(b)) (as_buf c.(d)))
    in
    let linalg1 op =
      let a = s 0 and d = s 1 and k = float_attr_exn o "scalar" in
      Some
        (fun c _ ->
          let d = as_buf c.(d) in
          Bufview.arith_into op (as_buf c.(a)) (Bufview.repeat k d.len) d)
    in
    match o.opname with
    | "memref.alloc" ->
        let len = num_elements (result o).vtyp in
        let d = def (result o) in
        Some (fun c _ -> c.(d) <- Vbuf (Bufview.of_array (Array.make len 0.0)))
    | "memref.subview" ->
        let a = s 0 and off = int_attr_exn o "offset" and len = int_attr_exn o "size" in
        let d = def (result o) in
        Some (fun c _ -> c.(d) <- Vbuf (Bufview.sub (as_buf c.(a)) ~off ~len))
    | "memref.subview_dyn" ->
        let a = s 0 and b = s 1 and len = int_attr_exn o "size" in
        let d = def (result o) in
        Some (fun c _ -> c.(d) <- Vbuf (Bufview.sub (as_buf c.(a)) ~off:(as_int c.(b)) ~len))
    | "csl_stencil.access" ->
        let a = s 0 and off = Array.of_list (dense_ints_exn o "offset") in
        let d = def (result o) in
        Some
          (fun c point ->
            match c.(a) with
            | Vgrid g -> c.(d) <- Vbuf (grid_column_view g point off)
            | Vbuf b -> c.(d) <- Vbuf b
            | _ -> fail "csl_stencil.access: bad source")
    | "arith.constant" ->
        let v =
          match attr o "value" with
          | Some (Int_attr i) -> Vint i
          | Some (Float_attr f) -> Vfloat f
          | _ -> fail "buf_eval: bad constant"
        in
        let d = def (result o) in
        Some (fun c _ -> c.(d) <- v)
    | "arith.addi" ->
        let a = s 0 and b = s 1 in
        let d = def (result o) in
        Some (fun c _ -> c.(d) <- Vint (as_int c.(a) + as_int c.(b)))
    | "linalg.copy" ->
        let a = s 0 and d = s 1 in
        Some (fun c _ -> Bufview.blit ~src:(as_buf c.(a)) ~dst:(as_buf c.(d)))
    | "linalg.fill" ->
        let d = s 0 and x = float_attr_exn o "value" in
        Some (fun c _ -> Bufview.fill (as_buf c.(d)) x)
    | "linalg.add" -> linalg2 Bufview.Add
    | "linalg.sub" -> linalg2 Bufview.Sub
    | "linalg.mul" -> linalg2 Bufview.Mul
    | "linalg.div" -> linalg2 Bufview.Div
    | "linalg.mul_scalar" -> linalg1 Bufview.Mul
    | "linalg.add_scalar" -> linalg1 Bufview.Add
    | "linalg.fmac" ->
        let a = s 0 and b = s 1 and d = s 2 and k = float_attr_exn o "scalar" in
        Some (fun c _ -> Bufview.fmac_into (as_buf c.(a)) (as_buf c.(b)) k (as_buf c.(d)))
    | "csl_stencil.yield" ->
        yields := Array.of_list (List.map slot o.operands);
        None
    | name -> fail "buf_eval: unsupported op %s" name
  in
  let code = Array.of_list (List.filter_map stage_op blk.bops) in
  { nargs; nslots = !n; code; yields = !yields }

let run (st : staged) ~(point : int array) (args : cell array) : cell list =
  if Array.length args <> st.nargs then
    fail "buf_eval: %d arguments for %d block arguments" (Array.length args) st.nargs;
  let c = Array.make st.nslots (Vint 0) in
  Array.blit args 0 c 0 st.nargs;
  for i = 0 to Array.length st.code - 1 do
    st.code.(i) c point
  done;
  Array.fold_right (fun s acc -> c.(s) :: acc) st.yields []
