(** Canonicalization: the greatest-common-denominator cleanups every
    MLIR-style pipeline runs between the interesting passes.

    - constant folding of float arithmetic with constant operands
      (including the algebraic identities x*1, x*0, x+0);
    - common-subexpression elimination of duplicate constants and of
      duplicate [stencil.access]/[tensor.extract_slice] ops (the frontends
      already CSE within one kernel, but stencil inlining re-materializes
      producer bodies per consumer access and leaves duplicates behind);
    - dead-code elimination of unused pure ops. *)

open Wsc_ir.Ir
module Arith = Wsc_dialects.Arith

let pure = function
  | "arith.constant" | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.cmpi"
  | "varith.add" | "varith.mul"
  | "stencil.access" | "csl_stencil.access"
  | "tensor.extract_slice" | "tensor.empty" ->
      true
  | _ -> false

(** Structural key for CSE: op name, attrs, operand ids.  Only pure,
    region-free ops participate. *)
let cse_key (o : op) : string option =
  if (not (pure o.opname)) || o.regions <> [] then None
  else
    Some
      (String.concat "|"
         (o.opname
          :: List.map (fun v -> string_of_int v.vid) o.operands
         @ List.map
             (fun (k, a) -> k ^ "=" ^ Wsc_ir.Printer.attr_to_string a)
             (List.sort compare o.attrs)))

let splat_shape (v : value) =
  match v.vtyp with Tensor (s, _) -> Some s | F32 -> Some [] | _ -> None

let mk_const shape (x : float) : op =
  match shape with
  | [] -> Arith.constant_f x
  | s -> Arith.constant_dense ~shape:s x

(** One folding / CSE sweep over a block; returns whether anything
    changed.  [consts] maps value ids to known constant values. *)
let sweep_block (root : op) (blk : block) : bool =
  let changed = ref false in
  let subst = Subst.create () in
  let consts : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let seen : (string, value) Hashtbl.t = Hashtbl.create 32 in
  rewrite_block
    (fun o ->
      o.operands <- List.map (Subst.resolve subst) o.operands;
      (* record constants *)
      (if Arith.is_constant o then
         match Arith.constant_value o with
         | Some x -> Hashtbl.replace consts (result o).vid x
         | None -> ());
      let const_of v = Hashtbl.find_opt consts v.vid in
      let fold =
        match (o.opname, o.operands) with
        | "arith.addf", [ a; b ] -> (
            match (const_of a, const_of b) with
            | Some x, Some y -> Some (`Const (x +. y))
            | Some 0.0, None -> Some (`Value b)
            | None, Some 0.0 -> Some (`Value a)
            | _ -> None)
        | "arith.subf", [ a; b ] -> (
            match (const_of a, const_of b) with
            | Some x, Some y -> Some (`Const (x -. y))
            | None, Some 0.0 -> Some (`Value a)
            | _ -> None)
        | "arith.mulf", [ a; b ] -> (
            match (const_of a, const_of b) with
            | Some x, Some y -> Some (`Const (x *. y))
            | Some 1.0, None -> Some (`Value b)
            | None, Some 1.0 -> Some (`Value a)
            | Some 0.0, None | None, Some 0.0 -> Some (`Const 0.0)
            | _ -> None)
        | "arith.divf", [ a; b ] -> (
            match (const_of a, const_of b) with
            | Some x, Some y when y <> 0.0 -> Some (`Const (x /. y))
            | None, Some 1.0 -> Some (`Value a)
            | _ -> None)
        | _ -> None
      in
      match fold with
      | Some (`Value v) ->
          changed := true;
          Subst.add subst ~from:(result o) ~to_:v;
          Erase
      | Some (`Const x) -> (
          match splat_shape (result o) with
          | Some shape ->
              changed := true;
              let c = mk_const shape x in
              Hashtbl.replace consts (result c).vid x;
              Subst.add subst ~from:(result o) ~to_:(result c);
              Replace [ c ]
          | None -> Keep)
      | None -> (
          (* CSE *)
          match cse_key o with
          | Some key -> (
              match Hashtbl.find_opt seen key with
              | Some earlier when earlier.vid <> (result o).vid ->
                  changed := true;
                  Subst.add subst ~from:(result o) ~to_:earlier;
                  Erase
              | _ ->
                  if o.results <> [] then Hashtbl.replace seen key (result o);
                  Keep)
          | None -> Keep))
    blk;
  Subst.apply_op subst root;
  !changed

let run (m : op) : op =
  let changed = ref true in
  while !changed do
    changed := false;
    walk_op
      (fun o ->
        List.iter
          (fun r ->
            List.iter (fun blk -> if sweep_block m blk then changed := true) r.blocks)
          o.regions)
      m;
    if dce ~pure m > 0 then changed := true
  done;
  m

let pass = Wsc_ir.Pass.make "canonicalize" run
