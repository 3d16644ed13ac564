(** The [arith] dialect: constants and elementwise arithmetic.

    Operations are rank-polymorphic: they accept scalars or tensors of
    scalars, matching MLIR's elementwise trait that the tensorize pass
    relies on (paper §5.1). *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

let constant_f ?(typ = F32) (v : float) : op =
  create_op "arith.constant" ~results:[ typ ] ~attrs:[ ("value", Float_attr v) ]

let constant_i ?(typ = I32) (v : int) : op =
  create_op "arith.constant" ~results:[ typ ] ~attrs:[ ("value", Int_attr v) ]

let constant_index (v : int) : op =
  create_op "arith.constant" ~results:[ Index ] ~attrs:[ ("value", Int_attr v) ]

(** Splat constant over a tensor shape (used after tensorization, where
    scalar coefficients become dense tensor constants). *)
let constant_dense ~(shape : int list) (v : float) : op =
  create_op "arith.constant"
    ~results:[ Tensor (shape, F32) ]
    ~attrs:[ ("value", Float_attr v); ("splat", Unit_attr) ]

let is_constant op = op.opname = "arith.constant"

let constant_value (op : op) : float option =
  if is_constant op then
    match attr op "value" with
    | Some (Float_attr f) -> Some f
    | Some (Int_attr i) -> Some (float_of_int i)
    | _ -> None
  else None

let binary name (a : value) (b : value) : op =
  create_op name ~operands:[ a; b ] ~results:[ a.vtyp ]

let addf a b = binary "arith.addf" a b
let subf a b = binary "arith.subf" a b
let mulf a b = binary "arith.mulf" a b
let divf a b = binary "arith.divf" a b
let addi a b = binary "arith.addi" a b

let cmpi ~(pred : string) (a : value) (b : value) : op =
  create_op "arith.cmpi" ~operands:[ a; b ] ~results:[ I1 ]
    ~attrs:[ ("predicate", String_attr pred) ]

let float_binops = [ "arith.addf"; "arith.subf"; "arith.mulf"; "arith.divf" ]

let () =
  List.iter
    (fun name ->
      Verifier.register name (fun op ->
          if List.length op.operands <> 2 then
            Verifier.fail "%s: expected 2 operands" name;
          let a = operand op 0 and b = operand op 1 in
          if a.vtyp <> b.vtyp then
            Verifier.fail "%s: operand types differ" name))
    float_binops;
  (* integer arithmetic may mix widths with index values (offsets coming
     from i16 task arguments are used as index computations) *)
  let int_typ = function I16 | I32 | I64 | Index -> true | _ -> false in
  List.iter
    (fun name ->
      Verifier.register name (fun op ->
          if List.length op.operands <> 2 then
            Verifier.fail "%s: expected 2 operands" name;
          List.iter
            (fun v ->
              if not (int_typ v.vtyp) then
                Verifier.fail "%s: operands must be integers" name)
            op.operands))
    [ "arith.addi"; "arith.subi"; "arith.muli" ]
