(** The [linalg] dialect subset: destination-passing-style elementwise
    kernels over memrefs (paper §5.3).

    Each op reads its input memrefs and writes the output memref passed as
    the last operand, matching CSL's DSD builtin calling convention so that
    the group-5 lowering is one-to-one:
    add→[@fadds], sub→[@fsubs], mul→[@fmuls], fmac→[@fmacs],
    copy→[@fmovs]. *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

let binary name ~(a : value) ~(b : value) ~(out : value) : op =
  create_op name ~operands:[ a; b; out ] ~results:[]

let add = binary "linalg.add"
let sub = binary "linalg.sub"
let mul = binary "linalg.mul"
let div = binary "linalg.div"

(** [out := a * scalar] *)
let mul_scalar ~(a : value) ~(out : value) ~(scalar : float) : op =
  create_op "linalg.mul_scalar" ~operands:[ a; out ]
    ~attrs:[ ("scalar", Float_attr scalar) ]
    ~results:[]

(** [out := a + scalar] *)
let add_scalar ~(a : value) ~(out : value) ~(scalar : float) : op =
  create_op "linalg.add_scalar" ~operands:[ a; out ]
    ~attrs:[ ("scalar", Float_attr scalar) ]
    ~results:[]

(** Fused multiply-accumulate: [out := a + b * scalar]. *)
let fmac ~(a : value) ~(b : value) ~(out : value) ~(scalar : float) : op =
  create_op "linalg.fmac" ~operands:[ a; b; out ]
    ~attrs:[ ("scalar", Float_attr scalar) ]
    ~results:[]

(** [out := a] *)
let copy ~(a : value) ~(out : value) : op =
  create_op "linalg.copy" ~operands:[ a; out ] ~results:[]

let fill ~(out : value) ~(value : float) : op =
  create_op "linalg.fill" ~operands:[ out ]
    ~attrs:[ ("value", Float_attr value) ]
    ~results:[]

let dps_ops =
  [
    "linalg.add"; "linalg.sub"; "linalg.mul"; "linalg.div"; "linalg.mul_scalar";
    "linalg.add_scalar"; "linalg.fmac"; "linalg.copy"; "linalg.fill";
  ]

(** The destination memref of a DPS op (the last non-attribute operand for
    all ops of this dialect). *)
let dst (op : op) : value = List.nth op.operands (List.length op.operands - 1)

let () =
  List.iter
    (fun name ->
      Verifier.register name (fun op ->
          if op.results <> [] then Verifier.fail "%s: DPS ops have no results" name;
          List.iter
            (fun v ->
              match v.vtyp with
              | Memref _ | Dsd _ -> ()
              | _ -> Verifier.fail "%s: operands must be memrefs or DSDs" name)
            op.operands))
    dps_ops
