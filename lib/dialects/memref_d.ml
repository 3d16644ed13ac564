(** The [memref] dialect subset: allocation, copies and 1-D subviews.
    After bufferization (group 3) all grid data lives in memrefs that are
    later lowered to DSD-addressed buffers (group 5). *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

let alloc ~(shape : int list) ?(hint = "buf") () : op =
  create_op "memref.alloc" ~results:[ Memref (shape, F32) ] ~result_hints:[ hint ]

(** Static 1-D subview. *)
let subview (m : value) ~(offset : int) ~(size : int) : op =
  let elt = elem_type m.vtyp in
  create_op "memref.subview" ~operands:[ m ]
    ~results:[ Memref ([ size ], elt) ]
    ~attrs:[ ("offset", Int_attr offset); ("size", Int_attr size) ]

(** 1-D subview at a dynamic offset (chunk positions within the
    accumulator). *)
let subview_dyn (m : value) ~(offset : value) ~(size : int) : op =
  let elt = elem_type m.vtyp in
  create_op "memref.subview_dyn" ~operands:[ m; offset ]
    ~results:[ Memref ([ size ], elt) ]
    ~attrs:[ ("size", Int_attr size) ]

let () =
  Verifier.register "memref.copy" (fun op ->
      if List.length op.operands <> 2 then Verifier.fail "memref.copy: two operands")
