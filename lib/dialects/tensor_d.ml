(** The [tensor] dialect subset used by the pipeline: empty tensors,
    slice extraction (reading a neighbour's sub-column) and slice
    insertion (packing a received chunk into the accumulator,
    paper Listing 4). *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

let empty ~(shape : int list) : op =
  create_op "tensor.empty" ~results:[ Tensor (shape, F32) ]

(** [extract_slice t ~offset ~size] — 1-D slice [offset, offset+size). *)
let extract_slice (t : value) ~(offset : int) ~(size : int) : op =
  let elt = elem_type t.vtyp in
  create_op "tensor.extract_slice" ~operands:[ t ]
    ~results:[ Tensor ([ size ], elt) ]
    ~attrs:[ ("offset", Int_attr offset); ("size", Int_attr size) ]

(** [insert_slice ~src ~dst ~offset] — functional update of [dst]. *)
let insert_slice ~(src : value) ~(dst : value) ~(offset : value) : op =
  create_op "tensor.insert_slice" ~operands:[ src; dst; offset ]
    ~results:[ dst.vtyp ]

let () =
  Verifier.register "tensor.extract_slice" (fun op ->
      let size = int_attr_exn op "size" in
      let offset = int_attr_exn op "offset" in
      match (operand op 0).vtyp with
      | Tensor ([ n ], _) ->
          if offset < 0 || offset + size > n then
            Verifier.fail "tensor.extract_slice: [%d, %d) out of tensor<%d>" offset
              (offset + size) n
      | _ -> ())
