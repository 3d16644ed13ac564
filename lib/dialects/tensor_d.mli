(** The [tensor] dialect subset: empty tensors, static slice extraction
    (a neighbour's sub-column) and dynamic slice insertion (packing a
    received chunk into the accumulator, paper Listing 4). *)

open Wsc_ir.Ir

val empty : shape:int list -> op

(** Static 1-D slice [offset, offset + size). *)
val extract_slice : value -> offset:int -> size:int -> op

(** Functional update of [dst] at a dynamic offset. *)
val insert_slice : src:value -> dst:value -> offset:value -> op
