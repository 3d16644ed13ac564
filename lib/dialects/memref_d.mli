(** The [memref] dialect subset: allocation, copies and 1-D subviews.
    After bufferization (group 3), grid data lives in memrefs that group
    5 lowers to DSD-addressed buffers. *)

open Wsc_ir.Ir

val alloc : shape:int list -> ?hint:string -> unit -> op

(** Static 1-D subview. *)
val subview : value -> offset:int -> size:int -> op

(** 1-D subview at a dynamic offset (chunk positions). *)
val subview_dyn : value -> offset:value -> size:int -> op
