(** The [csl_stencil] dialect (paper §4.1): makes the WSE-specific
    structure of a stencil explicit — what is fetched from neighbours and
    how the computation splits into chunk-wise processing of received
    data (region 0) versus computation on locally held data (region 1). *)

open Wsc_ir.Ir
module Dmp = Wsc_dialects.Dmp

(** Transitional op replacing [dmp.swap]; folded into the apply. *)
val prefetch :
  value -> topology:int * int -> swaps:Dmp.swap_desc list -> op

type apply_config = {
  topology : int * int;  (** PE grid extents *)
  swaps : Dmp.swap_desc list list;  (** per communicated input *)
  num_chunks : int;
  chunk_size : int;
  comm_count : int;  (** leading operands that are communicated grids *)
  coeffs : (int * int * int * float) list;
      (** promoted coefficients (input, dx, dy, c): the communication
          layer scales data arriving from PE offset (dx, dy) and reduces
          it into the per-direction staging buffer (§5.7); empty when
          promotion does not apply *)
}

(** Operands are [comm_inputs @ [acc] @ local_inputs]; region 0
    (receive-chunk) takes one received view per communicated input, the
    chunk offset and the accumulator; region 1 (done) takes the operand
    list.  Both end in [csl_stencil.yield]. *)
val apply :
  config:apply_config ->
  comm_inputs:value list ->
  acc:value ->
  local_inputs:value list ->
  result_types:typ list ->
  recv_region:region ->
  done_region:region ->
  op

val config_of : op -> apply_config
val acc_init : op -> value
val recv_region : op -> region
val done_region : op -> region

(** Same shape as [stencil.access]: reads the received view (region 0)
    or a local grid (region 1). *)
val access : value -> offset:int list -> result:typ -> op

val yield : value list -> op
