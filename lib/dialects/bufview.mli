(** Buffer views: the element kernels of the sequential reference, the
    bufferized-IR evaluator and the fabric simulator's DSD execution.  A
    view aliases a (possibly strided) slice of a backing array — what a
    memref subview or a mem1d DSD denotes on a PE, or one strip of a
    reference grid's row, which the reference slides along the row by
    moving [off] and [len]. *)

type t = { data : float array; mutable off : int; mutable len : int; stride : int }

val of_array : float array -> t

(** @raise Invalid_argument when the view exceeds the backing array. *)
val make : float array -> off:int -> len:int -> ?stride:int -> unit -> t

(** Sub-view relative to [v]'s own indexing. *)
val sub : t -> off:int -> len:int -> t

val get : t -> int -> float
val set : t -> int -> float -> unit
val to_array : t -> float array

(** [repeat x len] — [len] copies of [x]: a view of stride 0 over a
    one-element array. *)
val repeat : float -> int -> t

(** {1 Kernels}

    [fill], [blit] and the arithmetic kernels below check every view
    once, then run without a per-element bounds check, in ascending
    element order.

    @raise Invalid_argument before writing anything when a view reaches
    outside its array (a view built by record update, not {!make}, can),
    or, for the kernels after [fill], when the lengths differ. *)

val fill : t -> float -> unit
val blit : src:t -> dst:t -> unit

(** The elementwise arithmetic of the DSD builtins and linalg ops. *)
type arith = Add | Sub | Mul | Div

(** [arith_into op a b dst] — [dst.(i) <- a.(i) op b.(i)]; operands may
    alias [dst] (accumulator reuse relies on it).  A scalar operand is a
    view of stride 0, such as {!repeat}. *)
val arith_into : arith -> t -> t -> t -> unit

(** [fmac_into a b s dst] — [dst.(i) <- a.(i) +. b.(i) *. s], the
    semantics of CSL's [@fmacs]. *)
val fmac_into : t -> t -> float -> t -> unit

(** [scaled_sum_into ~coeffs ~cols ~starts ~terms ~len dst] — the
    promoted-coefficient reduction into one receive buffer: for [z] in
    [\[0, len)], [dst.(z) <- ((0.0 +. k0 *. c0.(s0 + z)) +. k1 *. c1.(s1 + z)) +. ...]
    over the first [terms] entries of [coeffs], [cols] and [starts], in
    that order, and [dst.(z) <- 0.0] from [len] on (the whole of [dst]
    when [terms = 0]).  Bit-identical to filling [dst] with 0.0 and then
    accumulating one term after the other.  Columns may alias or overlap
    each other but not [dst].

    @raise Invalid_argument before writing anything when [terms] exceeds
    an array, [len] exceeds [dst], or a term's range leaves its column. *)
val scaled_sum_into :
  coeffs:float array ->
  cols:float array array ->
  starts:int array ->
  terms:int ->
  len:int ->
  float array ->
  unit
