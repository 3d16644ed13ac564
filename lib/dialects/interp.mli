(** Sequential reference interpreter — the correctness oracle.  Executes
    modules built from the standard dialects with the mathematical
    single-address-space semantics the paper starts from.  Each function
    is staged once (every op resolved into a closure over frame slots)
    and then run; ops of downstream dialects are staged by an explicit
    {!ext} argument. *)

open Wsc_ir.Ir

type grid = { gbounds : (int * int) list; gelt : typ; gdata : float array }
(** A stencil grid: half-open bounds per dimension, flattened row-major
    data; a tensor element type folds its extent into the layout. *)

type rtvalue = Rfloat of float | Rint of int | Rgrid of grid | Rtensor of float array

exception Interp_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a

(** {1 Grids} *)

val tensor_extent : typ -> int
val make_grid : (int * int) list -> typ -> grid

(** @raise Interp_error when the type is not a stencil grid. *)
val grid_of_typ : typ -> grid

(** Flattened index of an absolute point.
    @raise Interp_error out of bounds. *)
val flat_index : grid -> int list -> int

(** [index_at g pt off] is the flattened index of the point [pt + off].
    @raise Interp_error out of bounds. *)
val index_at : grid -> int array -> int array -> int

(** Element (scalar or z-column copy) at a point. *)
val grid_get : grid -> int list -> rtvalue

val grid_set : grid -> int list -> rtvalue -> unit
val copy_grid : grid -> grid

(** Visit every point of the bounds in row-major order, writing it into
    the array (of the bounds' rank) before each call. *)
val iter_box : (int * int) list -> int array -> (unit -> unit) -> unit

(** Reinterpret a 3-D scalar grid as the 2-D grid of z-column tensors
    with the identical flattened layout.  The result shares the
    argument's data array, so a write through either shows in both. *)
val retensorize_grid : grid -> grid

(** {1 Values} *)

val as_grid : rtvalue -> grid
val as_tensor : rtvalue -> float array

(** Rank-polymorphic elementwise arithmetic; a tensor result is a fresh
    array. *)
val elementwise2 : Bufview.arith -> rtvalue -> rtvalue -> rtvalue

(** {1 Execution} *)

type frame
(** The value slots of one function call. *)

type scope
(** Staging state of one function: the slot of every SSA value staged so
    far and the point of the enclosing apply. *)

type ext = scope -> op -> (frame -> rtvalue list) option
(** Stager for ops outside the standard dialects: [Some run] computes the
    op's results, [None] leaves the op unsupported. *)

(** Reader of a staged value's slot.
    @raise Interp_error when the value is not in scope. *)
val read : scope -> value -> frame -> rtvalue

(** Give a value (typically a block argument) a slot; the result writes
    it. *)
val write : scope -> value -> frame -> rtvalue -> unit

(** Stage a nested block whose [stencil.access]/[csl_stencil.access] ops
    read at the given point array (written by the caller before each
    run); the result runs it and returns its terminator's operands. *)
val stage_block : scope -> point:int array -> block -> frame -> rtvalue list

(** Stage function [name] of a module, then run it on the given
    arguments.  [ext] defaults to the one set by {!set_default_ext}, if
    any. *)
val run_func : ?ext:ext -> op -> name:string -> rtvalue list -> rtvalue list

(** Set the stager [run_func] uses when called without [~ext]. *)
val set_default_ext : ext -> unit

(** {1 Test data} *)

(** Deterministic initialization value for a point. *)
val init_value : int list -> float

(** Fill a grid with {!init_value} of every point, a z-column element at
    [p] taking the values of the points [p @ [k]]. *)
val init_grid : grid -> unit

(** Point-wise maximum |difference|; infinite on size mismatch, NaN
    when any difference is NaN. *)
val max_abs_diff : grid -> grid -> float

(** {!max_abs_diff} over paired grid lists (0 for none); a 3-D scalar
    grid and its 2-D z-column tensor form compare by flattened data. *)
val max_abs_diff_list : grid list -> grid list -> float
