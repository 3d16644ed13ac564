(** The [dmp] (distributed-memory parallelism) dialect: [dmp.swap] marks
    the halo exchanges a [stencil.apply] depends on, with a 2-D grid-slice
    strategy over the PE topology (paper §5.1, Listing 3). *)

open Wsc_ir.Ir

type direction = North | South | East | West

val direction_to_string : direction -> string

(** @raise Invalid_argument for unknown names. *)
val direction_of_string : string -> direction

val all_directions : direction list

(** The grid offset of the neighbour in a direction: North is (0, 1),
    East is (1, 0), on the PE grid and the wafer grid alike. *)
val vector : direction -> int * int

(** One halo exchange: receive [depth] cells from [dir], restricted in z
    to [z_lo, z_hi) — the needed-columns-only optimization (§6.1). *)
type swap_desc = { dir : direction; depth : int; z_lo : int; z_hi : int }

val swap_attr : swap_desc list -> attr
val swaps_of_attr : attr -> swap_desc list

(** Scalar elements received per exchange: Σ depth × (z_hi − z_lo). *)
val sum_volume : swap_desc list -> int

(** Exchange the halos of a grid over a [w × h] PE topology. *)
val swap : value -> topology:int * int -> swaps:swap_desc list -> op

(** The same exchange lifted to a [wx × wy] grid of *wafers*
    (strategy [wafer_grid_slice_2d]); emitted by the multiwafer
    decomposition.  [topology] / [swaps] / [exchange_volume] read both
    op forms. *)
val wafer_swap : value -> topology:int * int -> swaps:swap_desc list -> op

val topology : op -> int * int
val swaps : op -> swap_desc list

(** Scalar elements exchanged per PE per swap. *)
val exchange_volume : op -> int
