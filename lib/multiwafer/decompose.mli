(** Wafer-level decomposition: one stencil program and a wafer-grid
    shape [(wx, wy)] in, per-wafer subproblems and inter-wafer halo
    exchanges out.  The exchanges are the [dmp.swap] descriptors the
    [distribute-stencil] pass derives for the PE grid — direction,
    depth and the needed-columns-only z restriction (paper §6.1) —
    merged per direction and lifted to wafer granularity.  Directions
    mean the same at both levels: North is +y ({!Wsc_dialects.Dmp.vector}). *)

module P = Wsc_frontends.Stencil_program
module Dmp = Wsc_dialects.Dmp

exception Decompose_error of string

(** One wafer's share: interior rectangle [x0, x0+snx) × [y0, y0+sny)
    of the global interior, plus the halo exchanges it receives from
    its wafer-grid neighbours: a swap in direction [d] exists iff a
    wafer sits at [(wi, wj) + Dmp.vector d]. *)
type slice = {
  wi : int;  (** wafer-grid column *)
  wj : int;  (** wafer-grid row *)
  x0 : int;
  y0 : int;
  snx : int;
  sny : int;
  swaps : Dmp.swap_desc list;
}

type plan = {
  wafers : int * int;
  program : P.t;  (** the undecomposed global program *)
  slices : slice list;  (** row-major, length wx × wy *)
  swaps : Dmp.swap_desc list;
      (** an interior wafer's exchanges: one per direction the program
          reads from, the deepest of its [dmp.swap]s over the union of
          their z ranges *)
}

(** Why a program can or cannot be stepped one epoch at a time across
    wafers: no [dmp.swap] may exchange a kernel's output (remote reads
    target state grids), time must advance one iteration per step
    ([use_loop] or a single iteration), and [distribute-stencil] must
    accept the program. *)
val decomposable : P.t -> (unit, string) result

(** Balanced 1-D split of [extent] into [parts] contiguous ranges
    (start, width), widths differing by at most one. *)
val split : int -> int -> (int * int) list

(** @raise Decompose_error when the wafer grid does not fit or the
    program is not decomposable. *)
val plan : wafers:int * int -> P.t -> plan

(** The slice's subproblem: the same kernels on the slice interior,
    one timestep per BSP epoch.  Equal-extent slices produce equal
    programs — and therefore one compile-cache entry. *)
val subprogram : plan -> slice -> P.t

(** Scalars the slice receives per epoch over all its swaps. *)
val slice_exchange_scalars : slice -> int

(** Per-epoch received scalars summed over every wafer. *)
val exchange_scalars : plan -> int

(** The plan rendered as IR: a [wafer_plan] function whose state fields
    are marked with [dmp.wafer_swap] ops (wafer topology + the interior
    wafer's descriptors); round-trips through the printer/parser. *)
val plan_module : plan -> Wsc_ir.Ir.op
