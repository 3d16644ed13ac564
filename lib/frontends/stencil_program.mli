(** Frontend-independent stencil program representation: every frontend
    lowers its surface syntax to this form, which then compiles to
    stencil-dialect IR — the common entry point of the pipeline
    (paper Figure 3). *)

(** Point-wise expression over grid accesses at constant offsets. *)
type expr =
  | Access of string * int list  (** grid name, per-dimension offset *)
  | Const of float
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type kernel = { kname : string; output : string; expr : expr }

type t = {
  pname : string;
  frontend : string;  (** which DSL produced this *)
  extents : int * int * int;  (** interior nx, ny, nz *)
  halo : int;  (** halo width (the stencil radius) *)
  state : string list;  (** grids carried across timesteps *)
  kernels : kernel list;  (** applied in order within one step *)
  next_state : string list;  (** per state slot: kernel output or state name *)
  iterations : int;
  use_loop : bool;  (** wrap steps in an [scf.for] (false: straight-line) *)
  dsl_loc : int;  (** DSL source lines, for the Table 1 comparison *)
}

(** {1 Expression utilities} *)

(** All accesses, in evaluation order, with duplicates. *)
val accesses : expr -> (string * int list) list

val fold_constants : expr -> expr

(** Grids read by a kernel, first-use order, deduplicated. *)
val kernel_inputs : kernel -> string list

(** Maximum |offset| over the whole program. *)
val program_radius : t -> int

val expr_flops : expr -> int

(** {1 Compilation to stencil IR} *)

val field_type : t -> Wsc_ir.Ir.typ

(** Compile to a module whose [main] function takes one field per state
    grid, runs the timestep loop (or straight-line kernels), and stores
    the final state back. *)
val compile : t -> Wsc_ir.Ir.op

(** Allocate and deterministically initialize fields, run [main] with the
    sequential interpreter, return the final (3-D scalar) grids. *)
val run_reference : t -> Wsc_dialects.Interp.grid list

(** Estimated size of {!run_reference}: [bytes] of the grids it holds at
    once (every state grid plus one output per kernel) and [point_ops],
    the apply-body ops it runs (one per distinct access and per flop of
    every kernel, at every interior point of every timestep). *)
type estimate = { bytes : int; point_ops : int }

val reference_estimate : t -> estimate

exception Reference_refused of string

(** @raise Reference_refused, with a message stating the estimate, when
    {!reference_estimate} exceeds [max_bytes] or 2e10 point-ops (under a
    minute at the measured 1.2-2.5 ns per op). *)
val check_reference : max_bytes:int -> t -> unit

(** Freshly initialized state grids (the same data {!run_reference}
    starts from), retensorized into the 2-D z-column layout that lowered
    programs and the fabric simulator take. *)
val init_grids : t -> Wsc_dialects.Interp.grid list

(** {1 Acceptance} *)

(** Max |difference| an execution may differ from the reference by. *)
val tolerance : float

(** [d < tolerance]: the one acceptance verdict.  False for NaN. *)
val within_tolerance : float -> bool
