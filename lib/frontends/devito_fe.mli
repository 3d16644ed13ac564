(** Mini-Devito frontend: a symbolic finite-difference eDSL mirroring the
    Devito API surface the paper's benchmarks use — grids, time functions
    with a space order, derivative operators from standard
    central-difference coefficients, equations, operators. *)

exception Frontend_error of string

type grid
type fn
type sym
type eq

val grid : ?spacing:float -> shape:int * int * int -> string -> grid

(** [time_function ~time_order ~space_order ~grid name]:
    [time_order] 2 adds a backward time level ([u_prev]). *)
val time_function : ?time_order:int -> space_order:int -> grid:grid -> string -> fn

(** {1 Symbolic expressions} *)

val ( + ) : sym -> sym -> sym
val ( - ) : sym -> sym -> sym
val ( * ) : sym -> sym -> sym
val ( / ) : sym -> sym -> sym
val num : float -> sym

(** The function at the current time level. *)
val fn : fn -> sym

val forward : fn -> sym
val backward : fn -> sym

(** Sum of second derivatives over all three axes. *)
val laplace : sym -> sym
val dxx : sym -> sym

(** Central second-derivative coefficients (offset, coefficient) at unit
    spacing for accuracy order 2, 4 or 8.
    @raise Frontend_error for other orders. *)
val deriv2_coeffs : int -> (int * float) list

val eq : sym -> sym -> eq

(** Build the operator: every equation's left side must be
    [forward u] for some time function [u].
    @raise Frontend_error otherwise. *)
val operator :
  name:string -> iterations:int -> ?dsl_loc:int -> eq list -> Stencil_program.t
