(** Group 4 (paper §5.4): map to the actor execution model.  Converts
    the synchronous program — a timestep loop (or straight-line sequence)
    of [csl_stencil.apply] ops — into the asynchronous task graph of a
    [csl.module]: a communicate call plus chunk/done callback actors per
    apply, a loop-condition function, and an advance task rotating the
    grid buffer pointers.  Checks per-PE memory against the 48 kB
    budget. *)

exception Actor_error of string

(** The pointer global of state slot [i], through which the host loads
    the slot and the fabric's boundary columns stand in for its sends. *)
val state_ptr : int -> string

val pass : Wsc_ir.Pass.t
