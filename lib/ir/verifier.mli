(** IR verifier: structural SSA checks plus a registry of per-op
    invariants that dialects populate at load time. *)

exception Verification_error of string

(** Raise a {!Verification_error} with a formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** Register an invariant for all ops with the given name. *)
val register : string -> (Ir.op -> unit) -> unit

(** Declare that every region block of the named op must end in one of
    the given terminator ops. *)
val register_terminator : string -> string list -> unit

(** Run only the registered per-op invariants. *)
val verify_registered : Ir.op -> unit

(** All checks; raises {!Verification_error} on the first failure.  The
    message of every per-op failure ends with the offending op's textual
    form, truncated to ~200 characters. *)
val verify : Ir.op -> unit

val verify_result : Ir.op -> (unit, string) result
