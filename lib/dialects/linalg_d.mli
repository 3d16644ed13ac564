(** The [linalg] dialect subset (paper §5.3): destination-passing-style
    elementwise kernels over memrefs, in one-to-one correspondence with
    CSL's DSD builtins (add→[@fadds], mul→[@fmuls], fmac→[@fmacs],
    copy→[@fmovs], …). *)

open Wsc_ir.Ir

val add : a:value -> b:value -> out:value -> op
val sub : a:value -> b:value -> out:value -> op
val mul : a:value -> b:value -> out:value -> op
val div : a:value -> b:value -> out:value -> op

(** [out := a * scalar] *)
val mul_scalar : a:value -> out:value -> scalar:float -> op

(** [out := a + scalar] *)
val add_scalar : a:value -> out:value -> scalar:float -> op

(** Fused multiply-accumulate: [out := a + b * scalar]. *)
val fmac : a:value -> b:value -> out:value -> scalar:float -> op

val copy : a:value -> out:value -> op
val fill : out:value -> value:float -> op

(** The destination memref (the last operand of every op here). *)
val dst : op -> value
