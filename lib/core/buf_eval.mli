(** Evaluator for bufferized (memref + linalg) region bodies: values are
    buffer views, integers or grids; DPS ops mutate their destination
    views in place, exactly as DSD builtins do on a PE.  Shared reference
    semantics between the post-group-3 interpreter hook and tests.  A
    block is staged once, then run per point and chunk. *)

open Wsc_ir.Ir

type cell =
  | Vbuf of Wsc_dialects.Bufview.t
  | Vint of int
  | Vfloat of float
  | Vgrid of Wsc_dialects.Interp.grid

exception Eval_error of string

type staged
(** A block resolved once: one slot per value, block arguments first. *)

(** @raise Eval_error on values not defined in the block or its
    arguments, and on unsupported ops. *)
val stage : block -> staged

(** Run a staged block on its argument cells; [point] is the PE whose
    grid columns [csl_stencil.access] reads.  Returns the yield operands'
    cells.
    @raise Eval_error on an argument count or cell kind mismatch. *)
val run : staged -> point:int array -> cell array -> cell list
