(** csl-stencil-wrap (paper §5.2): package the program into a
    [csl_wrapper.module], extracting the program-wide parameters the
    staged CSL compilation needs in the layout metaprogram. *)

exception Wrap_error of string

val run : ?name:string -> Wsc_ir.Ir.op -> Wsc_ir.Ir.op
val pass : ?name:string -> unit -> Wsc_ir.Pass.t
