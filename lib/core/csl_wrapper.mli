(** The [csl_wrapper] dialect (paper §4.2): packages program-wide
    parameters, the layout metaprogram region and the PE program region,
    mirroring CSL's staged compilation. *)

open Wsc_ir.Ir

type params = {
  width : int;
  height : int;
  z_dim : int;  (** elements per PE column, halo included *)
  pattern : int;  (** stencil radius + 1 *)
  num_chunks : int;
  chunk_size : int;
  program_name : string;
}

val params_attr : params -> attr
val params_of_attr : attr -> params

(** Region 0 controls layout across the WSE; region 1 holds the PE
    program. *)
val module_ : params:params -> layout:region -> program:region -> op

val is_module : op -> bool
val params_of : op -> params
val layout_region : op -> region
val program_region : op -> region
