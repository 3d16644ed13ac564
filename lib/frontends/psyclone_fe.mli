(** Mini-PSyclone frontend: kernels declare metadata for each field
    argument (access mode and stencil shape), validated against the kernel
    body; an [invoke] schedules a kernel list over the mesh — the
    structure of the paper's UVKBE benchmark. *)

exception Frontend_error of string

type access = Gh_read | Gh_write

type stencil_shape =
  | Pointwise  (** only zero-offset accesses *)
  | Cross of int  (** star stencil of the given depth *)

type arg_meta = { field : string; access : access; shape : stencil_shape }

type kernel = {
  kname : string;
  meta : arg_meta list;
  body : Stencil_program.expr;
}

val kernel :
  name:string -> meta:arg_meta list -> body:Stencil_program.expr -> kernel

(** Validate a kernel body against its metadata: reads only declared
    [Gh_read] fields within their stencil shapes, exactly one [Gh_write]
    field, never read.
    @raise Frontend_error on violation. *)
val check_kernel : kernel -> unit

(** The PSy layer: schedule [kernels] in order.  [state] lists the
    persistent fields (default: every field read before being produced);
    [next_state] maps them to their post-step values.
    @raise Frontend_error if any kernel fails validation. *)
val invoke :
  name:string ->
  extents:int * int * int ->
  iterations:int ->
  ?use_loop:bool ->
  ?state:string list ->
  ?next_state:string list ->
  ?dsl_loc:int ->
  kernel list ->
  Stencil_program.t
