(** The [csl] dialect — csl-ir (paper §4.3): a direct re-implementation
    of the CSL subset the pipeline targets.  {!Csl_printer} emits CSL
    source from it; the fabric simulator executes it. *)

open Wsc_ir.Ir

(** {1 Modules} *)

type module_kind = Program | Layout

val module_ : kind:module_kind -> name:string -> op list -> op
val module_kind_of : op -> module_kind
val module_body : op -> op list

(** {1 Imports and parameters} *)

val import_module : name:string -> op

(** {1 Globals} *)

(** Zero-initialized global f32 buffer. *)
val global_buffer : name:string -> size:int -> op

val global_scalar : name:string -> typ:typ -> init:attr -> op

(** Pointer variable, initially targeting buffer [target]. *)
val ptr_global : name:string -> target:string -> buf_type:typ -> op

val get_global : name:string -> typ:typ -> op
val load_scalar : name:string -> typ:typ -> op
val store_scalar : name:string -> value -> op

(** The buffer a pointer global currently targets. *)
val deref_ptr : name:string -> typ:typ -> op

(** Parallel pointer assignment — the end-of-timestep buffer rotation
    (double and triple buffering are special cases).
    @raise Invalid_argument on length mismatch. *)
val assign_ptrs : dests:string list -> srcs:string list -> op

(** A string-array attribute of an op (dests/srcs of assign_ptrs). *)
val string_list_attr : op -> string -> string list

(** {1 Functions and tasks} *)

val func :
  name:string ->
  ?args:typ list ->
  (Wsc_ir.Builder.t -> value list -> unit) ->
  op

type task_kind = Local_task | Data_task | Control_task

(** Task bound to hardware task id [id]. *)
val task : name:string -> kind:task_kind -> id:int -> (Wsc_ir.Builder.t -> unit) -> op

val call : callee:string -> ?args:value list -> ?results:typ list -> unit -> op

(** Schedule a local task for activation. *)
val activate : task:string -> op

val return_ : unit -> op

(** Call a member of an imported module (e.g. the communication
    library). *)
val member_call : struct_:value -> field:string -> op

(** Signal the host that the device program has finished. *)
val unblock_cmd_stream : unit -> op

(** {1 DSDs} *)

val get_mem_dsd : value -> offset:int -> length:int -> ?stride:int -> unit -> op
val increment_dsd_offset : value -> by:int -> op

(** Offset from an SSA value (chunk callbacks). *)
val increment_dsd_offset_by : value -> value -> op

val set_dsd_length : value -> length:int -> op

(** {1 DSD arithmetic builtins}

    DPS over DSD operands; sources may also be f32 scalars.
    [fmacs dest a b scale] computes [dest[i] = a[i] + b[i] * scale]. *)

val fadds : dest:value -> value -> value -> op
val fsubs : dest:value -> value -> value -> op
val fmuls : dest:value -> value -> value -> op
val fmacs : dest:value -> value -> value -> value -> op
val fmovs : dest:value -> value -> op

(** {1 Layout ops} *)

val set_rectangle : width:int -> height:int -> op

(** The layout loop nest collapsed to one op: set_tile_code for every
    (x, y) of the rectangle (paper §4.2). *)
val place_pes : file:string -> params:(string * attr) list -> op

(** Export a symbol to the host runtime. *)
val export : name:string -> kind:string -> op
