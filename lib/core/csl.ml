(** The [csl] dialect — csl-ir (paper §4.3).

    A direct re-implementation of the subset of the CSL programming
    language the pipeline targets: modules, comptime parameters, global
    buffers, functions, tasks, task activation, imported-module member
    calls, Data Structure Descriptors (DSDs) and the DSD arithmetic
    builtins.  The {!Csl_printer} emits CSL source from this dialect, and
    the fabric simulator in [wsc_wse] executes it directly. *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

(** {1 Modules} *)

type module_kind = Program | Layout

let module_kind_to_string = function Program -> "program" | Layout -> "layout"

let module_ ~(kind : module_kind) ~(name : string) (ops : op list) : op =
  create_op "csl.module" ~results:[]
    ~attrs:
      [
        ("kind", String_attr (module_kind_to_string kind));
        ("sym_name", String_attr name);
      ]
    ~regions:[ new_region [ new_block ops ] ]

let module_kind_of (op : op) : module_kind =
  match string_attr_exn op "kind" with
  | "program" -> Program
  | "layout" -> Layout
  | k -> invalid_arg ("csl.module: bad kind " ^ k)

let module_body (op : op) : op list = (entry_block (List.hd op.regions)).bops

(** {1 Imports and parameters} *)

let import_module ~(name : string) : op =
  create_op "csl.import_module" ~results:[ Struct name ]
    ~attrs:[ ("module", String_attr name) ]
    ~result_hints:[ String.map (fun c -> if c = '.' then '_' else c) name ]

(** {1 Globals} *)

(** Global buffer of [size] f32 elements, zero-initialized. *)
let global_buffer ~(name : string) ~(size : int) : op =
  create_op "csl.global_buffer" ~results:[]
    ~attrs:[ ("sym_name", String_attr name); ("type", Type_attr (Memref ([ size ], F32))) ]

(** Mutable global scalar. *)
let global_scalar ~(name : string) ~(typ : typ) ~(init : attr) : op =
  create_op "csl.global_scalar" ~results:[]
    ~attrs:[ ("sym_name", String_attr name); ("type", Type_attr typ); ("init", init) ]

(** Global pointer variable, initially pointing at buffer [target]. *)
let ptr_global ~(name : string) ~(target : string) ~(buf_type : typ) : op =
  create_op "csl.ptr_global" ~results:[]
    ~attrs:
      [
        ("sym_name", String_attr name);
        ("target", String_attr target);
        ("type", Type_attr (Ptr (buf_type, Ptr_many)));
      ]

let get_global ~(name : string) ~(typ : typ) : op =
  create_op "csl.get_global" ~results:[ typ ]
    ~attrs:[ ("gname", String_attr name) ]
    ~result_hints:[ name ]

let load_scalar ~(name : string) ~(typ : typ) : op =
  create_op "csl.load_scalar" ~results:[ typ ] ~attrs:[ ("gname", String_attr name) ]

let store_scalar ~(name : string) (v : value) : op =
  create_op "csl.store_scalar" ~operands:[ v ] ~results:[]
    ~attrs:[ ("gname", String_attr name) ]

(** Dereference a pointer global: yields the buffer it currently targets. *)
let deref_ptr ~(name : string) ~(typ : typ) : op =
  create_op "csl.deref_ptr" ~results:[ typ ]
    ~attrs:[ ("gname", String_attr name) ]
    ~result_hints:[ name ]

(** Parallel pointer assignment: [dests.(i) := old value of srcs.(i)] —
    the general buffer rotation at the end of a timestep (double and
    triple buffering are special cases). *)
let assign_ptrs ~(dests : string list) ~(srcs : string list) : op =
  if List.length dests <> List.length srcs then
    invalid_arg "csl.assign_ptrs: length mismatch";
  create_op "csl.assign_ptrs" ~results:[]
    ~attrs:
      [
        ("dests", Array_attr (List.map (fun s -> String_attr s) dests));
        ("srcs", Array_attr (List.map (fun s -> String_attr s) srcs));
      ]

let string_list_attr op name =
  match attr_exn op name with
  | Array_attr l ->
      List.map (function String_attr s -> s | _ -> invalid_arg "expected strings") l
  | _ -> invalid_arg "expected string array"

(** {1 Functions and tasks} *)

let func ~(name : string) ?(args = []) (body : Wsc_ir.Builder.t -> value list -> unit)
    : op =
  let region = Wsc_ir.Builder.region_with_args args body in
  create_op "csl.func" ~results:[]
    ~attrs:[ ("sym_name", String_attr name) ]
    ~regions:[ region ]

type task_kind = Local_task | Data_task | Control_task

let task_kind_to_string = function
  | Local_task -> "local"
  | Data_task -> "data"
  | Control_task -> "control"

let task_kind_of_string = function
  | "local" -> Local_task
  | "data" -> Data_task
  | "control" -> Control_task
  | s -> invalid_arg ("csl.task: bad kind " ^ s)

(** Task bound to hardware task id [id]. *)
let task ~(name : string) ~(kind : task_kind) ~(id : int)
    (body : Wsc_ir.Builder.t -> unit) : op =
  let region = Wsc_ir.Builder.region_no_args (fun b -> body b) in
  create_op "csl.task" ~results:[]
    ~attrs:
      [
        ("sym_name", String_attr name);
        ("kind", String_attr (task_kind_to_string kind));
        ("id", Int_attr id);
      ]
    ~regions:[ region ]

let call ~(callee : string) ?(args = []) ?(results = []) () : op =
  create_op "csl.call" ~operands:args ~results
    ~attrs:[ ("callee", Symbol_ref callee) ]

(** Activate a local task: it will run once the current task yields. *)
let activate ~(task : string) : op =
  create_op "csl.activate" ~results:[] ~attrs:[ ("task", Symbol_ref task) ]

let return_ () : op = create_op "csl.return" ~results:[]

(** Call a member function of an imported module value, e.g. the
    communication library. *)
let member_call ~(struct_ : value) ~(field : string) : op =
  create_op "csl.member_call" ~operands:[ struct_ ] ~results:[]
    ~attrs:[ ("field", String_attr field) ]

(** Signal the host that the device program has finished. *)
let unblock_cmd_stream () : op =
  create_op "csl.unblock_cmd_stream" ~results:[]

(** {1 DSDs} *)

(** 1-D memory DSD over [length] elements of [buf] starting at [offset]
    with [stride]. *)
let get_mem_dsd (buf : value) ~(offset : int) ~(length : int) ?(stride = 1) () : op =
  create_op "csl.get_mem_dsd" ~operands:[ buf ]
    ~results:[ Dsd Mem1d ]
    ~attrs:
      [ ("offset", Int_attr offset); ("length", Int_attr length); ("stride", Int_attr stride) ]

let increment_dsd_offset (dsd : value) ~(by : int) : op =
  create_op "csl.increment_dsd_offset" ~operands:[ dsd ]
    ~results:[ Dsd Mem1d ]
    ~attrs:[ ("by", Int_attr by) ]

(** Dynamic variant: offset comes from an SSA value (chunk callbacks). *)
let increment_dsd_offset_by (dsd : value) (by : value) : op =
  create_op "csl.increment_dsd_offset" ~operands:[ dsd; by ] ~results:[ Dsd Mem1d ]

let set_dsd_length (dsd : value) ~(length : int) : op =
  create_op "csl.set_dsd_length" ~operands:[ dsd ]
    ~results:[ Dsd Mem1d ]
    ~attrs:[ ("length", Int_attr length) ]

(** {1 DSD arithmetic builtins}

    DPS over DSD operands; sources may be DSDs or f32 scalar SSA values
    (CSL allows mixing).  [fmacs dest a b scale] computes
    [dest[i] = a[i] + b[i] * scale]. *)

let fadds ~(dest : value) (a : value) (b : value) : op =
  create_op "csl.fadds" ~operands:[ dest; a; b ] ~results:[]

let fsubs ~(dest : value) (a : value) (b : value) : op =
  create_op "csl.fsubs" ~operands:[ dest; a; b ] ~results:[]

let fmuls ~(dest : value) (a : value) (b : value) : op =
  create_op "csl.fmuls" ~operands:[ dest; a; b ] ~results:[]

let fmacs ~(dest : value) (a : value) (b : value) (scale : value) : op =
  create_op "csl.fmacs" ~operands:[ dest; a; b; scale ] ~results:[]

let fmovs ~(dest : value) (a : value) : op =
  create_op "csl.fmovs" ~operands:[ dest; a ] ~results:[]

let builtin_ops = [ "csl.fadds"; "csl.fsubs"; "csl.fmuls"; "csl.fmacs"; "csl.fmovs" ]

(** {1 Layout ops} *)

let set_rectangle ~(width : int) ~(height : int) : op =
  create_op "csl.set_rectangle" ~results:[]
    ~attrs:[ ("width", Int_attr width); ("height", Int_attr height) ]

(** Uniform placement: set_tile_code for every (x, y) of the rectangle —
    the layout loop nest collapsed to a single op (paper §4.2). *)
let place_pes ~(file : string) ~(params : (string * attr) list) : op =
  create_op "csl.place_pes" ~results:[]
    ~attrs:[ ("file", String_attr file); ("params", Dict_attr params) ]

(** Export a symbol to the host runtime. *)
let export ~(name : string) ~(kind : string) : op =
  create_op "csl.export" ~results:[]
    ~attrs:[ ("name", String_attr name); ("kind", String_attr kind) ]

(** {1 Verifiers} *)

let () =
  Verifier.register "csl.module" (fun op ->
      ignore (module_kind_of op);
      if List.length op.regions <> 1 then Verifier.fail "csl.module: one region");
  Verifier.register "csl.task" (fun op ->
      ignore (task_kind_of_string (string_attr_exn op "kind")));
  Verifier.register "csl.get_mem_dsd" (fun op ->
      if int_attr_exn op "length" < 0 then Verifier.fail "csl.get_mem_dsd: bad length");
  List.iter
    (fun name ->
      Verifier.register name (fun op ->
          match op.operands with
          | dest :: _ ->
              if dest.vtyp <> Dsd Mem1d then
                Verifier.fail "%s: destination must be a mem1d DSD" name
          | [] -> Verifier.fail "%s: missing operands" name))
    builtin_ops
