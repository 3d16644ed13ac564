(** Core SSA intermediate representation.

    A compact re-implementation of the MLIR/xDSL concepts the paper's
    pipeline builds on: dynamically named operations carrying operands,
    results, attributes and nested regions, arranged into blocks with
    block arguments.  Dialects are modules of smart constructors and
    accessors over this generic representation (see [Wsc_dialects] and
    the csl dialects in [Wsc_core]). *)

(** {1 Types} *)

(** Element and aggregate types.  [Tensor] and [Memref] carry static
    shapes; [Temp] and [Field] are the stencil dialect's bounded grid
    types with half-open per-dimension bounds [[lb, ub)]; [Ptr], [Dsd],
    [Color] and [Struct] belong to the csl dialect. *)
type typ =
  | F16
  | F32
  | F64
  | I1
  | I16
  | I32
  | I64
  | Index
  | Tensor of int list * typ
  | Memref of int list * typ
  | Temp of (int * int) list * typ
  | Field of (int * int) list * typ
  | Function of typ list * typ list
  | Ptr of typ * ptr_kind
  | Dsd of dsd_kind
  | Color
  | Struct of string

and ptr_kind = Ptr_single | Ptr_many
and dsd_kind = Mem1d | Mem4d | Fabin | Fabout

(** {1 Attributes} *)

type attr =
  | Unit_attr
  | Bool_attr of bool
  | Int_attr of int
  | Float_attr of float
  | String_attr of string
  | Type_attr of typ
  | Array_attr of attr list
  | Dict_attr of (string * attr) list
  | Dense_ints of int list
  | Dense_floats of float list
  | Symbol_ref of string

(** {1 IR structure}

    Mutually recursive mutable records.  Ops live in plain lists inside
    blocks; rewrites build new lists rather than maintaining intrusive
    links. *)

type value = {
  vid : int;  (** unique id; substitutions key on it *)
  mutable vtyp : typ;
  mutable vhint : string option;  (** printer name hint *)
}

type op = {
  oid : int;
  mutable opname : string;  (** fully qualified, e.g. ["stencil.apply"] *)
  mutable operands : value list;
  mutable results : value list;
  mutable attrs : (string * attr) list;
  mutable regions : region list;
}

and block = {
  bid : int;
  mutable bargs : value list;
  mutable bops : op list;
}

and region = { rgid : int; mutable blocks : block list }

val new_value : ?hint:string -> typ -> value
val new_block : ?args:value list -> op list -> block
val new_region : block list -> region

(** Create an operation; result values are freshly allocated from the
    result types. *)
val create_op :
  ?operands:value list ->
  ?attrs:(string * attr) list ->
  ?regions:region list ->
  ?result_hints:string list ->
  string ->
  results:typ list ->
  op

(** {1 Attribute access} *)

val attr : op -> string -> attr option

(** @raise Invalid_argument when absent (all [_exn] accessors). *)
val attr_exn : op -> string -> attr

val int_attr : op -> string -> int option
val int_attr_exn : op -> string -> int
val float_attr_exn : op -> string -> float
val string_attr : op -> string -> string option
val string_attr_exn : op -> string -> string
val dense_ints_exn : op -> string -> int list
val set_attr : op -> string -> attr -> unit
val remove_attr : op -> string -> unit
val has_attr : op -> string -> bool

(** {1 Structural helpers} *)

(** First result.  @raise Failure on result-less ops. *)
val result : op -> value

val operand : op -> int -> value
val region : op -> int -> region
val entry_block : region -> block

(** Entry block of the op's [n]-th region. *)
val body_block : op -> int -> block

val terminator : block -> op option

(** {1 Type helpers} *)

(** Innermost scalar type. *)
val elem_type : typ -> typ

val shape_of : typ -> int list
val bounds_of : typ -> (int * int) list
val num_elements : typ -> int
val size_in_bytes : typ -> int
val rank : typ -> int

(** {1 Traversal} *)

(** Pre-order walk over an op and everything nested in its regions. *)
val walk_op : (op -> unit) -> op -> unit

val find_ops : (op -> bool) -> op -> op list
val find_op : (op -> bool) -> op -> op option
val find_op_by_name : string -> op -> op option
val find_ops_by_name : string -> op -> op list

(** {1 Value substitution}

    Rewrites thread an explicit substitution from old to new values;
    [resolve] chases chains. *)
module Subst : sig
  type t

  val create : unit -> t
  val resolve : t -> value -> value
  val add : t -> from:value -> to_:value -> unit

  (** Rewrite every operand under the op (nested included). *)
  val apply_op : t -> op -> unit
end

(** Deep-clone an op, remapping operands through the substitution and
    recording result/block-arg mappings into it. *)
val clone_op : Subst.t -> op -> op

(** {1 Block rewriting} *)

type rewrite = Keep | Erase | Replace of op list

(** Rewrite each op of the block (non-recursively); the caller records
    value substitutions for erased results and applies them over the
    enclosing scope. *)
val rewrite_block : (op -> rewrite) -> block -> unit

(** Recursively rewrite all blocks under the root, innermost first. *)
val rewrite_nested : (op -> rewrite) -> op -> unit

(** {1 Use counting and cleanup} *)

(** Map from value id to its use count under the root. *)
val use_counts : op -> (int, int) Hashtbl.t

(** Remove ops whose results are all unused and whose name [pure]
    declares side-effect free; returns how many were removed. *)
val dce : pure:(string -> bool) -> op -> int
