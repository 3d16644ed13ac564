(** Core SSA intermediate representation.

    A compact re-implementation of the MLIR/xDSL concepts the paper's
    pipeline is built on: dynamically named operations carrying operands,
    results, attributes and nested regions, arranged into blocks with block
    arguments.  Dialects are realized as modules providing smart
    constructors and accessors over this generic representation
    (see {!Wsc_dialects}). *)

(** {1 Types} *)

(** Element and aggregate types.  [Tensor] and [Memref] carry static shapes
    (the pipeline only ever produces static shapes).  [Temp] and [Field] are
    the stencil dialect's bounded grid types with half-open per-dimension
    bounds [\[lb, ub)].  [Ptr] and [Dsd] belong to the csl dialect. *)
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
  | Struct of string  (** opaque imported CSL module / struct type *)

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

    Values, operations, blocks and regions are mutually recursive mutable
    records.  Ops are stored as plain lists inside blocks; rewrites build
    new lists rather than maintaining intrusive linkage, which keeps the
    rewriting utilities simple and safe. *)

type value = {
  vid : int;
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

(* id wells are atomic so modules can be built/parsed concurrently on
   several domains (the compile service does exactly that); with plain
   refs a lost increment can hand two values in one module the same vid,
   which corrupts substitution maps, the verifier and the printer *)
let value_counter = Atomic.make 0
let op_counter = Atomic.make 0
let block_counter = Atomic.make 0
let region_counter = Atomic.make 0

let new_value ?hint typ =
  { vid = 1 + Atomic.fetch_and_add value_counter 1; vtyp = typ; vhint = hint }

let new_block ?(args = []) ops =
  { bid = 1 + Atomic.fetch_and_add block_counter 1; bargs = args; bops = ops }

let new_region blocks =
  { rgid = 1 + Atomic.fetch_and_add region_counter 1; blocks }

(** Create an operation.  Result values are freshly allocated from the
    given result types. *)
let create_op ?(operands = []) ?(attrs = []) ?(regions = []) ?(result_hints = [])
    name ~results =
  let mk i typ =
    let hint = List.nth_opt result_hints i in
    new_value ?hint typ
  in
  {
    oid = 1 + Atomic.fetch_and_add op_counter 1;
    opname = name;
    operands;
    results = List.mapi mk results;
    attrs;
    regions;
  }

(** {1 Attribute access} *)

let attr op name = List.assoc_opt name op.attrs

let attr_exn op name =
  match attr op name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "op %s: missing attribute %s" op.opname name)

let int_attr op name =
  match attr op name with Some (Int_attr i) -> Some i | _ -> None

let int_attr_exn op name =
  match attr_exn op name with
  | Int_attr i -> i
  | _ -> invalid_arg (Printf.sprintf "op %s: attribute %s is not an int" op.opname name)

let float_attr_exn op name =
  match attr_exn op name with
  | Float_attr f -> f
  | Int_attr i -> float_of_int i
  | _ -> invalid_arg (Printf.sprintf "op %s: attribute %s is not a float" op.opname name)

let string_attr op name =
  match attr op name with Some (String_attr s) -> Some s | _ -> None

let string_attr_exn op name =
  match attr_exn op name with
  | String_attr s -> s
  | Symbol_ref s -> s
  | _ -> invalid_arg (Printf.sprintf "op %s: attribute %s is not a string" op.opname name)

let dense_ints_exn op name =
  match attr_exn op name with
  | Dense_ints l -> l
  | Array_attr l ->
      List.map (function Int_attr i -> i | _ -> invalid_arg "dense_ints: not ints") l
  | _ -> invalid_arg (Printf.sprintf "op %s: attribute %s is not dense ints" op.opname name)

let set_attr op name a = op.attrs <- (name, a) :: List.remove_assoc name op.attrs
let remove_attr op name = op.attrs <- List.remove_assoc name op.attrs
let has_attr op name = List.mem_assoc name op.attrs

(** {1 Structural helpers} *)

let result op = List.hd op.results
let operand op n = List.nth op.operands n

let region op n = List.nth op.regions n
let entry_block r = List.hd r.blocks

(** Single-block region body of [op]'s [n]-th region. *)
let body_block op n = entry_block (region op n)

let terminator block =
  match List.rev block.bops with
  | last :: _ -> Some last
  | [] -> None

(** {1 Type helpers} *)

let rec elem_type = function
  | Tensor (_, e) | Memref (_, e) | Temp (_, e) | Field (_, e) -> elem_type e
  | t -> t

let shape_of = function
  | Tensor (s, _) | Memref (s, _) -> s
  | Temp (b, _) | Field (b, _) -> List.map (fun (lb, ub) -> ub - lb) b
  | _ -> []

let bounds_of = function
  | Temp (b, _) | Field (b, _) -> b
  | t -> List.map (fun d -> (0, d)) (shape_of t)

let num_elements t = List.fold_left ( * ) 1 (shape_of t)

let byte_width = function
  | F16 | I16 -> 2
  | F32 | I32 -> 4
  | F64 | I64 | Index -> 8
  | I1 -> 1
  | t ->
      ignore t;
      4

let size_in_bytes t = num_elements t * byte_width (elem_type t)

let rank t = List.length (shape_of t)

(** {1 Traversal} *)

(** Pre-order walk over [op] and every op nested in its regions. *)
let rec walk_op (f : op -> unit) (op : op) : unit =
  f op;
  List.iter (fun r -> List.iter (walk_block f) r.blocks) op.regions

and walk_block f b = List.iter (walk_op f) b.bops

let find_ops pred root =
  let acc = ref [] in
  walk_op (fun o -> if pred o then acc := o :: !acc) root;
  List.rev !acc

let find_op pred root =
  match find_ops pred root with [] -> None | o :: _ -> Some o

let find_op_by_name name root = find_op (fun o -> o.opname = name) root
let find_ops_by_name name root = find_ops (fun o -> o.opname = name) root

(** {1 Value substitution}

    Rewrites thread an explicit substitution from old values to new values;
    [resolve] chases chains so a -> b -> c resolves a to c. *)

module Subst = struct
  type t = (int, value) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec resolve (s : t) (v : value) : value =
    match Hashtbl.find_opt s v.vid with
    | Some v' when v'.vid <> v.vid -> resolve s v'
    | Some v' -> v'
    | None -> v

  let add (s : t) ~(from : value) ~(to_ : value) : unit =
    if from.vid <> to_.vid then Hashtbl.replace s from.vid to_

  let apply_op (s : t) (op : op) : unit =
    let rec go o =
      o.operands <- List.map (resolve s) o.operands;
      List.iter (fun r -> List.iter (fun b -> List.iter go b.bops) r.blocks) o.regions
    in
    go op
end

(** Deep-clone [op], remapping operand values through [subst] and recording
    result/blockarg mappings into [subst] so later clones see them. *)
let rec clone_op (subst : Subst.t) (op : op) : op =
  let regions = List.map (clone_region subst) op.regions in
  let cloned =
    create_op op.opname
      ~operands:(List.map (Subst.resolve subst) op.operands)
      ~attrs:op.attrs ~regions
      ~results:(List.map (fun v -> v.vtyp) op.results)
      ~result_hints:(List.map (fun v -> Option.value v.vhint ~default:"") op.results)
  in
  List.iter2 (fun old nw -> Subst.add subst ~from:old ~to_:nw) op.results cloned.results;
  cloned

and clone_region subst r = new_region (List.map (clone_block subst) r.blocks)

and clone_block subst b =
  let args = List.map (fun v -> new_value ?hint:v.vhint v.vtyp) b.bargs in
  List.iter2 (fun old nw -> Subst.add subst ~from:old ~to_:nw) b.bargs args;
  new_block ~args (List.map (clone_op subst) b.bops)

(** {1 Block rewriting} *)

type rewrite = Keep | Erase | Replace of op list

(** Rewrite each op in [block] (non-recursively) with [f].  [Replace ops]
    splices the replacement list in place; the caller is responsible for
    recording value substitutions for the erased op's results and then
    running {!Subst.apply_op} over the enclosing scope. *)
let rewrite_block (f : op -> rewrite) (block : block) : unit =
  let out =
    List.concat_map
      (fun o -> match f o with Keep -> [ o ] | Erase -> [] | Replace ops -> ops)
      block.bops
  in
  block.bops <- out

(** Recursively rewrite all blocks under [root] (including nested regions),
    innermost first. *)
let rec rewrite_nested (f : op -> rewrite) (root : op) : unit =
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          List.iter (rewrite_nested f) b.bops;
          rewrite_block f b)
        r.blocks)
    root.regions

(** {1 Use counting} *)

(** Map from value id to number of uses within [root] (nested included). *)
let use_counts (root : op) : (int, int) Hashtbl.t =
  let h = Hashtbl.create 256 in
  walk_op
    (fun o ->
      List.iter
        (fun v ->
          let c = Option.value (Hashtbl.find_opt h v.vid) ~default:0 in
          Hashtbl.replace h v.vid (c + 1))
        o.operands)
    root;
  h

(** Remove ops with no side effects whose results are all unused.
    [pure] decides side-effect freedom by op name. *)
let dce ~(pure : string -> bool) (root : op) : int =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let uses = use_counts root in
    let used v = Option.value (Hashtbl.find_opt uses v.vid) ~default:0 > 0 in
    let f o =
      if pure o.opname && o.results <> [] && not (List.exists used o.results) then (
        incr removed;
        changed := true;
        Erase)
      else Keep
    in
    rewrite_nested f root;
    (* also rewrite top-level block if root is a module-like op: handled by
       rewrite_nested already since it iterates root.regions *)
    ignore f
  done;
  !removed
