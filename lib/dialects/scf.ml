(** The [scf] dialect: structured control flow (for / if / yield).

    The paper's benchmarks wrap stencil applies in a top-level [scf.for]
    timestep loop carrying the grids as [iter_args]; group-4 lowering
    converts it into the actor task graph. *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

(** [for_ ~lb ~ub ~step ~iter_args body]: [body] receives a builder, the
    induction variable, and the iteration-carried values; it must end by
    inserting an [scf.yield]. *)
let for_ ~(lb : value) ~(ub : value) ~(step : value) ~(iter_args : value list)
    (body : Wsc_ir.Builder.t -> value -> value list -> unit) : op =
  let arg_types = Index :: List.map (fun v -> v.vtyp) iter_args in
  let region =
    Wsc_ir.Builder.region_with_args arg_types (fun b args ->
        match args with
        | iv :: rest -> body b iv rest
        | [] -> assert false)
  in
  create_op "scf.for"
    ~operands:([ lb; ub; step ] @ iter_args)
    ~results:(List.map (fun v -> v.vtyp) iter_args)
    ~regions:[ region ]

let yield (vals : value list) : op =
  create_op "scf.yield" ~operands:vals ~results:[]

let if_ ~(cond : value) ~(results : typ list)
    (then_ : Wsc_ir.Builder.t -> unit) (else_ : Wsc_ir.Builder.t -> unit) : op =
  create_op "scf.if" ~operands:[ cond ] ~results
    ~regions:
      [ Wsc_ir.Builder.region_no_args then_; Wsc_ir.Builder.region_no_args else_ ]

(** Accessors for [scf.for]. *)
let for_bounds (op : op) : value * value * value =
  (operand op 0, operand op 1, operand op 2)

let for_iter_inits (op : op) : value list =
  match op.operands with _ :: _ :: _ :: rest -> rest | _ -> []

let for_body (op : op) : block = body_block op 0

let for_iter_args (op : op) : value list = List.tl (for_body op).bargs

(** Constant trip count when bounds are [arith.constant]-defined.  The
    defining ops are looked up from [scope]. *)
let const_of (scope : op) (v : value) : int option =
  let found = ref None in
  walk_op
    (fun o ->
      if Arith.is_constant o && List.exists (fun r -> r.vid = v.vid) o.results then
        found := Arith.constant_value o)
    scope;
  Option.map int_of_float !found

let trip_count (scope : op) (for_op : op) : int option =
  let lb, ub, step = for_bounds for_op in
  match (const_of scope lb, const_of scope ub, const_of scope step) with
  | Some l, Some u, Some s when s > 0 -> Some ((u - l + s - 1) / s)
  | _ -> None

let () =
  Verifier.register "scf.for" (fun op ->
      if List.length op.operands < 3 then Verifier.fail "scf.for: needs lb, ub, step";
      let n_iter = List.length op.operands - 3 in
      if List.length op.results <> n_iter then
        Verifier.fail "scf.for: %d iter_args but %d results" n_iter
          (List.length op.results);
      let b = for_body op in
      if List.length b.bargs <> n_iter + 1 then
        Verifier.fail "scf.for: body must take induction var + iter args");
  Verifier.register_terminator "scf.for" [ "scf.yield" ]
