(** The [stencil] dialect (Open Earth Compiler / xDSL flavour).

    A [stencil.apply] runs its body for every point of the output grid; the
    body reads neighbouring points through [stencil.access] at constant
    offsets and produces the point value through [stencil.return].  Types
    carry per-dimension half-open bounds (paper §3, Listing 2). *)

open Wsc_ir.Ir
module Verifier = Wsc_ir.Verifier

(** Encode a bounds list as a flat Dense_ints [lb0; ub0; lb1; ub1; ...]. *)
let bounds_attr (bounds : (int * int) list) : attr =
  Dense_ints (List.concat_map (fun (lb, ub) -> [ lb; ub ]) bounds)

let bounds_of_attr = function
  | Dense_ints flat ->
      let rec go = function
        | lb :: ub :: rest -> (lb, ub) :: go rest
        | [] -> []
        | _ -> invalid_arg "bounds attr: odd length"
      in
      go flat
  | _ -> invalid_arg "bounds attr: not dense ints"

(** [apply ~inputs ~result_type ?compute_bounds body]: create a
    [stencil.apply].  [body] receives a builder and block arguments
    mirroring [inputs].

    The result type carries the full (halo-extended) bounds so that grids
    flow unchanged through a timestep loop's [iter_args];
    [compute_bounds], when given, restricts the points the body is
    evaluated at (the grid interior).  Points outside keep the value of
    the first input — Dirichlet boundary semantics, matching what the
    paper's benchmarks do at the global domain edge. *)
let apply ?compute_bounds ~(inputs : value list) ~(result_type : typ)
    (body : Wsc_ir.Builder.t -> value list -> unit) : op =
  let region =
    Wsc_ir.Builder.region_with_args (List.map (fun v -> v.vtyp) inputs) body
  in
  let attrs =
    match compute_bounds with
    | Some b -> [ ("compute_bounds", bounds_attr b) ]
    | None -> []
  in
  create_op "stencil.apply" ~operands:inputs ~results:[ result_type ] ~attrs
    ~regions:[ region ] ~result_hints:[ "out" ]

let compute_bounds (apply_op : op) : (int * int) list =
  match attr apply_op "compute_bounds" with
  | Some a -> bounds_of_attr a
  | None -> bounds_of (result apply_op).vtyp

(** Access a neighbouring value at a constant [offset] from the current
    point.  The result is the grid's element type (a scalar before
    tensorization; a z-column tensor afterwards). *)
let access (temp : value) ~(offset : int list) : op =
  let result =
    match temp.vtyp with
    | Temp (_, e) | Field (_, e) -> e
    | t -> t
  in
  create_op "stencil.access" ~operands:[ temp ] ~results:[ result ]
    ~attrs:[ ("offset", Dense_ints offset) ]

let return_ (vals : value list) : op =
  create_op "stencil.return" ~operands:vals ~results:[]

let load (field : value) : op =
  let t =
    match field.vtyp with
    | Field (b, e) -> Temp (b, e)
    | _ -> invalid_arg "stencil.load: operand is not a field"
  in
  create_op "stencil.load" ~operands:[ field ] ~results:[ t ]

let store (temp : value) (field : value) : op =
  create_op "stencil.store" ~operands:[ temp; field ] ~results:[]

let is_apply op = op.opname = "stencil.apply"

let apply_body (op : op) : block = body_block op 0

(** Offsets of all accesses in an apply body. *)
let offsets (apply_op : op) : int list list =
  List.filter_map
    (fun o ->
      if o.opname = "stencil.access" then Some (dense_ints_exn o "offset") else None)
    (apply_body apply_op).bops

let () =
  Verifier.register "stencil.apply" (fun op ->
      let b = apply_body op in
      if List.length b.bargs <> List.length op.operands then
        Verifier.fail "stencil.apply: block args must mirror operands";
      List.iter2
        (fun arg input ->
          if arg.vtyp <> input.vtyp then
            Verifier.fail "stencil.apply: block arg type mismatch")
        b.bargs op.operands);
  Verifier.register_terminator "stencil.apply" [ "stencil.return" ];
  Verifier.register "stencil.access" (fun op ->
      let off = dense_ints_exn op "offset" in
      match (operand op 0).vtyp with
      | Temp (bounds, _) | Field (bounds, _) ->
          if List.length off <> List.length bounds then
            Verifier.fail "stencil.access: offset rank %d but grid rank %d"
              (List.length off) (List.length bounds)
      | _ -> Verifier.fail "stencil.access: operand must be a stencil grid")
