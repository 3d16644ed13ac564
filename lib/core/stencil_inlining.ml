(** Stencil inlining (paper §5.7).

    Merges consecutive [stencil.apply] ops into a single fused kernel,
    removing the synchronization (and on the WSE: the communication round)
    between them.  Accesses to the producer's result at offset [o] are
    replaced by a clone of the producer's body with all of its accesses
    shifted by [o] (redundant computation at the halo).  If the producer's
    result has uses other than the consumer, it is passed through as an
    additional result. *)

open Wsc_ir.Ir
module Stencil = Wsc_dialects.Stencil

(** Clone the producer's body with accesses shifted by [shift], mapping its
    block args through [arg_map]; append the cloned ops to [acc] and return
    the values the producer's [stencil.return] would yield. *)
let inline_producer_body (producer : op) (arg_map : Subst.t) (shift : int list) :
    op list * value list =
  let body = Stencil.apply_body producer in
  let subst = Subst.create () in
  (* producer body arg i corresponds to producer operand i, which maps to
     a fused-apply block arg through [arg_map] *)
  List.iter2
    (fun arg oper -> Subst.add subst ~from:arg ~to_:(Subst.resolve arg_map oper))
    body.bargs producer.operands;
  let cloned = List.map (clone_op subst) body.bops in
  let shifted =
    List.map
      (fun o ->
        if o.opname = "stencil.access" then begin
          let off = dense_ints_exn o "offset" in
          set_attr o "offset" (Dense_ints (List.map2 ( + ) off shift))
        end;
        o)
      cloned
  in
  match List.rev shifted with
  | ret :: rest when ret.opname = "stencil.return" ->
      (List.rev rest, ret.operands)
  | _ -> invalid_arg "stencil-inlining: producer body has no stencil.return"

(** Fuse [producer] into [consumer]; returns the fused op and a
    substitution for the pair's results. *)
let fuse (producer : op) (consumer : op) ~(passthrough : bool) : op * Subst.t =
  let prod_result = result producer in
  (* fused inputs: producer's inputs then consumer's inputs minus the
     producer result, deduplicated *)
  let fused_inputs =
    List.fold_left
      (fun acc v ->
        if v.vid = prod_result.vid || List.exists (fun u -> u.vid = v.vid) acc then acc
        else acc @ [ v ])
      [] (producer.operands @ consumer.operands)
  in
  let args = List.map (fun v -> new_value ?hint:v.vhint v.vtyp) fused_inputs in
  let arg_map = Subst.create () in
  List.iter2 (fun v a -> Subst.add arg_map ~from:v ~to_:a) fused_inputs args;
  let body = Wsc_ir.Builder.create () in
  (* rebuild the consumer body, inlining the producer at each access *)
  let consumer_body = Stencil.apply_body consumer in
  let subst = Subst.create () in
  List.iter2
    (fun carg coperand ->
      (* consumer block arg corresponding to the producer result is
         resolved per-access below; others map to fused args *)
      if coperand.vid <> prod_result.vid then
        Subst.add subst ~from:carg ~to_:(Subst.resolve arg_map coperand))
    consumer_body.bargs consumer.operands;
  let prod_args =
    List.filteri
      (fun i _ -> (List.nth consumer.operands i).vid = prod_result.vid)
      consumer_body.bargs
  in
  let is_prod_arg v = List.exists (fun a -> a.vid = v.vid) prod_args in
  let ret_vals = ref [] in
  List.iter
    (fun o ->
      if o.opname = "stencil.access" && is_prod_arg (operand o 0) then begin
        let shift = dense_ints_exn o "offset" in
        let ops, vals = inline_producer_body producer arg_map shift in
        List.iter (Wsc_ir.Builder.insert0 body) ops;
        match vals with
        | [ v ] -> Subst.add subst ~from:(result o) ~to_:v
        | _ -> invalid_arg "stencil-inlining: multi-result producer unsupported"
      end
      else if o.opname = "stencil.return" then ret_vals := o.operands
      else begin
        let cloned = clone_op subst o in
        Wsc_ir.Builder.insert0 body cloned
      end)
    consumer_body.bops;
  let ret_vals = List.map (Subst.resolve subst) !ret_vals in
  (* optional passthrough of the producer value at offset zero *)
  let pass_vals, pass_types =
    if passthrough then begin
      let zero_shift = List.map (fun _ -> 0) (bounds_of prod_result.vtyp) in
      let ops, vals = inline_producer_body producer arg_map zero_shift in
      List.iter (Wsc_ir.Builder.insert0 body) ops;
      (vals, [ prod_result.vtyp ])
    end
    else ([], [])
  in
  Wsc_ir.Builder.insert0 body (Stencil.return_ (ret_vals @ pass_vals));
  let block = new_block ~args (Wsc_ir.Builder.ops body) in
  let fused =
    create_op "stencil.apply" ~operands:fused_inputs
      ~attrs:consumer.attrs
      ~results:(List.map (fun r -> r.vtyp) consumer.results @ pass_types)
      ~regions:[ new_region [ block ] ]
  in
  let res_subst = Subst.create () in
  List.iteri
    (fun i r -> Subst.add res_subst ~from:r ~to_:(List.nth fused.results i))
    consumer.results;
  if passthrough then
    Subst.add res_subst ~from:prod_result
      ~to_:(List.nth fused.results (List.length consumer.results));
  (fused, res_subst)

(** Try one fusion step in [b]: find a producer apply whose result feeds a
    later apply in the same block. *)
let fuse_once_in_block (root : op) (b : block) : bool =
  let uses = use_counts root in
  let count v = Option.value (Hashtbl.find_opt uses v.vid) ~default:0 in
  let applies = List.filter Stencil.is_apply b.bops in
  let candidate =
    List.find_map
      (fun producer ->
        if List.length producer.results <> 1 then None
        else begin
          let r = result producer in
          let consumers =
            List.filter
              (fun o ->
                Stencil.is_apply o && o.oid <> producer.oid
                && List.exists (fun v -> v.vid = r.vid) o.operands)
              applies
          in
          match consumers with
          | [ consumer ] ->
              let uses_in_consumer =
                List.length (List.filter (fun v -> v.vid = r.vid) consumer.operands)
              in
              let passthrough = count r > uses_in_consumer in
              Some (producer, consumer, passthrough)
          | _ -> None
        end)
      applies
  in
  match candidate with
  | None -> false
  | Some (producer, consumer, passthrough) ->
      let fused, res_subst = fuse producer consumer ~passthrough in
      b.bops <-
        List.concat_map
          (fun o ->
            if o.oid = producer.oid then []
            else if o.oid = consumer.oid then [ fused ]
            else [ o ])
          b.bops;
      Subst.apply_op res_subst root;
      true

(** Fuse until no producer/consumer pair remains. *)
let run (m : op) : op =
  let changed = ref true in
  while !changed do
    changed := false;
    walk_op
      (fun o ->
        List.iter
          (fun r -> List.iter (fun b -> if fuse_once_in_block m b then changed := true) r.blocks)
          o.regions)
      m
  done;
  m

let pass = Wsc_ir.Pass.make "stencil-inlining" run
