(** Varith optimization passes (paper §5.7).

    - [convert-arith-to-varith]: collapse chains of [arith.addf] /
      [arith.mulf] into variadic [varith.add] / [varith.mul], which keeps
      the additive structure of a stencil reduction explicit and easy to
      split between the remote-data and local-data regions.
    - [varith-fuse-repeated-operands]: replace [n] repeated additions of
      the same value by one multiplication by [n] (e.g. the Acoustic
      kernel, where three DSD additions become one multiplication). *)

open Wsc_ir.Ir
module Arith = Wsc_dialects.Arith
module Varith = Wsc_dialects.Varith

let def_map_of_block (b : block) : (int, op) Hashtbl.t =
  let h = Hashtbl.create 32 in
  List.iter (fun o -> List.iter (fun r -> Hashtbl.replace h r.vid o) o.results) b.bops;
  h

let pure_varith name = name = "varith.add" || name = "varith.mul"

(** {1 arith -> varith} *)

(** Within a block: addf/mulf trees whose intermediate results have a
    single use become variadic ops. *)
let to_varith_block (root : op) (b : block) : unit =
  let varith_name = function
    | "arith.addf" | "varith.add" -> Some "varith.add"
    | "arith.mulf" | "varith.mul" -> Some "varith.mul"
    | _ -> None
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let uses = use_counts root in
    let count v = Option.value (Hashtbl.find_opt uses v.vid) ~default:0 in
    let defs = def_map_of_block b in
    let subst = Subst.create () in
    (* first: binary arith -> varith *)
    rewrite_block
      (fun o ->
        match o.opname with
        | "arith.addf" | "arith.mulf" ->
            let name = Option.get (varith_name o.opname) in
            let nw = create_op name ~operands:o.operands ~results:[ (result o).vtyp ] in
            Subst.add subst ~from:(result o) ~to_:(result nw);
            changed := true;
            Replace [ nw ]
        | _ -> Keep)
      b;
    ignore defs;
    (* then: merge single-use varith operands of the same kind *)
    let defs = def_map_of_block b in
    rewrite_block
      (fun o ->
        if not (Varith.is_varith o) then Keep
        else begin
          let merged = ref false in
          let operands =
            List.concat_map
              (fun v ->
                match Hashtbl.find_opt defs v.vid with
                | Some d
                  when d.opname = o.opname && d.oid <> o.oid && count v = 1 ->
                    merged := true;
                    d.operands
                | _ -> [ v ])
              o.operands
          in
          if !merged then begin
            changed := true;
            let nw = create_op o.opname ~operands ~results:[ (result o).vtyp ] in
            Subst.add subst ~from:(result o) ~to_:(result nw);
            Replace [ nw ]
          end
          else Keep
        end)
      b;
    Subst.apply_op subst root;
    (* drop now-dead merged varith ops *)
    ignore (dce root ~pure:pure_varith)
  done

let to_varith (m : op) : op =
  walk_op
    (fun o ->
      if o.opname = "stencil.apply" || o.opname = "csl_stencil.apply" then
        List.iter (fun r -> List.iter (to_varith_block m) r.blocks) o.regions)
    m;
  ignore (dce m ~pure:pure_varith);
  m

let to_varith_pass = Wsc_ir.Pass.make "convert-arith-to-varith" to_varith

(** {1 varith-fuse-repeated-operands} *)

(** Count duplicate operands of a [varith.add]; [n >= 3] repeats of [v]
    become [n * v] (an [arith.mulf] by a splat constant), which the later
    fmac fusion folds into the surrounding computation. *)
let fuse_repeated_block (root : op) (b : block) : unit =
  let subst = Subst.create () in
  rewrite_block
    (fun o ->
      if o.opname <> "varith.add" then Keep
      else begin
        let groups = Hashtbl.create 8 in
        List.iter
          (fun v ->
            let c = Option.value (Hashtbl.find_opt groups v.vid) ~default:(v, 0) in
            Hashtbl.replace groups v.vid (v, snd c + 1))
          o.operands;
        let has_repeats = Hashtbl.fold (fun _ (_, c) acc -> acc || c >= 3) groups false in
        if not has_repeats then Keep
        else begin
          let new_ops = ref [] in
          let seen = Hashtbl.create 8 in
          let operands =
            List.concat_map
              (fun v ->
                let _, c = Hashtbl.find groups v.vid in
                if c < 3 then [ v ]
                else if Hashtbl.mem seen v.vid then []
                else begin
                  Hashtbl.replace seen v.vid ();
                  let shape = shape_of v.vtyp in
                  let cst =
                    if shape = [] then Arith.constant_f (float_of_int c)
                    else Arith.constant_dense ~shape (float_of_int c)
                  in
                  let mul = create_op "arith.mulf" ~operands:[ result cst; v ]
                      ~results:[ v.vtyp ] in
                  new_ops := !new_ops @ [ cst; mul ];
                  [ result mul ]
                end)
              o.operands
          in
          match operands with
          | [ single ] when !new_ops <> [] ->
              Subst.add subst ~from:(result o) ~to_:single;
              Replace !new_ops
          | _ ->
              let nw = create_op "varith.add" ~operands ~results:[ (result o).vtyp ] in
              Subst.add subst ~from:(result o) ~to_:(result nw);
              Replace (!new_ops @ [ nw ])
        end
      end)
    b;
  Subst.apply_op subst root

let fuse_repeated (m : op) : op =
  walk_op
    (fun o ->
      if o.opname = "stencil.apply" || o.opname = "csl_stencil.apply" then
        List.iter (fun r -> List.iter (fuse_repeated_block m) r.blocks) o.regions)
    m;
  m

let fuse_repeated_pass =
  Wsc_ir.Pass.make "varith-fuse-repeated-operands" fuse_repeated
