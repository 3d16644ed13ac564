(** Group 2 (paper §5.2): realize placement and communication.

    Replaces each [dmp.swap] + [stencil.apply] pair with a single
    [csl_stencil.apply] that makes chunked communication explicit:

    - the returned expression is decomposed into additive terms
      (coefficient × product-of-factors);
    - terms whose accesses are all remote form the receive-chunk region,
      reduced chunk-by-chunk into a z-sized accumulator (two-fold partial
      reduction, §4.1);
    - when every remote term is a plain coefficient × access, the
      coefficients are promoted into the communication layer ([coeffs]
      attr) so they apply to incoming data at zero overhead (§5.7), and
      reduction happens straight off the fabric without neighbour receive
      buffers;
    - the remaining terms form the done region, combined with the
      accumulator into the output column;
    - the chunk size is the largest divisor of the communicated z range
      whose receive buffers fit the communication memory budget. *)

open Wsc_ir.Ir
module Stencil = Wsc_dialects.Stencil
module Dmp = Wsc_dialects.Dmp
module Arith = Wsc_dialects.Arith
module Tensor = Wsc_dialects.Tensor_d
module B = Wsc_ir.Builder

exception Lowering_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lowering_error s)) fmt

type options = {
  comm_budget_bytes : int;  (** memory allowed for receive buffers per PE *)
  promote_coefficients : bool;  (** §5.7 coefficient promotion *)
  one_shot_reduction : bool;
      (** §5.7: when the same reduction applies across the whole stencil
          shape (always true once coefficients are promoted), the
          communication layer reduces all directions into a single
          staging buffer and the chunk callback performs one builtin call
          instead of one per direction *)
  num_chunks_override : int option;  (** ablation: force a chunk count *)
}

let default_options =
  {
    comm_budget_bytes = 16 * 1024;
    promote_coefficients = true;
    one_shot_reduction = true;
    num_chunks_override = None;
  }

(** {1 Term decomposition} *)

type term = { coeff : float; factors : value list }
(** A term of the additive decomposition: [coeff * Π factors]. *)

let def_map_of_block (b : block) : (int, op) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun o -> List.iter (fun r -> Hashtbl.replace h r.vid o) o.results) b.bops;
  h

let const_value (defs : (int, op) Hashtbl.t) (v : value) : float option =
  match Hashtbl.find_opt defs v.vid with
  | Some o when Arith.is_constant o -> Arith.constant_value o
  | _ -> None

let rec decompose defs (v : value) (sign : float) : term list =
  match const_value defs v with
  | Some c -> [ { coeff = sign *. c; factors = [] } ]
  | None -> (
      match Hashtbl.find_opt defs v.vid with
      | Some o -> (
          match o.opname with
          | "varith.add" ->
              List.concat_map (fun x -> decompose defs x sign) o.operands
          | "arith.addf" ->
              decompose defs (operand o 0) sign @ decompose defs (operand o 1) sign
          | "arith.subf" ->
              decompose defs (operand o 0) sign
              @ decompose defs (operand o 1) (-.sign)
          | "varith.mul" | "arith.mulf" ->
              let consts, rest =
                List.partition (fun x -> const_value defs x <> None) o.operands
              in
              let k =
                List.fold_left
                  (fun k x -> k *. Option.get (const_value defs x))
                  1.0 consts
              in
              (match rest with
              | [] -> [ { coeff = sign *. k; factors = [] } ]
              | [ x ] ->
                  List.map
                    (fun t -> { t with coeff = t.coeff *. k })
                    (decompose defs x sign)
              | xs -> [ { coeff = sign *. k; factors = xs } ])
          | _ -> [ { coeff = sign; factors = [ v ] } ])
      | None -> [ { coeff = sign; factors = [ v ] } ])

(** All (grid-arg value, xy-offset, z-slice-offset) accesses under the def
    tree of [v]. *)
let rec accesses_of defs (v : value) : (value * int list) list =
  match Hashtbl.find_opt defs v.vid with
  | None -> []
  | Some o -> (
      match o.opname with
      | "stencil.access" -> [ (operand o 0, dense_ints_exn o "offset") ]
      | _ -> List.concat_map (accesses_of defs) o.operands)

let term_accesses defs (t : term) : (value * int list) list =
  List.concat_map (accesses_of defs) t.factors

let is_remote_off = function x :: y :: _ -> x <> 0 || y <> 0 | _ -> false

type term_class = Remote | Local | Mixed | Constant

let classify defs (t : term) : term_class =
  match term_accesses defs t with
  | [] -> Constant
  | accs ->
      let remote = List.for_all (fun (_, off) -> is_remote_off off) accs in
      let local = List.for_all (fun (_, off) -> not (is_remote_off off)) accs in
      if remote then Remote else if local then Local else Mixed

(** {1 Chunk-size selection} *)

(** Receive-buffer bytes per PE for chunk size [cs]:
    with coefficient promotion incoming data reduces straight into the
    accumulator slice, needing one cs-sized staging buffer per direction;
    without it, each of the [depth] distance-columns per direction must be
    held. *)
let recv_bytes ~(promoted : bool) (swaps_by_input : Dmp.swap_desc list list) cs =
  List.fold_left
    (fun acc swaps ->
      acc
      + List.fold_left
          (fun a (s : Dmp.swap_desc) ->
            a + ((if promoted then 1 else s.depth) * cs * 4))
          0 swaps)
    0 swaps_by_input

let divisors_desc n =
  let rec go d acc = if d = 0 then acc else go (d - 1) (if n mod d = 0 then d :: acc else acc) in
  List.rev (go n [])

let feasible_chunk_counts ~(len : int) : int list =
  if len <= 0 then []
  else List.map (fun cs -> len / cs) (divisors_desc len)

(** Largest chunk size whose buffers fit, as (num_chunks, chunk_size).
    @raise Lowering_error when nothing fits or the override does not
    divide the range. *)
let choose_chunks (opts : options) ~(promoted : bool) ~(len : int)
    (swaps_by_input : Dmp.swap_desc list list) : int * int =
  match opts.num_chunks_override with
  | Some k ->
      if len mod k <> 0 then fail "num_chunks %d does not divide z range %d" k len;
      (k, len / k)
  | None -> (
      let fits cs = recv_bytes ~promoted swaps_by_input cs <= opts.comm_budget_bytes in
      match List.find_opt fits (divisors_desc len) with
      | Some cs -> (len / cs, cs)
      | None ->
          fail "communication buffers do not fit: %d bytes needed at chunk size 1"
            (recv_bytes ~promoted swaps_by_input 1))

(** {1 Tree rebuilding} *)

(** Rebuild the def tree of [v] inside a new region, mapping access leaves
    through [leaf].  [retype] adjusts tensor extents (chunk regions work on
    cs-sized tensors). *)
let rec rebuild defs (cache : (int, value) Hashtbl.t) (b : B.t)
    ~(leaf : op -> value option) ~(retype : typ -> typ) (v : value) : value =
  match Hashtbl.find_opt cache v.vid with
  | Some v' -> v'
  | None ->
      let result_v =
        match Hashtbl.find_opt defs v.vid with
        | None -> fail "cannot rebuild value defined outside the apply body"
        | Some o -> (
            match leaf o with
            | Some v' -> v'
            | None -> (
                match o.opname with
                | "arith.constant" ->
                    let c = clone_op (Subst.create ()) o in
                    (result c).vtyp <- retype (result c).vtyp;
                    B.insert b c
                | "tensor.extract_slice" ->
                    let src =
                      rebuild defs cache b ~leaf ~retype (operand o 0)
                    in
                    let c =
                      create_op "tensor.extract_slice" ~operands:[ src ]
                        ~results:[ retype (result o).vtyp ]
                        ~attrs:o.attrs
                    in
                    B.insert b c
                | name
                  when name = "arith.addf" || name = "arith.subf"
                       || name = "arith.mulf" || name = "arith.divf"
                       || name = "varith.add" || name = "varith.mul" ->
                    let ops' =
                      List.map (rebuild defs cache b ~leaf ~retype) o.operands
                    in
                    let c =
                      create_op name ~operands:ops'
                        ~results:[ retype (result o).vtyp ]
                    in
                    B.insert b c
                | name -> fail "cannot rebuild op %s into a csl_stencil region" name))
      in
      Hashtbl.replace cache v.vid result_v;
      result_v

(** {1 The conversion} *)

(** Slice info of a value: Some (grid, dx, dy, zoff) when the value is
    extract_slice(access(grid, [dx, dy])) with slice offset z_halo+zoff. *)
let slice_info defs ~z_halo (v : value) : (value * int * int * int) option =
  match Hashtbl.find_opt defs v.vid with
  | Some o when o.opname = "tensor.extract_slice" -> (
      match Hashtbl.find_opt defs (operand o 0).vid with
      | Some a when a.opname = "stencil.access" -> (
          match dense_ints_exn a "offset" with
          | [ dx; dy ] ->
              Some (operand a 0, dx, dy, int_attr_exn o "offset" - z_halo)
          | _ -> None)
      | _ -> None)
  | _ -> None

let convert_apply (opts : options) (root : op) (blk : block) (apply : op)
    (swaps : op list) : op list =
  let z_halo = int_attr_exn apply "z_halo" in
  let nz = int_attr_exn apply "z_interior" in
  let body = Stencil.apply_body apply in
  let defs = def_map_of_block body in
  (* operands that are swap results are the communicated inputs *)
  let swap_of (v : value) =
    List.find_opt (fun s -> (result s).vid = v.vid) swaps
  in
  let comm_operands, local_operands =
    List.partition (fun v -> swap_of v <> None) apply.operands
  in
  (* an apply with no remote dependencies (e.g. the second UVKBE kernel
     when stencil inlining is off) still lowers through the same op, as a
     degenerate exchange with no directions: the communication layer
     invokes the callbacks immediately *)
  let local_only = comm_operands = [] in
  let comm_operands, local_operands =
    if local_only then ([ List.hd apply.operands ], List.tl apply.operands)
    else (comm_operands, local_operands)
  in
  let comm_swaps = List.filter_map swap_of comm_operands in
  let topology =
    match comm_swaps with
    | s :: _ -> Dmp.topology s
    | [] -> (
        match Stencil.bounds_of_attr (attr_exn apply "compute_bounds") with
        | [ (lx, ux); (ly, uy) ] -> (ux - lx, uy - ly)
        | _ -> fail "local apply without 2-D compute bounds")
  in
  let swaps_by_input =
    if local_only then [ [] ] else List.map Dmp.swaps comm_swaps
  in
  (* communicated z range: union over inputs; all benchmarks use [0, nz) *)
  let z_lo, z_hi =
    List.fold_left
      (fun (lo, hi) swaps ->
        List.fold_left
          (fun (lo, hi) (s : Dmp.swap_desc) -> (min lo s.z_lo, max hi s.z_hi))
          (lo, hi) swaps)
      (0, nz) swaps_by_input
  in
  if z_lo <> 0 || z_hi <> nz then
    fail "communicated z range [%d, %d) does not match the interior [0, %d)" z_lo
      z_hi nz;
  let len = z_hi - z_lo in
  (* decompose the returned interior value *)
  let ret =
    match Wsc_ir.Ir.terminator body with
    | Some t when t.opname = "stencil.return" -> t
    | _ -> fail "apply body has no stencil.return"
  in
  let interior_vals =
    List.map
      (fun rv ->
        match Hashtbl.find_opt defs rv.vid with
        | Some o when o.opname = "tensor.insert_slice" -> operand o 0
        | _ -> fail "apply body does not end in the tensorized insert_slice form")
      ret.operands
  in
  let terms = List.concat_map (fun v -> decompose defs v 1.0) interior_vals in
  let remote_terms, rest =
    List.partition (fun t -> classify defs t = Remote) terms
  in
  (* terms mixing remote and local accesses cannot be reduced on arrival;
     they force pack mode: region 0 stores raw received columns into a
     larger accumulator and region 1 computes everything (§4.1's base
     behaviour, without the reduction optimization).  Multiple results
     (stencil inlining's pass-through outputs) also route through pack
     mode: the reduction optimization targets the single-output shape. *)
  let has_mixed = List.exists (fun t -> classify defs t = Mixed) rest in
  let pack_mode = has_mixed || List.length apply.results > 1 in
  if remote_terms = [] && not (local_only || has_mixed) then
    fail "apply has remote dependencies but no remote terms";
  if (remote_terms <> [] || has_mixed) && local_only then
    fail "apply reads remote data but no halo exchange precedes it";
  (* remote accesses must read the plain z interior (z offset 0) *)
  List.iter
    (fun t ->
      List.iter
        (fun (_, off) ->
          match off with
          | [ _; _ ] -> ()
          | _ -> fail "remote access with unexpected rank")
        (term_accesses defs t))
    remote_terms;
  (* body block args correspond to apply.operands; map arg -> operand *)
  let arg_operand =
    List.map2 (fun arg oper -> (arg.vid, oper)) body.bargs apply.operands
  in
  let operand_of_arg (v : value) =
    match List.assoc_opt v.vid arg_operand with
    | Some o -> o
    | None -> fail "access source is not a block argument"
  in
  (* map: comm grid operand vid -> index among comm inputs *)
  let comm_index v =
    let rec go i = function
      | [] -> fail "access to a grid that is not an apply operand"
      | x :: rest -> if x.vid = v.vid then i else go (i + 1) rest
    in
    go 0 comm_operands
  in
  (* promotion: every remote term is coeff x single-slice-of-access at z 0 *)
  let promoted_coeffs =
    if pack_mode || not opts.promote_coefficients then None
    else
      let rec collect acc = function
        | [] -> Some (List.rev acc)
        | t :: rest -> (
            match t.factors with
            | [ f ] -> (
                match slice_info defs ~z_halo f with
                | Some (g, dx, dy, 0) ->
                    let i = comm_index (operand_of_arg g) in
                    collect ((i, dx, dy, t.coeff) :: acc) rest
                | _ -> None)
            | _ -> None)
      in
      (* several terms may hit the same neighbour offset: their
         coefficients merge into one (the communication layer applies a
         single multiplier per incoming column) *)
      Option.map
        (fun coeffs ->
          List.fold_left
            (fun merged (i, dx, dy, c) ->
              match
                List.partition (fun (i', x, y, _) -> i' = i && x = dx && y = dy) merged
              with
              | [ (_, _, _, c0) ], rest -> rest @ [ (i, dx, dy, c0 +. c) ]
              | _ -> merged @ [ (i, dx, dy, c) ])
            [] coeffs)
        (collect [] remote_terms)
  in
  let promoted = promoted_coeffs <> None in
  let num_chunks, chunk_size = choose_chunks opts ~promoted ~len swaps_by_input in
  (* pattern radius over all comm inputs *)
  let radius =
    List.fold_left
      (fun r swaps ->
        List.fold_left (fun r (s : Dmp.swap_desc) -> max r s.depth) r swaps)
      1 swaps_by_input
  in
  (* pack mode: every received distance-column gets a slot of the (larger)
     accumulator; reduce mode: one z-range accumulator *)
  let slots =
    List.concat
      (List.mapi
         (fun i swaps ->
           List.concat_map
             (fun (sw : Dmp.swap_desc) ->
               let vx, vy = Dmp.vector sw.dir in
               List.init sw.depth (fun k -> (i, vx * (k + 1), vy * (k + 1))))
             swaps)
         swaps_by_input)
  in
  let slot_of i dx dy =
    let rec go n = function
      | [] -> fail "no receive slot for offset (%d, %d) of input %d" dx dy i
      | (i', x, y) :: rest -> if i' = i && x = dx && y = dy then n else go (n + 1) rest
    in
    go 0 slots
  in
  let acc_len = if pack_mode then List.length slots * len else len in
  let chunk_tensor = Tensor ([ chunk_size ], F32) in
  let rcv_typ = Temp ([ (-radius, radius + 1); (-radius, radius + 1) ], chunk_tensor) in
  let acc_typ = Tensor ([ acc_len ], F32) in
  (* ---- receive-chunk region ---- *)
  let recv_region =
    if pack_mode then begin
      (* pack: copy every received distance-column into its slot *)
      let rcv_args = List.map (fun _ -> new_value ~hint:"rcv" rcv_typ) comm_operands in
      let off_arg = new_value ~hint:"offset" Index in
      let acc_arg = new_value ~hint:"acc" acc_typ in
      let b = B.create () in
      let acc_final =
        List.fold_left
          (fun acc (i, dx, dy) ->
            let v =
              B.insert b
                (Csl_stencil.access (List.nth rcv_args i) ~offset:[ dx; dy ]
                   ~result:chunk_tensor)
            in
            let base =
              B.insert b (Arith.constant_index (slot_of i dx dy * len))
            in
            let off' =
              B.insert b
                (create_op "arith.addi" ~operands:[ base; off_arg ]
                   ~results:[ Index ])
            in
            B.insert b (Tensor.insert_slice ~src:v ~dst:acc ~offset:off'))
          acc_arg slots
      in
      B.insert0 b (Csl_stencil.yield [ acc_final ]);
      new_region [ new_block ~args:(rcv_args @ [ off_arg; acc_arg ]) (B.ops b) ]
    end
    else
    let rcv_args = List.map (fun _ -> new_value ~hint:"rcv" rcv_typ) comm_operands in
    let off_arg = new_value ~hint:"offset" Index in
    let acc_arg = new_value ~hint:"acc" acc_typ in
    let b = B.create () in
    if remote_terms = [] then begin
      (* degenerate local-only apply: nothing arrives, nothing to reduce *)
      B.insert0 b (Csl_stencil.yield [ acc_arg ]);
      new_region [ new_block ~args:(rcv_args @ [ off_arg; acc_arg ]) (B.ops b) ]
    end
    else begin
    let chunk_val =
      match promoted_coeffs with
      | Some coeffs when opts.one_shot_reduction ->
          (* one-shot reduction (Â§5.7): the communication layer reduces
             every direction into one staging buffer per input, read at
             the zero offset; a single builtin consumes it *)
          let inputs_with_data =
            List.sort_uniq compare (List.map (fun (i, _, _, _) -> i) coeffs)
          in
          let vals =
            List.map
              (fun i ->
                B.insert b
                  (Csl_stencil.access (List.nth rcv_args i) ~offset:[ 0; 0 ]
                     ~result:chunk_tensor))
              inputs_with_data
          in
          (match vals with
          | [ v ] -> v
          | vs -> B.insert b (Wsc_dialects.Varith.add vs))
      | Some coeffs ->
          (* the communication layer pre-scales incoming data and reduces
             it per direction; the region adds one staging buffer per
             (input, direction), addressed by the unit offset *)
          let dirs =
            List.sort_uniq compare
              (List.map
                 (fun (i, dx, dy, _) -> (i, compare dx 0, compare dy 0))
                 coeffs)
          in
          let vals =
            List.map
              (fun (i, sx, sy) ->
                B.insert b
                  (Csl_stencil.access (List.nth rcv_args i) ~offset:[ sx; sy ]
                     ~result:chunk_tensor))
              dirs
          in
          (match vals with
          | [ v ] -> v
          | vs -> B.insert b (Wsc_dialects.Varith.add vs))
      | None ->
          (* rebuild each remote term on chunk-sized tensors *)
          let cache = Hashtbl.create 16 in
          let retype = function
            | Tensor (_, e) -> Tensor ([ chunk_size ], e)
            | t -> t
          in
          let leaf (o : op) =
            if o.opname = "tensor.extract_slice" then
              match slice_info defs ~z_halo (result o) with
              | Some (g, dx, dy, 0) when dx <> 0 || dy <> 0 ->
                  let idx = comm_index (operand_of_arg g) in
                  Some
                    (B.insert b
                       (Csl_stencil.access (List.nth rcv_args idx)
                          ~offset:[ dx; dy ] ~result:chunk_tensor))
              | Some (_, dx, dy, zo) when (dx <> 0 || dy <> 0) && zo <> 0 ->
                  fail "remote access at non-zero z offset unsupported"
              | _ -> None
            else None
          in
          let term_vals =
            List.map
              (fun t ->
                let fs =
                  List.map (rebuild defs cache b ~leaf ~retype) t.factors
                in
                let prod =
                  match fs with
                  | [] -> fail "constant remote term"
                  | [ f ] -> f
                  | fs -> B.insert b (Wsc_dialects.Varith.mul fs)
                in
                if t.coeff = 1.0 then prod
                else begin
                  let c =
                    B.insert b (Arith.constant_dense ~shape:[ chunk_size ] t.coeff)
                  in
                  B.insert b (Arith.mulf c prod)
                end)
              remote_terms
          in
          (match term_vals with
          | [ v ] -> v
          | vs -> B.insert b (Wsc_dialects.Varith.add vs))
    in
    let acc' =
      B.insert b (Tensor.insert_slice ~src:chunk_val ~dst:acc_arg ~offset:off_arg)
    in
    B.insert0 b (Csl_stencil.yield [ acc' ]);
    new_region [ new_block ~args:(rcv_args @ [ off_arg; acc_arg ]) (B.ops b) ]
    end
  in
  (* ---- done region: args mirror the new operand list
     (comm..., acc, local...) ---- *)
  let done_region =
    let comm_args = List.map (fun v -> new_value ?hint:v.vhint v.vtyp) comm_operands in
    let acc_arg = new_value ~hint:"acc" acc_typ in
    let local_args = List.map (fun v -> new_value ?hint:v.vhint v.vtyp) local_operands in
    let done_args = comm_args @ [ acc_arg ] @ local_args in
    let operand_arg_pairs =
      List.combine comm_operands comm_args @ List.combine local_operands local_args
    in
    let arg_for_operand (v : value) =
      match List.find_opt (fun (o, _) -> o.vid = v.vid) operand_arg_pairs with
      | Some (_, a) -> a
      | None -> fail "operand not found"
    in
    let b = B.create () in
    let cache = Hashtbl.create 16 in
    let access_cache = Hashtbl.create 8 in
    let get_access grid_operand =
      match Hashtbl.find_opt access_cache grid_operand.vid with
      | Some v -> v
      | None ->
          let col_t =
            match grid_operand.vtyp with
            | Temp (_, e) | Field (_, e) -> e
            | t -> t
          in
          let v =
            B.insert b
              (Csl_stencil.access (arg_for_operand grid_operand) ~offset:[ 0; 0 ]
                 ~result:col_t)
          in
          Hashtbl.replace access_cache grid_operand.vid v;
          v
    in
    let leaf (o : op) =
      if o.opname = "stencil.access" then begin
        match dense_ints_exn o "offset" with
        | [ 0; 0 ] -> Some (get_access (operand_of_arg (operand o 0)))
        | _ -> fail "local term accesses a remote offset"
      end
      else if pack_mode && o.opname = "tensor.extract_slice" then begin
        (* a packed remote column: read it back out of its slot *)
        match slice_info defs ~z_halo (result o) with
        | Some (g, dx, dy, 0) when dx <> 0 || dy <> 0 ->
            let i = comm_index (operand_of_arg g) in
            Some
              (B.insert b
                 (Tensor.extract_slice acc_arg
                    ~offset:(slot_of i dx dy * len)
                    ~size:len))
        | Some (_, dx, dy, zo) when (dx <> 0 || dy <> 0) && zo <> 0 ->
            fail "remote access at non-zero z offset unsupported"
        | _ -> None
      end
      else None
    in
    let retype t = t in
    let local_vals =
      if pack_mode then []
      else
      List.map
        (fun t ->
          match t.factors with
          | [] ->
              B.insert b (Arith.constant_dense ~shape:[ nz ] t.coeff)
          | fs ->
              let fs' = List.map (rebuild defs cache b ~leaf ~retype) fs in
              let prod =
                match fs' with [ f ] -> f | fs -> B.insert b (Wsc_dialects.Varith.mul fs)
              in
              if t.coeff = 1.0 then prod
              else begin
                let c = B.insert b (Arith.constant_dense ~shape:[ nz ] t.coeff) in
                B.insert b (Arith.mulf c prod)
              end)
        rest
    in
    let interiors =
      if pack_mode then
        (* everything, remote terms included, is computable locally from
           the packed accumulator: rebuild each output's expression *)
        List.map (rebuild defs cache b ~leaf ~retype) interior_vals
      else
        [
          (match local_vals with
          | [] -> acc_arg
          | vs -> B.insert b (Wsc_dialects.Varith.add (acc_arg :: vs)));
        ]
    in
    (* wrap into full columns, Dirichlet z boundary from operand 0 *)
    let center = get_access (List.hd apply.operands) in
    let h_ix = B.insert b (Arith.constant_index z_halo) in
    let fulls =
      List.map
        (fun interior ->
          B.insert b (Tensor.insert_slice ~src:interior ~dst:center ~offset:h_ix))
        interiors
    in
    B.insert0 b (Csl_stencil.yield fulls);
    new_region [ new_block ~args:done_args (B.ops b) ]
  in
  (* accumulator init *)
  let acc_empty = Tensor.empty ~shape:[ acc_len ] in
  let config =
    {
      Csl_stencil.topology;
      swaps = swaps_by_input;
      num_chunks;
      chunk_size;
      comm_count = List.length comm_operands;
      coeffs = Option.value promoted_coeffs ~default:[];
    }
  in
  let comm_input_values =
    (* pre-swap values for exchanged grids; the grid itself when local *)
    List.map
      (fun v -> match swap_of v with Some s -> operand s 0 | None -> v)
      comm_operands
  in
  let csl_apply =
    Csl_stencil.apply ~config ~comm_inputs:comm_input_values
      ~acc:(result acc_empty)
      ~local_inputs:local_operands
      ~result_types:(List.map (fun r -> r.vtyp) apply.results)
      ~recv_region ~done_region
  in
  if promoted && opts.one_shot_reduction then set_attr csl_apply "one_shot" Unit_attr;
  set_attr csl_apply "z_halo" (Int_attr z_halo);
  set_attr csl_apply "z_interior" (Int_attr nz);
  set_attr csl_apply "compute_bounds" (attr_exn apply "compute_bounds");
  (* the new apply's results replace the old apply's results *)
  let subst = Subst.create () in
  List.iter2
    (fun old nw -> Subst.add subst ~from:old ~to_:nw)
    apply.results csl_apply.results;
  Subst.apply_op subst root;
  ignore blk;
  [ acc_empty; csl_apply ]

(** lower-dmp-swap-to-csl-prefetch: each [dmp.swap] becomes a
    [csl_stencil.prefetch] carrying the same topology and exchange
    descriptors — the explicit "fetch remote data into a local buffer"
    marker of §4.1, consumed by the apply conversion below. *)
let lower_swaps (m : op) : op =
  let subst = Subst.create () in
  rewrite_nested
    (fun o ->
      if o.opname = "dmp.swap" then begin
        let pf =
          Csl_stencil.prefetch (operand o 0) ~topology:(Dmp.topology o)
            ~swaps:(Dmp.swaps o)
        in
        Subst.add subst ~from:(result o) ~to_:(result pf);
        Replace [ pf ]
      end
      else Keep)
    m;
  Subst.apply_op subst m;
  m

let lower_swaps_pass =
  Wsc_ir.Pass.make "lower-dmp-swap-to-csl-prefetch" lower_swaps

(** Replace every prefetch+apply group in the module. *)
let convert (opts : options) (m : op) : op =
  walk_op
    (fun container ->
      List.iter
        (fun r ->
          List.iter
            (fun blk ->
              let applies =
                List.filter (fun o -> o.opname = "stencil.apply") blk.bops
              in
              if applies <> [] then begin
                if List.exists (fun o -> o.opname = "dmp.swap") blk.bops then
                  fail
                    "dmp.swap ops present: run lower-dmp-swap-to-csl-prefetch first";
                let swaps =
                  List.filter (fun o -> o.opname = "csl_stencil.prefetch") blk.bops
                in
                if swaps <> [] then begin
                  let replacements =
                    List.map (fun a -> (a.oid, convert_apply opts m blk a swaps)) applies
                  in
                  blk.bops <-
                    List.concat_map
                      (fun o ->
                        if o.opname = "csl_stencil.prefetch" then []
                        else
                          match List.assoc_opt o.oid replacements with
                          | Some ops -> ops
                          | None -> [ o ])
                      blk.bops
                end
              end)
            r.blocks)
        container.regions)
    m;
  m

let pass ?(options = default_options) () =
  Wsc_ir.Pass.make "convert-stencil-to-csl-stencil" (convert options)
