(** Group 4 (paper §5.4): map to the actor execution model.

    Converts the synchronous program — a timestep loop (or straight-line
    sequence) of [csl_stencil.apply] ops — into the WSE's asynchronous
    task graph inside a [csl.module]:

    - each apply becomes a [communicate] call into the runtime
      communication library (§5.6) plus two software actors: a chunk
      callback (the receive-chunk region, run per arriving chunk) and a
      done callback (the done region, run once all chunks arrived);
    - the enclosing [scf.for] becomes a control-flow task graph of
      zero-parameter functions: a loop-condition function, the apply
      chain, and an advance task that rotates the grid buffer pointers
      and re-enters the condition — there is no top-level loop left,
      exactly as Figure 1 requires;
    - grids become global buffers addressed through pointer globals so
      that the end-of-step rotation is a pointer assignment;
    - per-PE memory use is checked against the 48 kB budget.

    The output bodies still use [memref] views and [linalg] compute ops;
    group 5 lowers those to DSDs and CSL builtins. *)

open Wsc_ir.Ir
module Scf = Wsc_dialects.Scf
module Arith = Wsc_dialects.Arith
module Dmp = Wsc_dialects.Dmp
module B = Wsc_ir.Builder

exception Actor_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Actor_error s)) fmt

let pe_memory_bytes = 48 * 1024
let reserved_program_bytes = 6 * 1024  (* code + stack + runtime reserve *)

type apply_info = {
  index : int;
  apply : op;
  cfg : Csl_stencil.apply_config;
  out_ptrs : string list;
      (** pointer globals its output buffers are reached through, one per
          result (several when stencil inlining passed values through) *)
}

(** Direction name used in receive-buffer naming. *)
let dir_name = Dmp.direction_to_string

(** The schedule extracted from the synchronous program. *)
type schedule = {
  n_state : int;
  zfull : int;
  nz : int;
  z_halo : int;
  trip_count : int;
  applies : apply_info list;
  ptr_of : int -> string;  (** value vid -> pointer global name *)
  advance_dests : string list;
  advance_srcs : string list;
  result_ptrs : string list;  (** per state slot, where the host reads results *)
}

let state_ptr i = Printf.sprintf "ptr_state%d" i

let out_ptr k j =
  if j = 0 then Printf.sprintf "ptr_out%d" k else Printf.sprintf "ptr_out%d_%d" k j
let buf_name i = Printf.sprintf "buf%d" i
let acc_name k = Printf.sprintf "acc%d" k
let rcv_name k i dir = Printf.sprintf "rcv%d_%d_%s" k i (dir_name dir)
let rcv_all_name k i = Printf.sprintf "rcv%d_%d_all" k i
let scratch_name k tag n = Printf.sprintf "scratch%d_%s%d" k tag n

(** Extract the schedule from the wrapped module's [main] function. *)
let extract_schedule (m : op) : schedule =
  let main =
    match Wsc_dialects.Func.lookup m "main" with
    | Some f -> f
    | None -> fail "no main function"
  in
  let body = Wsc_dialects.Func.entry main in
  let loads =
    List.filter (fun o -> o.opname = "stencil.load") body.bops
  in
  let n_state = List.length loads in
  if n_state = 0 then fail "main has no stencil.load ops";
  let zfull =
    match (result (List.hd loads)).vtyp with
    | Temp (_, Tensor ([ z ], _)) -> z
    | _ -> fail "state grids are not tensorized"
  in
  let ptr_table : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace ptr_table (result l).vid (state_ptr i)) loads;
  let for_ops = List.filter (fun o -> o.opname = "scf.for") body.bops in
  let apply_block, trip_count, advance =
    match for_ops with
    | [ f ] ->
        let n =
          match Scf.trip_count m f with
          | Some n -> n
          | None -> fail "timestep loop trip count is not a compile-time constant"
        in
        (* iter args inherit the pointer of the init value *)
        let inits = Scf.for_iter_inits f in
        let iter_args = Scf.for_iter_args f in
        List.iter2
          (fun init arg ->
            match Hashtbl.find_opt ptr_table init.vid with
            | Some p -> Hashtbl.replace ptr_table arg.vid p
            | None -> fail "loop iter init is not a loaded grid")
          inits iter_args;
        (Scf.for_body f, n, `Loop f)
    | [] -> (body, 1, `Straight)
    | _ -> fail "more than one timestep loop"
  in
  let applies =
    List.filter (fun o -> o.opname = "csl_stencil.apply") apply_block.bops
  in
  if applies = [] then fail "no csl_stencil.apply ops";
  let infos =
    List.mapi
      (fun k a ->
        let ptrs =
          List.mapi
            (fun j r ->
              let p = out_ptr k j in
              Hashtbl.replace ptr_table r.vid p;
              p)
            a.results
        in
        { index = k; apply = a; cfg = Csl_stencil.config_of a; out_ptrs = ptrs })
      applies
  in
  let ptr_of vid =
    match Hashtbl.find_opt ptr_table vid with
    | Some p -> p
    | None -> fail "no buffer pointer for value %%%d" vid
  in
  let advance_dests, advance_srcs =
    match advance with
    | `Straight -> ([], [])
    | `Loop f ->
        let yield =
          match terminator (Scf.for_body f) with
          | Some t when t.opname = "scf.yield" -> t
          | _ -> fail "loop has no yield"
        in
        let dests = List.init (List.length yield.operands) state_ptr in
        let srcs = List.map (fun v -> ptr_of v.vid) yield.operands in
        (* out pointers pick up whichever buffers the state no longer uses *)
        let all_ptrs = dests @ List.concat_map (fun i -> i.out_ptrs) infos in
        let leftovers =
          List.filter (fun p -> not (List.mem p srcs)) all_ptrs
        in
        let out_dests = List.concat_map (fun i -> i.out_ptrs) infos in
        if List.length leftovers < List.length out_dests then
          fail "buffer rotation: not enough free buffers";
        ( dests @ out_dests,
          srcs @ List.filteri (fun i _ -> i < List.length out_dests) leftovers )
  in
  (* result pointers: map each store back to a pointer *)
  let result_ptrs = Array.make n_state "" in
  let stores = List.filter (fun o -> o.opname = "stencil.store") body.bops in
  let field_args = (Wsc_dialects.Func.entry main).bargs in
  List.iter
    (fun st ->
      let src = operand st 0 and dst = operand st 1 in
      let slot =
        let rec go i = function
          | [] -> fail "store target is not a field argument"
          | a :: rest -> if a.vid = dst.vid then i else go (i + 1) rest
        in
        go 0 field_args
      in
      (* a store of the k-th loop result reads state pointer k after the
         final rotation *)
      let ptr =
        match for_ops with
        | [ f ] ->
            let rec idx i = function
              | [] -> None
              | r :: rest -> if r.vid = src.vid then Some i else idx (i + 1) rest
            in
            (match idx 0 f.results with
            | Some k -> state_ptr k
            | None -> ptr_of src.vid)
        | _ -> ptr_of src.vid
      in
      result_ptrs.(slot) <- ptr)
    stores;
  let z_halo = int_attr_exn (List.hd infos).apply "z_halo" in
  let nz = int_attr_exn (List.hd infos).apply "z_interior" in
  {
    n_state;
    zfull;
    nz;
    z_halo;
    trip_count;
    applies = infos;
    ptr_of;
    advance_dests;
    advance_srcs;
    result_ptrs = Array.to_list result_ptrs;
  }

(** {1 Global declarations} *)

let buffer_globals (s : schedule) : op list * int =
  let out_ptr_names = List.concat_map (fun i -> i.out_ptrs) s.applies in
  let n_bufs = s.n_state + List.length out_ptr_names in
  let bufs =
    List.init n_bufs (fun i -> Csl.global_buffer ~name:(buf_name i) ~size:s.zfull)
  in
  let ptrs =
    List.init s.n_state (fun i ->
        Csl.ptr_global ~name:(state_ptr i) ~target:(buf_name i)
          ~buf_type:(Memref ([ s.zfull ], F32)))
    @ List.mapi
        (fun j p ->
          Csl.ptr_global ~name:p
            ~target:(buf_name (s.n_state + j))
            ~buf_type:(Memref ([ s.zfull ], F32)))
        out_ptr_names
  in
  (bufs @ ptrs, n_bufs * s.zfull * 4)

let comm_globals (s : schedule) : op list * int =
  let ops = ref [] and bytes = ref 0 in
  List.iter
    (fun info ->
      let cs = info.cfg.chunk_size in
      let promoted = info.cfg.coeffs <> [] in
      (* accumulator: z-sized when reduced on arrival, one slot per
         received distance-column in pack mode *)
      let acc_len = num_elements (Csl_stencil.acc_init info.apply).vtyp in
      ops := !ops @ [ Csl.global_buffer ~name:(acc_name info.index) ~size:acc_len ];
      bytes := !bytes + (acc_len * 4);
      let one_shot = has_attr info.apply "one_shot" in
      List.iteri
        (fun i swaps ->
          if one_shot && swaps <> [] then begin
            (* one shared staging buffer for all directions of this input *)
            ops :=
              !ops @ [ Csl.global_buffer ~name:(rcv_all_name info.index i) ~size:cs ];
            bytes := !bytes + (cs * 4)
          end
          else
            List.iter
              (fun (sw : Dmp.swap_desc) ->
                let size = if promoted then cs else sw.depth * cs in
                ops :=
                  !ops
                  @ [ Csl.global_buffer ~name:(rcv_name info.index i sw.dir) ~size ];
                bytes := !bytes + (size * 4))
              swaps)
        info.cfg.swaps)
    s.applies;
  (!ops, !bytes)

(** {1 Region body lowering} *)

(** Direction and distance of a receive offset. *)
let dir_dist dx dy =
  let d = abs dx + abs dy in
  match
    List.find_opt
      (fun dir -> d > 0 && Dmp.vector dir = (dx / d, dy / d))
      Dmp.all_directions
  with
  | Some dir -> (dir, d)
  | None -> fail "receive offset (%d,%d) is not along one axis" dx dy

(** Build @apply<K>_chunk(%offset): the receive-chunk actor body. *)
let build_chunk_func (info : apply_info) : op =
  let recv_blk = entry_block (Csl_stencil.recv_region info.apply) in
  let cfg = info.cfg in
  let n_args = List.length recv_blk.bargs in
  let acc_arg = List.nth recv_blk.bargs (n_args - 1) in
  let off_arg = List.nth recv_blk.bargs (n_args - 2) in
  let rcv_args = List.filteri (fun i _ -> i < cfg.comm_count) recv_blk.bargs in
  let rcv_index v =
    let rec go i = function
      | [] -> None
      | (a : value) :: rest -> if a.vid = v.vid then Some i else go (i + 1) rest
    in
    go 0 rcv_args
  in
  Csl.func ~name:(Printf.sprintf "apply%d_chunk" info.index) ~args:[ I16 ]
    (fun b args ->
      let off_val = List.hd args in
      let subst0 = Subst.create () in
      Subst.add subst0 ~from:off_arg ~to_:off_val;
      let acc_val =
        B.insert b
          (Csl.get_global ~name:(acc_name info.index)
             ~typ:(Memref ([ num_elements acc_arg.vtyp ], F32)))
      in
      Subst.add subst0 ~from:acc_arg ~to_:acc_val;
      let buf_cache = Hashtbl.create 8 in
      let scratch_count = ref 0 in
      let map_op (o : op) (subst : Subst.t) : value option =
        ignore subst;
        if o.opname = "memref.alloc" then begin
          let n = !scratch_count in
          incr scratch_count;
          Some
            (B.insert b
               (Csl.get_global
                  ~name:(scratch_name info.index "c" n)
                  ~typ:(result o).vtyp))
        end
        else if o.opname = "csl_stencil.access" then begin
          match rcv_index (operand o 0) with
          | Some i -> (
              match dense_ints_exn o "offset" with
              | [ 0; 0 ] ->
                  (* one-shot staging buffer *)
                  Some
                    (B.insert b
                       (Csl.get_global
                          ~name:(rcv_all_name info.index i)
                          ~typ:(Memref ([ cfg.chunk_size ], F32))))
              | [ dx; dy ] ->
                  let dir, dist = dir_dist dx dy in
                  let promoted = cfg.coeffs <> [] in
                  let name = rcv_name info.index i dir in
                  let key = (name, dist) in
                  (match Hashtbl.find_opt buf_cache key with
                  | Some v -> Some v
                  | None ->
                      let full_size =
                        if promoted then cfg.chunk_size
                        else
                          let sw =
                            List.find
                              (fun (s : Dmp.swap_desc) -> s.dir = dir)
                              (List.nth cfg.swaps i)
                          in
                          sw.depth * cfg.chunk_size
                      in
                      let g =
                        B.insert b
                          (Csl.get_global ~name ~typ:(Memref ([ full_size ], F32)))
                      in
                      let v =
                        if promoted then g
                        else
                          B.insert b
                            (Wsc_dialects.Memref_d.subview g
                               ~offset:((dist - 1) * cfg.chunk_size)
                               ~size:cfg.chunk_size)
                      in
                      Hashtbl.replace buf_cache key v;
                      Some v)
              | _ -> fail "chunk access with bad offset")
          | None -> fail "chunk access to a non-received view"
        end
        else None
      in
      (* seed the substitution with arg mappings, then lower the body *)
      let subst = subst0 in
      List.iter
        (fun o ->
          if o.opname = "csl_stencil.yield" then ()
          else
            match map_op o subst with
            | Some v -> Subst.add subst ~from:(result o) ~to_:v
            | None ->
                let c = clone_op subst o in
                B.insert0 b c)
        recv_blk.bops;
      B.insert0 b (Csl.return_ ()))

(** Build @apply<K>_done(): the local-compute actor body plus control-flow
    continuation. *)
let build_done_func (s : schedule) (info : apply_info) ~(next : string option) : op =
  let done_blk = entry_block (Csl_stencil.done_region info.apply) in
  let cfg = info.cfg in
  (* done args mirror operands: comm grids..., acc, local grids... *)
  let operand_for_arg =
    List.map2 (fun (a : value) o -> (a.vid, o)) done_blk.bargs info.apply.operands
  in
  (* the out buffers are the allocs yielded by the region, one per
     result; each maps to its output pointer *)
  let out_ptr_of_alloc =
    match terminator done_blk with
    | Some t when t.opname = "csl_stencil.yield" ->
        List.map2 (fun (v : value) p -> (v.vid, p)) t.operands info.out_ptrs
    | _ -> fail "done region has no yield"
  in
  let scratch_count = ref 0 in
  Csl.func ~name:(Printf.sprintf "apply%d_done" info.index) (fun b _ ->
      let subst = Subst.create () in
      (* bind grid and acc args *)
      List.iteri
        (fun i (a : value) ->
          if i = cfg.comm_count then begin
            let acc_val =
              B.insert b
                (Csl.get_global ~name:(acc_name info.index)
                   ~typ:(Memref ([ num_elements a.vtyp ], F32)))
            in
            Subst.add subst ~from:a ~to_:acc_val
          end
          else begin
            let oper = List.assoc a.vid operand_for_arg in
            let ptr = s.ptr_of oper.vid in
            let v =
              B.insert b (Csl.deref_ptr ~name:ptr ~typ:(Memref ([ s.zfull ], F32)))
            in
            Subst.add subst ~from:a ~to_:v
          end)
        done_blk.bargs;
      let map_op (o : op) (subst : Subst.t) : value option =
        if o.opname = "csl_stencil.access" then begin
          match dense_ints_exn o "offset" with
          | [ 0; 0 ] -> Some (Subst.resolve subst (operand o 0))
          | _ -> fail "done region accesses a remote offset"
        end
        else if o.opname = "memref.alloc" then begin
          match List.assoc_opt (result o).vid out_ptr_of_alloc with
          | Some ptr ->
              Some
                (B.insert b (Csl.deref_ptr ~name:ptr ~typ:(Memref ([ s.zfull ], F32))))
          | None -> begin
            (* bufferization fail-safe temporaries become global scratch *)
            let n = !scratch_count in
            incr scratch_count;
            Some
              (B.insert b
                 (Csl.get_global
                    ~name:(scratch_name info.index "d" n)
                    ~typ:(result o).vtyp))
          end
        end
        else None
      in
      List.iter
        (fun o ->
          if o.opname = "csl_stencil.yield" then ()
          else
            match map_op o subst with
            | Some v -> Subst.add subst ~from:(result o) ~to_:v
            | None ->
                let c = clone_op subst o in
                B.insert0 b c)
        done_blk.bops;
      (* continuation: next apply, or end-of-iteration advance *)
      (match next with
      | Some f -> B.insert0 b (Csl.call ~callee:f ())
      | None -> B.insert0 b (Csl.activate ~task:"advance"));
      B.insert0 b (Csl.return_ ()))

(** Scratch globals needed by a done region (same walk as above). *)
let scratch_globals (s : schedule) : op list * int =
  ignore s;
  let ops = ref [] and bytes = ref 0 in
  List.iter
    (fun info ->
      let done_blk = entry_block (Csl_stencil.done_region info.apply) in
      let recv_blk = entry_block (Csl_stencil.recv_region info.apply) in
      let out_alloc_vids =
        match terminator done_blk with
        | Some t -> List.map (fun (v : value) -> v.vid) t.operands
        | None -> []
      in
      List.iter
        (fun (tag, blk) ->
          let n = ref 0 in
          List.iter
            (fun o ->
              if
                o.opname = "memref.alloc"
                && not (List.mem (result o).vid out_alloc_vids)
              then begin
                let size = num_elements (result o).vtyp in
                ops :=
                  !ops
                  @ [
                      Csl.global_buffer ~name:(scratch_name info.index tag !n) ~size;
                    ];
                bytes := !bytes + (size * 4);
                incr n
              end)
            blk.bops)
        [ ("d", done_blk); ("c", recv_blk) ])
    s.applies;
  (!ops, !bytes)

(** Config dict passed to the communicate call (consumed by the runtime
    communication library / simulator and printed as a comptime struct). *)
let communicate_config (s : schedule) (info : apply_info) : attr =
  let cfg = info.cfg in
  let swaps_attr =
    Array_attr
      (List.mapi
         (fun i swaps ->
           Dict_attr
             [
               ("send_ptr", String_attr (s.ptr_of (List.nth info.apply.operands i).vid));
               ("swaps", Dmp.swap_attr swaps);
               ( "rcv_bufs",
                 Array_attr
                   (List.map
                      (fun (sw : Dmp.swap_desc) ->
                        if has_attr info.apply "one_shot" then
                          String_attr (rcv_all_name info.index i)
                        else String_attr (rcv_name info.index i sw.dir))
                      swaps) );
             ])
         cfg.swaps)
  in
  let coeffs_attr =
    Array_attr
      (List.map
         (fun (i, dx, dy, c) ->
           Dict_attr
             [
               ("i", Int_attr i);
               ("dx", Int_attr dx);
               ("dy", Int_attr dy);
               ("c", Float_attr c);
             ])
         cfg.coeffs)
  in
  Dict_attr
    [
      ("apply_id", Int_attr info.index);
      ("inputs", swaps_attr);
      ("coeffs", coeffs_attr);
      ("z_base", Int_attr s.z_halo);
      ("nz", Int_attr s.nz);
      ("num_chunks", Int_attr cfg.num_chunks);
      ("chunk_size", Int_attr cfg.chunk_size);
      ("chunk_cb", String_attr (Printf.sprintf "apply%d_chunk" info.index));
      ("done_cb", String_attr (Printf.sprintf "apply%d_done" info.index));
    ]

let build_start_func (s : schedule) (info : apply_info) (comms : value) : op =
  Csl.func ~name:(Printf.sprintf "apply%d_start" info.index) (fun b _ ->
      let call = Csl.member_call ~struct_:comms ~field:"communicate" in
      set_attr call "config" (communicate_config s info);
      B.insert0 b call;
      B.insert0 b (Csl.return_ ()))

(** Lower the wrapped module: replace the program region's contents with
    the csl task graph. *)
let run (m : op) : op =
  if not (Csl_wrapper.is_module m) then fail "expected csl_wrapper.module at top level";
  let s = extract_schedule m in
  let params = Csl_wrapper.params_of m in
  let b = B.create () in
  let _memcpy =
    B.insert b (Csl.import_module ~name:"<memcpy/memcpy>")
  in
  let comms = B.insert b (Csl.import_module ~name:"stencil_comms") in
  let buf_ops, buf_bytes = buffer_globals s in
  let comm_ops, comm_bytes = comm_globals s in
  let scratch_ops, scratch_bytes = scratch_globals s in
  List.iter (B.insert0 b) (buf_ops @ comm_ops @ scratch_ops);
  let total = buf_bytes + comm_bytes + scratch_bytes + reserved_program_bytes in
  if total > pe_memory_bytes then
    fail "per-PE memory exceeded: %d bytes needed of %d (buffers %d, comm %d, scratch %d)"
      total pe_memory_bytes buf_bytes comm_bytes scratch_bytes;
  B.insert0 b
    (Csl.global_scalar ~name:"iteration" ~typ:I32 ~init:(Int_attr 0));
  (* apply actors *)
  let n_applies = List.length s.applies in
  List.iteri
    (fun k info ->
      B.insert0 b (build_start_func s info comms);
      B.insert0 b (build_chunk_func info);
      let next =
        if k + 1 < n_applies then Some (Printf.sprintf "apply%d_start" (k + 1))
        else None
      in
      B.insert0 b (build_done_func s info ~next))
    s.applies;
  (* loop condition *)
  B.insert0 b
    (Csl.func ~name:"loop_cond" (fun fb _ ->
         let i = B.insert fb (Csl.load_scalar ~name:"iteration" ~typ:I32) in
         let n = B.insert fb (Arith.constant_i s.trip_count) in
         let c = B.insert fb (Arith.cmpi ~pred:"slt" i n) in
         B.insert0 fb
           (Wsc_dialects.Scf.if_ ~cond:c ~results:[]
              (fun tb -> B.insert0 tb (Csl.call ~callee:"apply0_start" ()))
              (fun eb -> B.insert0 eb (Csl.unblock_cmd_stream ())));
         B.insert0 fb (Csl.return_ ())));
  (* advance task: rotate pointers, bump the counter, re-enter the loop *)
  B.insert0 b
    (Csl.task ~name:"advance" ~kind:Csl.Local_task ~id:10 (fun tb ->
         if s.advance_dests <> [] then
           B.insert0 tb (Csl.assign_ptrs ~dests:s.advance_dests ~srcs:s.advance_srcs);
         let i = B.insert tb (Csl.load_scalar ~name:"iteration" ~typ:I32) in
         let one = B.insert tb (Arith.constant_i 1) in
         let i' = B.insert tb (Arith.addi i one) in
         B.insert0 tb (Csl.store_scalar ~name:"iteration" i');
         B.insert0 tb (Csl.call ~callee:"loop_cond" ())));
  (* host entry *)
  B.insert0 b
    (Csl.func ~name:"run" (fun fb _ ->
         B.insert0 fb (Csl.call ~callee:"loop_cond" ());
         B.insert0 fb (Csl.return_ ())));
  B.insert0 b (Csl.export ~name:"run" ~kind:"fn");
  let program = Csl.module_ ~kind:Csl.Program ~name:params.program_name (B.ops b) in
  set_attr program "result_ptrs"
    (Array_attr (List.map (fun p -> String_attr p) s.result_ptrs));
  set_attr program "n_state" (Int_attr s.n_state);
  set_attr program "zfull" (Int_attr s.zfull);
  set_attr program "z_halo" (Int_attr s.z_halo);
  set_attr program "nz" (Int_attr s.nz);
  set_attr program "memory_bytes" (Int_attr total);
  (* the wrapper's program region now holds the csl program module *)
  m.regions <- [ Csl_wrapper.layout_region m; new_region [ new_block [ program ] ] ];
  m

let pass = Wsc_ir.Pass.make "lower-csl-stencil-to-csl" run
