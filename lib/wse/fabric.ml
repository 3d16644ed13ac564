(** Fabric simulator: executes a compiled csl program on a simulated grid
    of PEs.

    Each PE holds its own buffers, scalars and pointer globals, executes
    tasks one at a time (single-threaded, as on the hardware), and counts
    cycles according to the {!Machine} model.  The runtime communication
    library (paper §5.6) is implemented natively here: [communicate]
    registers an asynchronous neighbour exchange — the sender pushes its
    column slices in chunks in all needed directions, receivers reduce or
    stage incoming chunks (applying promoted coefficients at delivery,
    §5.7) and activate the chunk callback per chunk and the done callback
    once all chunks from all neighbours have arrived, continuing the
    control-flow task graph.

    Scheduling is dependency-driven: a PE advances until it waits on
    senders that have not yet reached their matching [communicate]; the
    driver loop rescans the grid until no PE can progress.  Local clocks
    advance by op costs; message arrival times combine the sender's chunk
    injection completion with per-hop router latency.  On the WSE2 every
    injection is doubled by the self-send switch workaround (§6). *)

open Wsc_ir.Ir
module Csl = Wsc_core.Csl
module Bufview = Wsc_dialects.Bufview
module Dmp = Wsc_dialects.Dmp
module Trace = Wsc_trace.Trace
module Faults = Wsc_faults.Faults

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(** {1 Symbols}

    {!create} gives every declared name an index of its kind, and the
    staged program and the PE state carry those indices, never names. *)

type kind = Buffer | Scalar | Pointer | Func

let find (symbols : (kind * string, int) Hashtbl.t) (kind : kind) (name : string) : int =
  try Hashtbl.find symbols (kind, name)
  with Not_found ->
    fail "no %s %s"
      (match kind with
      | Buffer -> "buffer" | Scalar -> "scalar"
      | Pointer -> "pointer" | Func -> "function or task")
      name

(** {1 Communicate-call configuration}

    Each [communicate] call's config attr is decoded once per program
    ({!create}) into the exchange it registers: the source slots a
    receiver reads, in delivery order (input, swap, depth — the order
    the promoted reductions accumulate in, so FP results do not move),
    the distinct sender offsets, and the per-chunk wavelet counts. *)

(** One column a receiver takes in an exchange: input [sl_input] from
    the sender [sl_d] hops along [sl_dir], at offset ([sl_dx], [sl_dy])
    from the receiver. *)
type slot = {
  sl_input : int;
  sl_dir : Dmp.direction;
  sl_d : int;
  sl_dx : int;
  sl_dy : int;
  sl_rcv : int;  (** receive buffer *)
  sl_buf : int;  (** index of [sl_rcv] in the exchange's [rcv_bufs] *)
  sl_coeff : float;  (** promoted coefficient (0.0 when none applies) *)
  sl_halo : int;  (** state slot of the host-resident boundary column *)
}

type comm = {
  apply_id : int;
  z_base : int;
  c_nz : int;
  num_chunks : int;
  chunk_size : int;
  chunk_fn : int;  (** the chunk callback *)
  done_fn : int;
  promoted : bool;  (** coefficients are applied at delivery (§5.7) *)
  send_ptrs : int array;  (** per input *)
  slots : slot array;
  peers : (int * int) array;
      (** distinct sender offsets (dx, dy), in slot order: a receiver at
          (x, y) reads the senders at (x + dx, y + dy), so a sender at
          (x, y) is read by the in-grid receivers at (x - dx, y - dy) *)
  rcv_bufs : int array;  (** distinct receive buffers *)
  total_dirs : int;  (** directions a send is injected into *)
  incoming : int;  (** wavelets drained per chunk *)
  self_loopback : int;  (** looped-back wavelets per chunk (WSE2 self-send) *)
}

(** Decode a communicate config, resolving its names with [find].
    [halo.(p)] is the state slot whose boundary columns stand in for
    the sends of pointer [p] beyond the grid. *)
let decode_comm ~(find : kind -> string -> int) ~(halo : int array) (a : attr) : comm =
  let dict = match a with Dict_attr d -> d | _ -> fail "communicate: bad config" in
  let geti k =
    match List.assoc_opt k dict with Some (Int_attr i) -> i | _ -> fail "cfg int %s" k
  in
  let gets k =
    match List.assoc_opt k dict with
    | Some (String_attr s) -> s
    | _ -> fail "cfg string %s" k
  in
  (* per input: send pointer, swaps, and each swap's receive buffer *)
  let inputs =
    match List.assoc_opt "inputs" dict with
    | Some (Array_attr l) ->
        List.map
          (function
            | Dict_attr d ->
                let send_ptr =
                  match List.assoc_opt "send_ptr" d with
                  | Some (String_attr s) -> find Pointer s
                  | _ -> fail "cfg send_ptr"
                in
                let swaps =
                  match List.assoc_opt "swaps" d with
                  | Some a -> Dmp.swaps_of_attr a
                  | None -> fail "cfg swaps"
                in
                let rcv_bufs =
                  match List.assoc_opt "rcv_bufs" d with
                  | Some (Array_attr bl) ->
                      List.map
                        (function String_attr s -> find Buffer s | _ -> fail "cfg rcv buf")
                        bl
                  | _ -> fail "cfg rcv_bufs"
                in
                (send_ptr, List.combine swaps rcv_bufs)
            | _ -> fail "cfg input")
          l
    | _ -> fail "cfg inputs"
  in
  let coeffs =
    match List.assoc_opt "coeffs" dict with
    | Some (Array_attr l) ->
        List.map
          (function
            | Dict_attr d ->
                let gi k = match List.assoc_opt k d with Some (Int_attr i) -> i | _ -> 0 in
                let gf k =
                  match List.assoc_opt k d with
                  | Some (Float_attr f) -> f
                  | Some (Int_attr i) -> float_of_int i
                  | _ -> 0.0
                in
                (gi "i", gi "dx", gi "dy", gf "c")
            | _ -> fail "cfg coeff")
          l
    | _ -> []
  in
  let cs = geti "chunk_size" in
  let dedup l =
    List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)
  in
  let rcv_bufs = dedup (List.concat_map (fun (_, s) -> List.map snd s) inputs) in
  let rec index_of b i = function
    | x :: rest -> if x = b then i else index_of b (i + 1) rest
    | [] -> assert false
  in
  let slots =
    List.concat
      (List.mapi
         (fun i (send_ptr, swaps) ->
           List.concat_map
             (fun ((sw : Dmp.swap_desc), rcv) ->
               let vx, vy = Dmp.vector sw.dir in
               List.init sw.depth (fun k ->
                   let d = k + 1 in
                   let dx = vx * d and dy = vy * d in
                   {
                     sl_input = i;
                     sl_dir = sw.dir;
                     sl_d = d;
                     sl_dx = dx;
                     sl_dy = dy;
                     sl_rcv = rcv;
                     sl_buf = index_of rcv 0 rcv_bufs;
                     sl_coeff =
                       (match
                          List.find_opt
                            (fun (ci, cdx, cdy, _) -> ci = i && cdx = dx && cdy = dy)
                            coeffs
                        with
                       | Some (_, _, _, c) -> c
                       | None -> 0.0);
                     sl_halo = halo.(send_ptr);
                   }))
             swaps)
         inputs)
  in
  let swaps = List.concat_map (fun (_, s) -> List.map fst s) inputs in
  let apply_id = geti "apply_id" in
  if apply_id < 0 then fail "cfg apply_id %d" apply_id;
  {
    apply_id;
    z_base = geti "z_base";
    c_nz = geti "nz";
    num_chunks = geti "num_chunks";
    chunk_size = cs;
    chunk_fn = find Func (gets "chunk_cb");
    done_fn = find Func (gets "done_cb");
    promoted = coeffs <> [];
    send_ptrs = Array.of_list (List.map fst inputs);
    slots = Array.of_list slots;
    peers = Array.of_list (dedup (List.map (fun s -> (s.sl_dx, s.sl_dy)) slots));
    rcv_bufs = Array.of_list rcv_bufs;
    total_dirs = List.length swaps;
    incoming = List.fold_left (fun a (sw : Dmp.swap_desc) -> a + (sw.depth * cs)) 0 swaps;
    self_loopback = List.length swaps * cs;
  }

(** {1 Staged program}

    {!create} decodes every [csl.func] and [csl.task] once into an
    instruction array: opnames, attributes, [scf.if] regions, storage
    names, [csl.call] callees, [csl.activate] task names, [cmpi]
    predicates and each [communicate] call's {!comm} are resolved there,
    and each SSA value gets a slot in a per-call frame.  The staged program belongs to the
    simulation it was built for and every PE reads it, never writes it. *)

type cell = Cbuf of Bufview.t | Cdsd of Bufview.t | Cint of int | Cfloat of float

type pred = Slt | Sle | Sgt | Sge | Eq | Ne

(** One csl op.  Integer fields are frame slots, except symbol indices
    and the constants [off], [len], [stride] and [Increment_dsd]'s [by]. *)
type instr =
  | Get_global of int * int  (** destination, buffer *)
  | Deref_ptr of int * int  (** destination, pointer *)
  | Load_scalar of int * int  (** destination, scalar *)
  | Store_scalar of int * int  (** scalar, source *)
  | Get_mem_dsd of { dst : int; buf : int; off : int; len : int; stride : int }
  | Increment_dsd of { dst : int; dsd : int; by : int }
  | Increment_dsd_by of { dst : int; dsd : int; by : int }  (** offset held in [by] *)
  | Set_dsd_length of { dst : int; dsd : int; len : int }
  | Set_dsd_base_addr of { dst : int; dsd : int; base : int }
  | Arith of { name : string; op : Bufview.arith; dest : int; a : int; b : int }
  | Fmacs of { dest : int; a : int; b : int; k : int }
  | Fmovs of { dest : int; src : int }
  | Const of int * cell
  | Addi of int * int * int
  | Cmpi of int * pred * int * int
  | If of int * instr array * instr array
  | Call of int  (** callee's index in {!code.funcs} *)
  | Activate of int  (** the task's index in {!code.funcs} *)
  | Assign_ptrs of int array * int array  (** destinations, sources *)
  | Communicate of comm
  | Unblock_cmd_stream

type func = {
  fname : string;
  nargs : int;  (** block arguments, the first slots of the frame *)
  nslots : int;
  body : instr array;
}

type code = {
  funcs : func array;  (** indexed by [Func] *)
  symbols : (kind * string, int) Hashtbl.t;  (** every declared name -> its index *)
  buffer_sizes : int array;  (** elements of each buffer *)
  scalar_inits : int array;
  ptr_targets : int array;  (** the buffer each pointer targets at start *)
  applies : int;  (** one more than the largest apply id *)
  comms : comm list;  (** every decoded communicate call *)
}

(** Stage one function or task, resolving names with [find].  Every
    decoding error is a [Sim_error] naming the function and the op. *)
let stage_func ~(find : kind -> string -> int) ~(halo : int array) (comms : comm list ref)
    (f : op) : func =
  let fname = string_attr_exn f "sym_name" in
  let slots = Hashtbl.create 64 and n = ref 0 in
  let def (v : value) =
    let s = !n in
    incr n;
    Hashtbl.replace slots v.vid s;
    s
  in
  let use (v : value) =
    match Hashtbl.find_opt slots v.vid with
    | Some s -> s
    | None -> fail "unbound value %%%d" v.vid
  in
  let decode (o : op) : instr option =
    let arg i = use (operand o i) in
    let str k = string_attr_exn o k in
    let global kind = find kind (str "gname") in
    let ptrs k =
      match Csl.string_list_attr o k with
      | l -> Array.of_list (List.map (find Pointer) l)
      | exception Invalid_argument _ -> fail "%s is not a list of names" k
    in
    match o.opname with
    | "csl.get_global" -> Some (Get_global (def (result o), global Buffer))
    | "csl.deref_ptr" -> Some (Deref_ptr (def (result o), global Pointer))
    | "csl.load_scalar" -> Some (Load_scalar (def (result o), global Scalar))
    | "csl.store_scalar" -> Some (Store_scalar (global Scalar, arg 0))
    | "csl.get_mem_dsd" ->
        let buf = arg 0 and off = int_attr_exn o "offset" in
        let len = int_attr_exn o "length" in
        let stride = Option.value (int_attr o "stride") ~default:1 in
        Some (Get_mem_dsd { dst = def (result o); buf; off; len; stride })
    | "csl.increment_dsd_offset" -> (
        let dsd = arg 0 in
        match (int_attr o "by", o.operands) with
        | Some by, _ -> Some (Increment_dsd { dst = def (result o); dsd; by })
        | None, [ _; _ ] ->
            let by = arg 1 in
            Some (Increment_dsd_by { dst = def (result o); dsd; by })
        | _ -> fail "no offset")
    | "csl.set_dsd_length" ->
        let dsd = arg 0 and len = int_attr_exn o "length" in
        Some (Set_dsd_length { dst = def (result o); dsd; len })
    | "csl.set_dsd_base_addr" ->
        let dsd = arg 0 and base = arg 1 in
        Some (Set_dsd_base_addr { dst = def (result o); dsd; base })
    | ("csl.fadds" | "csl.fsubs" | "csl.fmuls") as name ->
        let op =
          match name with
          | "csl.fadds" -> Bufview.Add
          | "csl.fsubs" -> Bufview.Sub
          | _ -> Bufview.Mul
        in
        Some (Arith { name; op; dest = arg 0; a = arg 1; b = arg 2 })
    | "csl.fmacs" -> Some (Fmacs { dest = arg 0; a = arg 1; b = arg 2; k = arg 3 })
    | "csl.fmovs" -> Some (Fmovs { dest = arg 0; src = arg 1 })
    | "arith.constant" ->
        let c =
          match attr o "value" with
          | Some (Int_attr i) -> Cint i
          | Some (Float_attr f) -> Cfloat f
          | _ -> fail "bad value"
        in
        Some (Const (def (result o), c))
    | "arith.addi" ->
        let a = arg 0 and b = arg 1 in
        Some (Addi (def (result o), a, b))
    | "arith.cmpi" ->
        let a = arg 0 and b = arg 1 in
        let p =
          match str "predicate" with
          | "slt" -> Slt
          | "sle" -> Sle
          | "sgt" -> Sgt
          | "sge" -> Sge
          | "eq" -> Eq
          | "ne" -> Ne
          | p -> fail "unknown predicate %s" p
        in
        Some (Cmpi (def (result o), p, a, b))
    | "csl.call" -> Some (Call (find Func (str "callee")))
    | "csl.activate" -> Some (Activate (find Func (str "task")))
    | "csl.assign_ptrs" ->
        let dests = ptrs "dests" and srcs = ptrs "srcs" in
        if Array.length dests <> Array.length srcs then
          fail "%d destinations for %d sources" (Array.length dests) (Array.length srcs);
        Some (Assign_ptrs (dests, srcs))
    | "csl.member_call" -> (
        match str "field" with
        | "communicate" ->
            let c = decode_comm ~find ~halo (attr_exn o "config") in
            comms := c :: !comms;
            Some (Communicate c)
        | lib -> fail "unknown library function %s" lib)
    | "csl.unblock_cmd_stream" -> Some Unblock_cmd_stream
    | "csl.return" -> None
    | _ -> fail "unsupported op"
  in
  let guard what k =
    try k () with
    | Sim_error msg | Invalid_argument msg | Failure msg ->
        fail "%s %s: %s: %s" f.opname fname what msg
    | Not_found -> fail "%s %s: %s: malformed attribute" f.opname fname what
  in
  (* an [scf.if]'s branches are staged outside its guard, so an error in
     them names the op that caused it *)
  let rec block (b : block) : instr array = Array.of_list (List.filter_map instr b.bops)
  and instr (o : op) : instr option =
    if o.opname = "scf.if" then
      let c, then_, else_ =
        guard o.opname (fun () -> (use (operand o 0), body_block o 0, body_block o 1))
      in
      Some (If (c, block then_, block else_))
    else guard o.opname (fun () -> decode o)
  in
  let blk = guard "body" (fun () -> entry_block (List.hd f.regions)) in
  List.iter (fun a -> ignore (def a)) blk.bargs;
  let nargs = !n in
  let body = block blk in
  { fname; nargs; nslots = !n; body }

(** Element count of a [csl.global_buffer]. *)
let buffer_size (o : op) : int =
  match attr_exn o "type" with Type_attr t -> num_elements t | _ -> fail "bad buffer type"

(** Index every declaration, record each global's initial value, and
    stage every function and task: the only reader of the module body. *)
let stage_program (program : op) : code =
  let body = Csl.module_body program in
  let name o =
    try string_attr_exn o "sym_name"
    with Invalid_argument _ -> fail "%s without a sym_name" o.opname
  in
  let symbols = Hashtbl.create 64 in
  let declare kind opname =
    let ops = Array.of_list (List.filter (fun o -> o.opname = opname) body) in
    Array.iteri (fun i o -> Hashtbl.replace symbols (kind, name o) i) ops;
    ops
  in
  let buffers = declare Buffer "csl.global_buffer" in
  let scalars = declare Scalar "csl.global_scalar" in
  let ptrs = declare Pointer "csl.ptr_global" in
  let find = find symbols in
  (* boundary columns of state slot [j] stand in for the sends of its
     pointer [To_actors.state_ptr j]; slot 0 for any other pointer *)
  let halo = Array.make (Array.length ptrs) 0 in
  Array.iteri
    (fun j _ ->
      match Hashtbl.find_opt symbols (Pointer, Wsc_core.To_actors.state_ptr j) with
      | Some p -> halo.(p) <- j
      | None -> ())
    ptrs;
  let defs = List.filter (fun o -> o.opname = "csl.func" || o.opname = "csl.task") body in
  (* a function shadows a task of the same name *)
  List.iter
    (fun kind ->
      List.iteri
        (fun i o -> if o.opname = kind then Hashtbl.replace symbols (Func, name o) i)
        defs)
    [ "csl.task"; "csl.func" ];
  let comms = ref [] in
  let funcs = Array.of_list (List.map (stage_func ~find ~halo comms) defs) in
  let comms = List.rev !comms in
  (* the sends of an apply reuse each other's records ({!take_record}) *)
  let shape c = (Array.length c.send_ptrs, c.c_nz, c.num_chunks) in
  List.iter
    (fun c ->
      let c0 = List.find (fun c' -> c'.apply_id = c.apply_id) comms in
      if shape c <> shape c0 then
        fail "apply %d: communicate calls of different shapes" c.apply_id)
    comms;
  {
    funcs;
    symbols;
    buffer_sizes = Array.map buffer_size buffers;
    scalar_inits =
      Array.map (fun o -> match attr o "init" with Some (Int_attr i) -> i | _ -> 0) scalars;
    ptr_targets = Array.map (fun o -> find Buffer (string_attr_exn o "target")) ptrs;
    applies = List.fold_left (fun n c -> max n (c.apply_id + 1)) 0 comms;
    comms;
  }

(** {1 PE state} *)

type pe_stats = {
  mutable compute_cycles : float;
  mutable send_cycles : float;
  mutable wait_cycles : float;
  mutable task_activations : int;
  mutable flops : float;
  mutable elems_sent : int;
  mutable elems_drained : int;  (** wavelets received over the ramp *)
  mutable mem_bytes : float;  (** local SRAM traffic of the DSD builtins *)
}

(** First field in which two per-PE stat records differ, with both
    values; [None] when equal.  The bit-identity assertions in the
    benchmark harness and the tests share this, so every mismatch names
    the culprit field instead of printing two opaque tuples. *)
let stats_diff (a : pe_stats) (b : pe_stats) : string option =
  let fl name av bv =
    if (av : float) <> bv then Some (Printf.sprintf "%s: %.17g <> %.17g" name av bv)
    else None
  in
  let it name av bv =
    if (av : int) <> bv then Some (Printf.sprintf "%s: %d <> %d" name av bv)
    else None
  in
  List.fold_left
    (fun acc d -> match acc with Some _ -> acc | None -> d ())
    None
    [
      (fun () -> fl "compute_cycles" a.compute_cycles b.compute_cycles);
      (fun () -> fl "send_cycles" a.send_cycles b.send_cycles);
      (fun () -> fl "wait_cycles" a.wait_cycles b.wait_cycles);
      (fun () -> it "task_activations" a.task_activations b.task_activations);
      (fun () -> fl "flops" a.flops b.flops);
      (fun () -> it "elems_sent" a.elems_sent b.elems_sent);
      (fun () -> it "elems_drained" a.elems_drained b.elems_drained);
      (fun () -> fl "mem_bytes" a.mem_bytes b.mem_bytes);
    ]

let stats_equal (a : pe_stats) (b : pe_stats) : bool = stats_diff a b = None

(** One registered send.  Its arrays are rewritten in place when the
    sender reuses the record for a later send ({!take_record}), which
    happens only once every receiver has consumed it. *)
type send_record = {
  sr_chunk_ready : float array;  (** completion time of each chunk injection *)
  sr_data : float array array;  (** snapshot of the sent z-range, per input *)
  mutable sr_pending : int;
      (** receivers that have not yet completed the exchange; the record
          leaves the table at zero *)
  mutable sr_tainted : bool;
      (** the sender was tainted when it sent, so every receiver that
          reduces this payload is tainted too *)
}

type waiting = {
  w_comm : comm;
  w_seq : int;
  w_registered_at : float;
}

(** A PE's pending task activations, ordered by (activation time,
    insertion stamp): dispatch takes the earliest activation, and ties
    resolve in insertion order. *)
module Task_queue = Set.Make (struct
  type t = float * int * int

  let compare (a, i, _) (b, j, _) =
    match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

type task_queue = Task_queue.t

type pe = {
  px : int;
  py : int;
  buffers : float array array;  (** indexed by [Buffer] *)
  scalars : int array;  (** indexed by [Scalar] *)
  ptrs : int array;  (** indexed by [Pointer]: the buffer it targets *)
  mutable clock : float;
  mutable finished : bool;
  mutable task_queue : task_queue;
  mutable task_stamps : int;  (** insertion stamps handed out so far *)
  mutable waiting : waiting option;
  seq : int array;
      (** apply id -> communicate calls so far; on a halted PE, also the
          exchanges the resilience layer degraded past *)
  stats : pe_stats;
  mutable live_sends : int;  (** this PE's records still in the send table *)
  spare : send_record list array;
      (** apply id -> this PE's records of that apply that every
          receiver has consumed, for its later sends to reuse *)
  mutable dispatches : int;
      (** task dispatches so far, counted with an injector: the
          activation index the stall/halt decisions key on *)
  mutable halted : bool;  (** permanently halted by fault injection *)
  mutable tainted : bool;
      (** consumed substituted or unrecoverable data, or data derived
          from such: its readback is invalid *)
}

let queue_task (pe : pe) ~(at : float) (task : int) : unit =
  pe.task_queue <- Task_queue.add (at, pe.task_stamps, task) pe.task_queue;
  pe.task_stamps <- pe.task_stamps + 1

(** {1 Scheduler counters} *)

module Sched = struct
  type stats = {
    mutable scans : int;  (** PE visits by the driver ([step_pe] calls) *)
    mutable probes : int;  (** finished-flag probes by quiescence sweeps *)
    mutable wakeups : int;  (** always 0 *)
    mutable parks : int;  (** always 0 *)
    mutable max_queue_depth : int;  (** always 0 *)
    mutable peak_sends_live : int;
        (** high-water mark of the send table: records registered and
            not yet consumed by all their receivers *)
  }
end

(** {1 Simulator} *)

(** The terms of a promoted exchange's reduction, per receive buffer
    (the index in the exchange's [rcv_bufs]): what {!complete_exchange}
    gathers for a chunk and hands to {!Bufview.scaled_sum_into}.  One
    set serves every exchange of the run, so delivery allocates
    nothing per chunk. *)
type terms = {
  tm_coeffs : float array array;
  tm_cols : float array array array;
  tm_starts : int array array;
  tm_count : int array;
}

(** Terms for the largest exchange among [comms]. *)
let new_terms (comms : comm list) : terms =
  let bufs, slots =
    List.fold_left
      (fun (b, n) c -> (max b (Array.length c.rcv_bufs), max n (Array.length c.slots)))
      (0, 0) comms
  in
  {
    tm_coeffs = Array.init bufs (fun _ -> Array.make slots 0.0);
    tm_cols = Array.init bufs (fun _ -> Array.make slots [||]);
    tm_starts = Array.init bufs (fun _ -> Array.make slots 0);
    tm_count = Array.make bufs 0;
  }

type t = {
  machine : Machine.t;
  width : int;
  height : int;
  pes : pe array array;
  sends : (int, send_record) Hashtbl.t;
      (** {!send_key} of (apply, seq, x, y) -> record *)
  halo : (int * int, float array) Hashtbl.t;
      (** host-resident boundary columns (x, y outside the PE grid) *)
  zfull : int;
  sched : Sched.stats;
  trace : Trace.sink;
      (** where the simulator reports spans and link transfers; with
          {!Trace.null} (the default) every site is a dead branch and
          results are bit-identical to an untraced run *)
  faults : Faults.t;
      (** fault-injection schedule and counters; with {!Faults.null} (the
          default) every injection site is a dead branch, exactly like
          the trace sink *)
  code : code;  (** the program, staged once by {!create} *)
  terms : terms;
  scalar : Bufview.t;
      (** scratch: the stride-0 view a scalar operand of a DSD op is read
          through, so that no op allocates one *)
  mutable window : bool;
      (** whether the scheduler holds PEs at {!max_live_sends_per_pe}
          live records; lifted for the rest of the run if the fabric goes
          quiescent with PEs held (see {!lift_window}) *)
}

(** A PE in its initial state: fresh zeroed buffers and copies of the
    staged scalar and pointer initial values. *)
let new_pe (code : code) x y : pe =
  {
    px = x;
    py = y;
    buffers = Array.map (fun n -> Array.make n 0.0) code.buffer_sizes;
    scalars = Array.copy code.scalar_inits;
    ptrs = Array.copy code.ptr_targets;
    clock = 0.0;
    finished = false;
    task_queue = Task_queue.empty;
    task_stamps = 0;
    waiting = None;
    seq = Array.make code.applies 0;
    live_sends = 0;
    spare = Array.make code.applies [];
    dispatches = 0;
    halted = false;
    tainted = false;
    stats =
      {
        compute_cycles = 0.0;
        send_cycles = 0.0;
        wait_cycles = 0.0;
        task_activations = 0;
        flops = 0.0;
        elems_sent = 0;
        elems_drained = 0;
        mem_bytes = 0.0;
      };
  }

(** Largest PE grid the simulator will instantiate in one process.  Full
    wafers are measured through the proxy-grid extrapolation in
    [Wsc_perf.Wse_perf] instead of being simulated whole. *)
let max_simulated_pes = 64 * 1024

(** Live send records a PE may hold before the scheduler stops
    advancing it ({!at_window}).  A record leaves the send table once
    all its receivers have consumed it, so this caps a PE's run-ahead
    over its slowest receiver and the table at this many records per PE,
    whatever the iteration count; see DESIGN.md, "Send-record
    lifecycle".  Two is the least window that cannot deadlock: with one,
    neighbours that read each other would each wait for the other to
    consume first. *)
let max_live_sends_per_pe = 2

(** Largest simulation, in estimated bytes, {!create} instantiates, and
    largest sequential reference [wsc simulate] runs after it.  1 GiB
    admits every grid up to the benchmarks' Small size (100x100 PEs). *)
let max_simulated_bytes = 1 lsl 30

(** Bytes of one send record, live in the send table or spare on its
    sender: its column snapshots and chunk times as host floats, plus
    the table entry, key and headers. *)
let record_bytes (c : comm) : int =
  (8 * ((Array.length c.send_ptrs * c.c_nz) + c.num_chunks)) + 128

(** Estimated memory of simulating [program] on [pes] PEs: buffers are
    host floats, 8 bytes per element whatever the device type, plus 128
    bytes per buffer, 1 KiB per PE of tables, and
    {!max_live_sends_per_pe} records per apply, live or spare. *)
let estimate ~(pes : int) (code : code) : int =
  let buffers = Array.fold_left (fun acc n -> acc + (8 * n) + 128) 1024 code.buffer_sizes in
  let record = Array.make code.applies 0 in
  List.iter (fun c -> record.(c.apply_id) <- record_bytes c) code.comms;
  pes * (buffers + (max_live_sends_per_pe * Array.fold_left ( + ) 0 record))

let estimate_bytes (sim : t) : int = estimate ~pes:(sim.width * sim.height) sim.code

let create ?(trace = Trace.null) ?(faults = Faults.null) (machine : Machine.t)
    (program : op) : t =
  let width = int_attr_exn program "width" in
  let height = int_attr_exn program "height" in
  if width > machine.max_width || height > machine.max_height then
    fail "PE grid %dx%d exceeds %s fabric %dx%d" width height machine.name
      machine.max_width machine.max_height;
  if width * height > max_simulated_pes then
    fail
      "PE grid %dx%d is too large to simulate in-process (max %d PEs); use a \
       proxy grid and the perf harness for full-wafer measurements"
      width height max_simulated_pes;
  let mem = int_attr_exn program "memory_bytes" in
  if mem > machine.pe_memory_bytes then
    fail "program needs %d bytes per PE; %s provides %d" mem machine.name
      machine.pe_memory_bytes;
  let code = stage_program program in
  let estimate = estimate ~pes:(width * height) code in
  if estimate > max_simulated_bytes then
    fail
      "PE grid %dx%d needs an estimated %d bytes to simulate (its buffers at 8 \
       bytes per element plus the send-table bound), over the limit of %d \
       bytes; use a smaller proxy grid"
      width height estimate max_simulated_bytes;
  if Trace.enabled trace then begin
    Trace.name_process trace ~pid:Trace.fabric_pid "fabric";
    for x = 0 to width - 1 do
      for y = 0 to height - 1 do
        Trace.name_track trace ~pid:Trace.fabric_pid ~tid:((y * width) + x)
          (Printf.sprintf "PE(%d,%d)" x y)
      done
    done
  end;
  {
    machine;
    width;
    height;
    pes = Array.init width (fun x -> Array.init height (fun y -> new_pe code x y));
    sends = Hashtbl.create 1024;
    halo = Hashtbl.create 64;
    zfull = int_attr_exn program "zfull";
    sched =
      {
        scans = 0;
        probes = 0;
        wakeups = 0;
        parks = 0;
        max_queue_depth = 0;
        peak_sends_live = 0;
      };
    trace;
    faults;
    code;
    terms = new_terms code.comms;
    scalar = Bufview.repeat 0.0 0;
    window = true;
  }

(** {1 Trace emission}

    All emission is observation-only: helpers read PE clocks and send
    records but never touch simulation state, and every allocation
    (names, args) sits behind a {!Trace.enabled} branch, so with the
    null sink a traced build is bit-identical to the seed simulator. *)

let tid_of (sim : t) (pe : pe) : int = (pe.py * sim.width) + pe.px

(** A completed [t0, t1] span on [pe]'s track. *)
let trace_span (sim : t) (pe : pe) ~(cat : string) ~(name : string) (t0 : float)
    (t1 : float) : unit =
  if Trace.enabled sim.trace then begin
    let tid = tid_of sim pe in
    Trace.span_begin sim.trace ~pid:Trace.fabric_pid ~tid ~cat ~name t0;
    Trace.span_end sim.trace ~pid:Trace.fabric_pid ~tid ~cat ~name t1
  end

(** One chunk's journey over a link, as an async flow: begins on the
    sender's track when the chunk's injection completes, ends on the
    receiver's track at delivery. *)
let trace_link (sim : t) ~(src : pe) ~(dst : pe) ~(dir : Dmp.direction)
    ~(chunk : int) ~(elems : int) ~(ready : float) ~(arrival : float) : unit =
  if Trace.enabled sim.trace then begin
    let id = Trace.fresh_flow_id sim.trace in
    let dir_name = Dmp.direction_to_string dir in
    Trace.flow_begin sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim src)
      ~cat:"link" ~name:"xfer" ~id
      ~args:
        [
          ("dir", Trace.Astr dir_name);
          ("chunk", Trace.Aint chunk);
          ("elems", Trace.Aint elems);
        ]
      ready;
    Trace.flow_end sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim dst)
      ~cat:"link" ~name:"xfer" ~id arrival
  end

(** {1 Fault injection}

    Injection sites mirror the trace sites: every decision sits behind a
    {!Faults.enabled} branch so the {!Faults.null} injector (and any
    injector with all rates zero) leaves the simulation bit-identical to
    the seed simulator.  Decisions are pure hashes of the campaign seed
    and the site's coordinates, never of execution order, so every PE
    visit order draws the same faults (see {!Wsc_faults.Faults}). *)

let trace_fault (sim : t) (pe : pe) ~(name : string) (ts : float) : unit =
  if Trace.enabled sim.trace then
    Trace.instant sim.trace ~pid:Trace.fabric_pid ~tid:(tid_of sim pe)
      ~cat:"fault" ~name ts

(** What a chunk-column delivery amounts to after the link's faults and
    (when enabled) the recovery protocol have run their course. *)
type delivery =
  | Clean  (** payload intact *)
  | Damaged of int * float  (** element index hit, additive noise *)
  | Lost  (** wavelets never delivered: the slot reads as zeroes *)

(** Resolve the fate of one chunk-column crossing the link from the
    sender at hop distance [d]: apply a backpressure spike, then either
    let a transient drop/corruption land undetected (no resilience) or
    drive the detection & recovery protocol — per-wavelet checksums
    catch corruption on arrival, a receiver timeout with bounded
    exponential backoff catches loss, and each retransmission re-pays
    the NACK round trip plus chunk re-injection — until a clean copy
    lands or the receiver exhausts [max_retries] and gives up.  Returns
    the delivery time and the payload outcome.  All costs are charged
    receiver-side (the sender's router retransmits autonomously), so no
    other PE's state is touched and results stay independent of the
    order PEs are visited in. *)
let link_outcome (sim : t) (pe : pe) ~(apply : int) ~(seq : int) ~(chunk : int)
    ~(input : int) ~(sx : int) ~(sy : int) ~(d : int) ~(col : float array)
    ~(off : int) ~(cs : int) (at : float) : float * delivery =
  let f = sim.faults in
  let st = Faults.stats f in
  let m = sim.machine in
  let dx = pe.px and dy = pe.py in
  let at = ref at in
  if Faults.backpressure_here f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy then begin
    st.backpressures <- st.backpressures + 1;
    at := !at +. (Faults.config f).backpressure_cycles;
    trace_fault sim pe ~name:"backpressure" !at
  end;
  let fault attempt =
    if Faults.drop_here f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt
    then Some Lost
    else if
      Faults.corrupt_here f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt
    then
      let idx, noise =
        Faults.corruption f ~apply ~seq ~chunk ~input ~sx ~sy ~dx ~dy ~attempt
          ~len:cs
      in
      Some (Damaged (idx, noise))
    else None
  in
  match (Faults.config f).resilience with
  | None -> (
      (* no protocol: whatever the link did is what the PE computes on *)
      match fault 0 with
      | None -> (!at, Clean)
      | Some Lost ->
          st.drops <- st.drops + 1;
          trace_fault sim pe ~name:"drop" !at;
          (!at, Lost)
      | Some (Damaged _ as dmg) ->
          st.corrupts <- st.corrupts + 1;
          trace_fault sim pe ~name:"corrupt" !at;
          (!at, dmg)
      | Some Clean -> assert false)
  | Some r ->
      let self_mul = if m.self_send then 2.0 else 1.0 in
      let reinject = float_of_int cs *. m.send_cycles_per_elem *. self_mul in
      let rtt = float_of_int (2 * d * m.hop_cycles) in
      let rec attempt a =
        match fault a with
        | None ->
            (* on the wire intact; the receiver-side checksum agrees
               with the one carried in the wavelet header, so accept *)
            (!at, Clean)
        | Some outcome ->
            let detected =
              match outcome with
              | Lost ->
                  st.drops <- st.drops + 1;
                  trace_fault sim pe ~name:"drop" !at;
                  (* loss is always detected: the sequence number never
                     arrives and the receiver timeout fires *)
                  true
              | Damaged (idx, noise) ->
                  st.corrupts <- st.corrupts + 1;
                  trace_fault sim pe ~name:"corrupt" !at;
                  (* receiver-side integrity check: recompute the
                     checksum over the damaged copy and compare against
                     the sender's (computed over the snapshot); only a
                     checksum collision goes undetected *)
                  let damaged = Array.sub col off cs in
                  damaged.(idx) <- damaged.(idx) +. noise;
                  Faults.checksum damaged ~off:0 ~len:cs
                  <> Faults.checksum col ~off ~len:cs
              | Clean -> assert false
            in
            if not detected then
              (!at, outcome) (* undetected corruption: delivered as-is *)
            else if a >= r.Faults.max_retries then begin
              st.giveups <- st.giveups + 1;
              pe.tainted <- true;
              trace_fault sim pe ~name:"giveup" !at;
              (!at, Lost)
            end
            else begin
              (* loss is detected by the sequence-number timeout (with
                 exponential backoff); corruption by the checksum, which
                 NACKs immediately *)
              let wait =
                match outcome with
                | Lost -> Faults.backoff r ~attempt:(a + 1)
                | _ -> 0.0
              in
              let cost = wait +. rtt +. reinject in
              at := !at +. cost;
              st.retries <- st.retries + 1;
              st.recovery_cycles <- st.recovery_cycles +. cost;
              trace_fault sim pe ~name:"retry" !at;
              attempt (a + 1)
            end
      in
      attempt 0

(** {1 csl-op execution on one PE} *)

let deref (pe : pe) (ptr : int) : float array = pe.buffers.(pe.ptrs.(ptr))

let cost (pe : pe) c = pe.clock <- pe.clock +. c

(** Cycles and SRAM traffic of a DSD builtin over [len] elements: two
    operand reads and one destination write of 4 bytes per element for
    the arithmetic builtins ([bytes_per_elem] 12), one read and one
    write for a move (8). *)
let builtin_cost (m : Machine.t) (pe : pe) (bytes_per_elem : float) (len : int) : unit =
  cost pe
    (float_of_int m.dsd_overhead_cycles +. (float_of_int len /. m.dsd_elems_per_cycle));
  pe.stats.compute_cycles <-
    pe.stats.compute_cycles +. float_of_int m.dsd_overhead_cycles
    +. (float_of_int len /. m.dsd_elems_per_cycle);
  pe.stats.mem_bytes <- pe.stats.mem_bytes +. (bytes_per_elem *. float_of_int len)

let as_view = function Cdsd b | Cbuf b -> b | _ -> fail "exec: expected DSD/buffer"
let as_int = function Cint i -> i | _ -> fail "exec: expected int"

let as_float = function
  | Cfloat f -> f
  | Cint i -> float_of_int i
  | _ -> fail "exec: expected float"

let compare_ints p (a : int) (b : int) =
  match p with
  | Slt -> a < b
  | Sle -> a <= b
  | Sgt -> a > b
  | Sge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

(** Run staged [body] over frame [fr]; accumulates cycle cost on the PE
    and conses the communicate calls it makes onto [comms], newest
    first (the caller registers them). *)
(* [len] copies of [k] in [sim.scalar]; valid until the next call *)
let scalar (sim : t) (k : float) (len : int) : Bufview.t =
  sim.scalar.data.(0) <- k;
  sim.scalar.len <- len;
  sim.scalar

let rec exec (sim : t) (pe : pe) (fr : cell array) (body : instr array)
    (comms : comm list ref) : unit =
  let m = sim.machine in
  for i = 0 to Array.length body - 1 do
    match body.(i) with
    | Get_global (d, b) ->
        cost pe 1.0;
        fr.(d) <- Cbuf (Bufview.of_array pe.buffers.(b))
    | Deref_ptr (d, p) ->
        cost pe 1.0;
        fr.(d) <- Cbuf (Bufview.of_array (deref pe p))
    | Load_scalar (d, s) ->
        cost pe 1.0;
        fr.(d) <- Cint pe.scalars.(s)
    | Store_scalar (s, v) ->
        cost pe 1.0;
        pe.scalars.(s) <- as_int fr.(v)
    | Get_mem_dsd { dst; buf; off; len; stride } ->
        cost pe 2.0;
        let b = as_view fr.(buf) in
        fr.(dst) <- Cdsd (Bufview.make b.data ~off:(b.off + off) ~len ~stride ())
    | Increment_dsd { dst; dsd; by } ->
        cost pe 2.0;
        let b = as_view fr.(dsd) in
        fr.(dst) <- Cdsd { b with off = b.off + (by * b.stride) }
    | Increment_dsd_by { dst; dsd; by } ->
        cost pe 2.0;
        let b = as_view fr.(dsd) in
        fr.(dst) <- Cdsd { b with off = b.off + (as_int fr.(by) * b.stride) }
    | Set_dsd_length { dst; dsd; len } ->
        cost pe 2.0;
        fr.(dst) <- Cdsd { (as_view fr.(dsd)) with len }
    | Set_dsd_base_addr { dst; dsd; base } ->
        cost pe 2.0;
        let b = as_view fr.(dsd) in
        let base = as_view fr.(base) in
        fr.(dst) <- Cdsd { b with data = base.data; off = base.off }
    | Arith { name; op; dest; a; b } ->
        let dest = as_view fr.(dest) in
        (match (fr.(a), fr.(b)) with
        | (Cdsd a | Cbuf a), (Cdsd b | Cbuf b) -> Bufview.arith_into op a b dest
        | (Cdsd a | Cbuf a), Cfloat k -> Bufview.arith_into op a (scalar sim k dest.len) dest
        | (Cdsd a | Cbuf a), Cint k ->
            Bufview.arith_into op a (scalar sim (float_of_int k) dest.len) dest
        | Cfloat k, (Cdsd b | Cbuf b) -> Bufview.arith_into op (scalar sim k dest.len) b dest
        | _ -> fail "%s: bad operands" name);
        builtin_cost m pe 12.0 dest.len;
        pe.stats.flops <- pe.stats.flops +. float_of_int dest.len
    | Fmacs { dest; a; b; k } ->
        let dest = as_view fr.(dest) in
        let a = as_view fr.(a) and b = as_view fr.(b) in
        Bufview.fmac_into a b (as_float fr.(k)) dest;
        builtin_cost m pe 12.0 dest.len;
        pe.stats.flops <- pe.stats.flops +. (2.0 *. float_of_int dest.len)
    | Fmovs { dest; src } ->
        let dest = as_view fr.(dest) in
        (match fr.(src) with
        | Cdsd a | Cbuf a -> Bufview.blit ~src:a ~dst:dest
        | Cfloat k -> Bufview.fill dest k
        | _ -> fail "fmovs: bad source");
        builtin_cost m pe 8.0 dest.len
    | Const (d, c) -> fr.(d) <- c
    | Addi (d, a, b) -> fr.(d) <- Cint (as_int fr.(a) + as_int fr.(b))
    | Cmpi (d, p, a, b) ->
        fr.(d) <- Cint (if compare_ints p (as_int fr.(a)) (as_int fr.(b)) then 1 else 0)
    | If (c, then_, else_) ->
        cost pe 2.0;
        exec sim pe fr (if as_int fr.(c) <> 0 then then_ else else_) comms
    | Call f ->
        cost pe (float_of_int m.call_cycles);
        call sim pe sim.code.funcs.(f) [||] comms
    | Activate task ->
        cost pe 2.0;
        pe.stats.task_activations <- pe.stats.task_activations + 1;
        queue_task pe ~at:(pe.clock +. float_of_int m.task_activate_cycles) task
    | Assign_ptrs (dests, srcs) ->
        cost pe 4.0;
        let olds = Array.map (fun s -> pe.ptrs.(s)) srcs in
        Array.iteri (fun j d -> pe.ptrs.(d) <- olds.(j)) dests
    | Communicate c ->
        cost pe (float_of_int m.call_cycles);
        comms := c :: !comms
    | Unblock_cmd_stream -> pe.finished <- true
  done

(** Run [f] in a fresh frame whose first slots hold [args]. *)
and call (sim : t) (pe : pe) (f : func) (args : cell array) (comms : comm list ref) : unit =
  if Array.length args < f.nargs then
    fail "missing argument %d of %s" (Array.length args) f.fname;
  let fr = Array.make f.nslots (Cint 0) in
  Array.blit args 0 fr 0 f.nargs;
  exec sim pe fr f.body comms

(** Run a function or task; returns the communicate calls it made, in
    program order. *)
let exec_func (sim : t) (pe : pe) (f : func) (args : cell array) : comm list =
  let comms = ref [] in
  call sim pe f args comms;
  List.rev !comms

(** {1 Communication engine}

    Send-record lifecycle: a send is filed under one int packing
    (apply, seq, x, y) ({!send_key}) with the number of receivers that
    will read it from this table, and each receiver drops its claim
    once it has completed the exchange; the last one removes the record
    and hands it back to its sender, whose later sends of the same
    apply blit their snapshots into its arrays instead of allocating
    new ones.  A
    blocked receiver therefore always finds every record it has not
    consumed yet, and "sent" is simply table membership for the
    exchange it waits on.  Receivers that halt never drop their claims,
    so records they would have read stay until the end of the run and
    never return to their sender.

    A halted sender's missing sends are skipped by advancing its own
    [seq]: every exchange below it was either sent or skipped.  A
    receiver waits on exchange k+1 only after consuming k, so the one it
    finds missing is exactly the sender's [seq]. *)

let in_grid sim x y = x >= 0 && x < sim.width && y >= 0 && y < sim.height

(** The index [create] gave the [kind] named [name]. *)
let lookup (sim : t) (kind : kind) (name : string) : int = find sim.code.symbols kind name

(** Receivers that read the send of the PE at ([sx], [sy]): the in-grid
    PEs at the sender minus each peer offset. *)
let receivers_of (sim : t) (peers : (int * int) array) (sx : int) (sy : int) : int =
  let n = ref 0 in
  for i = 0 to Array.length peers - 1 do
    let dx, dy = peers.(i) in
    if in_grid sim (sx - dx) (sy - dy) then incr n
  done;
  !n

(** The send table's key of exchange [seq] of [apply] sent by the PE
    at ([x], [y]): one int, distinct for every sender and exchange. *)
let send_key (sim : t) ~(apply : int) ~(seq : int) (x : int) (y : int) : int =
  ((((((seq * sim.code.applies) + apply) * sim.width) + x) * sim.height) + y)

(** File a record that has receivers, tracking the table's high-water
    mark. *)
let store_send (sim : t) (key : int) (record : send_record) : unit =
  Hashtbl.replace sim.sends key record;
  let st = sim.sched in
  let live = Hashtbl.length sim.sends in
  if live > st.Sched.peak_sends_live then st.Sched.peak_sends_live <- live

(** A record for [pe]'s next send of [c]: a spare record of [c]'s
    apply, whose arrays have [c]'s sizes ({!stage} gives each apply one
    shape), or a fresh one. *)
let take_record (pe : pe) (c : comm) : send_record =
  match pe.spare.(c.apply_id) with
  | r :: rest ->
      pe.spare.(c.apply_id) <- rest;
      r
  | [] ->
      {
        sr_chunk_ready = Array.make c.num_chunks 0.0;
        sr_data = Array.init (Array.length c.send_ptrs) (fun _ -> Array.make c.c_nz 0.0);
        sr_pending = 0;
        sr_tainted = false;
      }

(** Register this PE's send for an exchange: charge injection cost and,
    when the send has in-grid receivers, file a record with a snapshot
    of the z range of each send buffer and the chunk completion times. *)
let register_send (sim : t) (pe : pe) (c : comm) (seq : int) : unit =
  let m = sim.machine in
  let self_mul = if m.self_send then 2.0 else 1.0 in
  let chunk_cost =
    float_of_int (c.total_dirs * c.chunk_size) *. m.send_cycles_per_elem *. self_mul
  in
  pe.stats.send_cycles <- pe.stats.send_cycles +. (float_of_int c.num_chunks *. chunk_cost);
  pe.stats.elems_sent <-
    pe.stats.elems_sent + (c.total_dirs * c.num_chunks * c.chunk_size);
  (* injection overlaps with waiting: model sender as busy for the first
     chunk only; the rest stream out asynchronously *)
  let inject_start = pe.clock in
  pe.clock <- pe.clock +. chunk_cost;
  if Trace.enabled sim.trace then
    trace_span sim pe ~cat:"send"
      ~name:(Printf.sprintf "inject a%d#%d" c.apply_id seq)
      inject_start pe.clock;
  let pending = receivers_of sim c.peers pe.px pe.py in
  if pending > 0 then begin
    let r = take_record pe c in
    for i = 0 to Array.length c.send_ptrs - 1 do
      Array.blit (deref pe c.send_ptrs.(i)) c.z_base r.sr_data.(i) 0 c.c_nz
    done;
    for k = 0 to c.num_chunks - 1 do
      r.sr_chunk_ready.(k) <- inject_start +. (float_of_int (k + 1) *. chunk_cost)
    done;
    r.sr_pending <- pending;
    (* taint propagation: data computed from substituted or unrecoverable
       inputs invalidates every receiver that reduces this send *)
    r.sr_tainted <- pe.tainted;
    store_send sim (send_key sim ~apply:c.apply_id ~seq pe.px pe.py) r;
    pe.live_sends <- pe.live_sends + 1
  end

(** Whether the resilience layer degraded past exchange [seq] of [apply]
    of the PE [spe].  Asked only while the exchange's record is absent:
    below [spe.seq] a record is absent only once its receivers have all
    consumed it. *)
let skipped (spe : pe) (apply : int) (seq : int) : bool =
  spe.halted && seq < spe.seq.(apply)

(** Whether the sender at offset ([dx], [dy]) has made exchange [seq]
    available: a boundary column always is; a fabric neighbour once its
    record is filed, or once the resilience layer skipped it. *)
let sender_ready (sim : t) (pe : pe) (apply : int) (seq : int) (dx : int) (dy : int) :
    bool =
  let sx = pe.px + dx and sy = pe.py + dy in
  (not (in_grid sim sx sy))
  || Hashtbl.mem sim.sends (send_key sim ~apply ~seq sx sy)
  || skipped sim.pes.(sx).(sy) apply seq

(** Check whether all senders this PE depends on have registered. *)
let exchange_ready (sim : t) (pe : pe) (w : waiting) : bool =
  let peers = w.w_comm.peers and apply = w.w_comm.apply_id in
  let rec go i =
    i >= Array.length peers
    ||
    let dx, dy = peers.(i) in
    sender_ready sim pe apply w.w_seq dx dy && go (i + 1)
  in
  go 0

(** The PE has consumed exchange [w]: drop its claim on each in-grid
    sender's record, removing a record once its last receiver is done
    and handing it back to its sender for reuse. *)
let release_sends (sim : t) (pe : pe) (w : waiting) : unit =
  let peers = w.w_comm.peers and apply = w.w_comm.apply_id in
  for i = 0 to Array.length peers - 1 do
    let dx, dy = peers.(i) in
    let sx = pe.px + dx and sy = pe.py + dy in
    if in_grid sim sx sy then begin
      let key = send_key sim ~apply ~seq:w.w_seq sx sy in
      match Hashtbl.find sim.sends key with
      | r ->
          r.sr_pending <- r.sr_pending - 1;
          if r.sr_pending = 0 then begin
            Hashtbl.remove sim.sends key;
            let spe = sim.pes.(sx).(sy) in
            spe.live_sends <- spe.live_sends - 1;
            spe.spare.(apply) <- r :: spe.spare.(apply)
          end
      | exception Not_found -> () (* a halted sender the run degraded past *)
    end
  done

(** Where a receiver's column comes from. *)
type source =
  | Src_fabric of float array * send_record
      (** the neighbour's record and the snapshot this slot reads *)
  | Src_halo of float array * int
      (** host-resident boundary column, read in place from this base *)
  | Src_skipped
      (** the sender halted and the resilience layer degraded past it:
          receivers substitute zeroes and mark their data invalid *)

(** The column a receiver gets for slot [sl] of a ready exchange: a
    fabric neighbour's snapshot or the host-resident boundary column.
    Either holds the exchange's [c_nz] elements from its base on. *)
let source_column (sim : t) (pe : pe) (c : comm) (seq : int) (sl : slot) : source =
  let sx = pe.px + sl.sl_dx and sy = pe.py + sl.sl_dy in
  if in_grid sim sx sy then
    match Hashtbl.find_opt sim.sends (send_key sim ~apply:c.apply_id ~seq sx sy) with
    | Some sr -> Src_fabric (sr.sr_data.(sl.sl_input), sr)
    | None ->
        if skipped sim.pes.(sx).(sy) c.apply_id seq then Src_skipped
        else fail "complete_exchange: sender disappeared"
  else begin
    (* boundary: Dirichlet column held host-side, always available *)
    match Hashtbl.find_opt sim.halo (sx, sy) with
    | Some col ->
        (* delivery reads this range of [col] unchecked *)
        let base = (sl.sl_halo * sim.zfull) + c.z_base in
        if base < 0 || c.c_nz < 0 || base + c.c_nz > Array.length col then
          invalid_arg "index out of bounds";
        Src_halo (col, base)
    | None -> fail "no boundary column for (%d,%d)" sx sy
  end

(** Add slot [sl]'s column, read from [start] on, to the terms of its
    receive buffer's reduction. *)
let add_term (tm : terms) (sl : slot) (col : float array) (start : int) : unit =
  let i = sl.sl_buf in
  let n = tm.tm_count.(i) in
  tm.tm_coeffs.(i).(n) <- sl.sl_coeff;
  tm.tm_cols.(i).(n) <- col;
  tm.tm_starts.(i).(n) <- start;
  tm.tm_count.(i) <- n + 1

(** Deliver chunk [off] of a column that starts at [base] in [col] to
    slot [sl], as damaged (or lost) by the link's [outcome]: write it
    into the slot's part of its receive buffer, or, with promoted
    coefficients, add it to the terms of its receive buffer's reduction,
    which {!complete_exchange} runs once every slot of the chunk is in. *)
let deliver (sim : t) (pe : pe) (c : comm) (sl : slot) (col : float array)
    ~(base : int) ~(off : int) (outcome : delivery) : unit =
  let cs = c.chunk_size in
  (* a clean chunk must lie inside the column's [c_nz] elements, as it
     had to inside a copy of them, and those lie inside [col]
     ({!source_column}) *)
  let past_column = cs > 0 && off + cs > c.c_nz in
  if c.promoted then
    match outcome with
    | Lost -> () (* the missing contribution reads as zero *)
    | Clean ->
        if past_column then invalid_arg "index out of bounds";
        add_term sim.terms sl col (base + off)
    | Damaged (idx, noise) ->
        let damaged = Array.sub col (base + off) cs in
        damaged.(idx) <- damaged.(idx) +. noise;
        add_term sim.terms sl damaged 0
  else
    let rcv = pe.buffers.(sl.sl_rcv) in
    let at = (sl.sl_d - 1) * cs in
    match outcome with
    | Lost -> Array.fill rcv at cs 0.0
    | Clean ->
        if past_column then invalid_arg "index out of bounds";
        Array.blit col (base + off) rcv at cs
    | Damaged (idx, noise) ->
        Array.blit col (base + off) rcv at cs;
        rcv.(at + idx) <- rcv.(at + idx) +. noise

(** Deliver all chunks and run the callbacks; assumes {!exchange_ready}.
    Each chunk's outcomes, arrivals and link traces are resolved slot by
    slot, in slot order; with promoted coefficients, one fused pass per
    receive buffer then writes the chunk's reduction. *)
let rec complete_exchange (sim : t) (pe : pe) (w : waiting) : unit =
  let m = sim.machine in
  let c = w.w_comm in
  let cs = c.chunk_size in
  let sources = Array.map (source_column sim pe c w.w_seq) c.slots in
  for k = 0 to c.num_chunks - 1 do
    let off = k * cs in
    let arrival = ref w.w_registered_at in
    if c.promoted then Array.fill sim.terms.tm_count 0 (Array.length c.rcv_bufs) 0;
    (* deliver into receive buffers *)
    for j = 0 to Array.length c.slots - 1 do
      let sl = c.slots.(j) in
      match sources.(j) with
      | Src_halo (col, base) ->
          (* host links are outside the fault model *)
          deliver sim pe c sl col ~base ~off Clean
      | Src_fabric (col, sr) ->
          let r = sr.sr_chunk_ready in
          let d = sl.sl_d in
          let sx = pe.px + sl.sl_dx and sy = pe.py + sl.sl_dy in
          let at0 = r.(k) +. float_of_int (d * m.hop_cycles) in
          let at, outcome =
            if Faults.enabled sim.faults then
              link_outcome sim pe ~apply:c.apply_id ~seq:w.w_seq ~chunk:k
                ~input:sl.sl_input ~sx ~sy ~d ~col ~off ~cs at0
            else (at0, Clean)
          in
          arrival := Float.max !arrival at;
          if Trace.enabled sim.trace then
            trace_link sim ~src:sim.pes.(sx).(sy) ~dst:pe ~dir:sl.sl_dir ~chunk:k
              ~elems:cs ~ready:r.(k) ~arrival:at;
          if sr.sr_tainted then pe.tainted <- true;
          deliver sim pe c sl col ~base:0 ~off outcome
      | Src_skipped ->
          (* sender halted: the receiver waited out the halt timeout,
             substitutes zeroes and marks itself *)
          (match (Faults.config sim.faults).resilience with
          | Some r ->
              arrival :=
                Float.max !arrival (w.w_registered_at +. r.Faults.halt_timeout_cycles)
          | None -> ());
          pe.tainted <- true;
          deliver sim pe c sl [||] ~base:0 ~off Lost
    done;
    (* the promoted reduction of each receive buffer, in slot order
       (with the one-shot reduction several directions share one
       buffer); a buffer left with no term reads as zeroes *)
    if c.promoted then begin
      let tm = sim.terms in
      for i = 0 to Array.length c.rcv_bufs - 1 do
        Bufview.scaled_sum_into ~coeffs:tm.tm_coeffs.(i) ~cols:tm.tm_cols.(i)
          ~starts:tm.tm_starts.(i) ~terms:tm.tm_count.(i) ~len:cs
          pe.buffers.(c.rcv_bufs.(i))
      done
    end;
    (* run the chunk callback once data for this chunk has arrived *)
    if !arrival > pe.clock then begin
      trace_span sim pe ~cat:"wait" ~name:"parked-on-exchange" pe.clock !arrival;
      pe.stats.wait_cycles <- pe.stats.wait_cycles +. (!arrival -. pe.clock);
      pe.clock <- !arrival
    end;
    (* queue-drain cost: every incoming wavelet is moved (and, with
       promoted coefficients, reduced) from the input queue to memory by
       the communication library; on the WSE2 the self-send workaround
       makes the PE drain its own looped-back wavelets as well *)
    let self_loopback = if m.self_send then c.self_loopback else 0 in
    let drain = float_of_int (c.incoming + self_loopback) *. m.drain_cycles_per_elem in
    trace_span sim pe ~cat:"recv" ~name:"drain" pe.clock (pe.clock +. drain);
    pe.clock <- pe.clock +. drain;
    pe.stats.compute_cycles <- pe.stats.compute_cycles +. drain;
    pe.stats.elems_drained <- pe.stats.elems_drained + c.incoming;
    (* with promoted coefficients the drain IS the algorithmic multiply
       and accumulate (@fmacs off the fabric queue, SS5.7) *)
    if c.promoted then
      pe.stats.flops <- pe.stats.flops +. (2.0 *. float_of_int c.incoming);
    pe.stats.task_activations <- pe.stats.task_activations + 1;
    pe.clock <- pe.clock +. float_of_int m.task_activate_cycles;
    let cb_start = pe.clock in
    let chunk_f = sim.code.funcs.(c.chunk_fn) in
    ignore (exec_func sim pe chunk_f [| Cint off |]);
    trace_span sim pe ~cat:"compute" ~name:chunk_f.fname cb_start pe.clock
  done;
  release_sends sim pe w;
  (* done callback: one final task activation *)
  pe.stats.task_activations <- pe.stats.task_activations + 1;
  pe.clock <- pe.clock +. float_of_int m.task_activate_cycles;
  let done_start = pe.clock in
  let done_f = sim.code.funcs.(c.done_fn) in
  let new_comms = exec_func sim pe done_f [||] in
  trace_span sim pe ~cat:"compute" ~name:done_f.fname done_start pe.clock;
  (* the done callback may start the next exchange *)
  List.iter (start_exchange sim pe) new_comms

and start_exchange (sim : t) (pe : pe) (c : comm) : unit =
  let apply = c.apply_id in
  let seq = pe.seq.(apply) in
  pe.seq.(apply) <- seq + 1;
  register_send sim pe c seq;
  if pe.waiting <> None then fail "PE(%d,%d): overlapping exchanges" pe.px pe.py;
  pe.waiting <- Some { w_comm = c; w_seq = seq; w_registered_at = pe.clock }

(** {1 Driver} *)

(** Run one queued task; returns true if anything executed.  The hardware
    scheduler dispatches the earliest-activated task, not the most
    recently queued one, so pop the entry with the smallest activation
    timestamp (ties resolve in insertion order).  A halted PE runs
    nothing. *)
let run_tasks (sim : t) (pe : pe) : bool =
  if pe.halted || Task_queue.is_empty pe.task_queue then false
  else begin
    (* fault injection at the dispatch point: the hardware scheduler is
       where a stuck or dead PE stops taking work *)
    let halted =
      Faults.enabled sim.faults
      && begin
           pe.dispatches <- pe.dispatches + 1;
           let n = pe.dispatches in
           if Faults.halt_here sim.faults ~x:pe.px ~y:pe.py ~activation:n
           then begin
             let st = Faults.stats sim.faults in
             st.halts <- st.halts + 1;
             pe.halted <- true;
             trace_fault sim pe ~name:"halt" pe.clock;
             true
           end
           else begin
             if Faults.stall_here sim.faults ~x:pe.px ~y:pe.py ~activation:n
             then begin
               let cycles = (Faults.config sim.faults).stall_cycles in
               let st = Faults.stats sim.faults in
               st.stalls <- st.stalls + 1;
               trace_span sim pe ~cat:"fault" ~name:"stall" pe.clock
                 (pe.clock +. cycles);
               pe.clock <- pe.clock +. cycles;
               pe.stats.wait_cycles <- pe.stats.wait_cycles +. cycles
             end;
             false
           end
         end
    in
    if halted then false
    else begin
      let ((at, _, task) as next) = Task_queue.min_elt pe.task_queue in
      pe.task_queue <- Task_queue.remove next pe.task_queue;
      pe.clock <- Float.max pe.clock at;
      let task_start = pe.clock in
      let f = sim.code.funcs.(task) in
      let comms = exec_func sim pe f [||] in
      trace_span sim pe ~cat:"compute" ~name:f.fname task_start pe.clock;
      List.iter (start_exchange sim pe) comms;
      true
    end
  end

let queued_tasks (sim : t) (pe : pe) : (float * string) list =
  List.map
    (fun (at, _, task) -> (at, sim.code.funcs.(task).fname))
    (Task_queue.elements pe.task_queue)

(** Whether the scheduler holds [pe]: it has [max_live_sends_per_pe]
    records its receivers have not consumed yet.  Holding a PE changes
    only when the host executes it, never what it computes, so results
    are bit-identical with or without the window. *)
let at_window (sim : t) (pe : pe) : bool =
  sim.window && pe.live_sends >= max_live_sends_per_pe

(** Advance one PE as far as possible; returns true on progress. *)
let step_pe (sim : t) (pe : pe) : bool =
  if pe.finished || pe.halted then false
  else begin
    let progressed = ref false in
    let continue_ = ref true in
    (* each pass registers at most one send, so checking the window
       here keeps the PE at or below it *)
    while !continue_ && not (at_window sim pe) do
      continue_ := false;
      (match pe.waiting with
      | Some w when exchange_ready sim pe w ->
          pe.waiting <- None;
          complete_exchange sim pe w;
          progressed := true;
          continue_ := true
      | _ -> ());
      if pe.waiting = None && run_tasks sim pe then begin
        progressed := true;
        continue_ := true
      end;
      if pe.finished then continue_ := false
    done;
    !progressed
  end

(** Start the program on every PE (host calls the exported [run]). *)
let launch (sim : t) : unit =
  let run = sim.code.funcs.(lookup sim Func "run") in
  Array.iter
    (Array.iter (fun pe ->
         let run_start = pe.clock in
         let comms = exec_func sim pe run [||] in
         trace_span sim pe ~cat:"compute" ~name:"run" run_start pe.clock;
         List.iter (start_exchange sim pe) comms))
    sim.pes

(** {2 Deadlock diagnostics} *)

(** In-grid senders of [w] that have not registered their send yet.
    Records are only freed once every receiver has consumed them, so a
    sender whose record is absent while [pe] still waits has never sent. *)
let missing_senders (sim : t) (pe : pe) (w : waiting) : (int * int) list =
  let apply = w.w_comm.apply_id in
  Array.fold_right
    (fun (dx, dy) acc ->
      if sender_ready sim pe apply w.w_seq dx dy then acc
      else (pe.px + dx, pe.py + dy) :: acc)
    w.w_comm.peers []

(** Quiescence sweep; probes finished flags until the first unfinished
    PE, counting each probe; the driver pays this sweep every round. *)
let all_done (sim : t) : bool =
  let st = sim.sched in
  let done_ = ref true in
  (try
     Array.iter
       (fun col ->
         Array.iter
           (fun pe ->
             st.probes <- st.probes + 1;
             (* a permanently halted PE will never unblock the command
                stream; it is accounted for by the validity mask *)
             if not (pe.finished || pe.halted) then begin
               done_ := false;
               raise Exit
             end)
           col)
       sim.pes
   with Exit -> ());
  !done_

(** Per-PE report of who is stuck on what: blocked PEs with their
    exchange id and the neighbours that never sent, plus PEs that are
    idle with no runnable work.  Capped so a wafer-scale deadlock does
    not produce a megabyte of text. *)
let deadlock_report (sim : t) : string =
  let max_detail = 16 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "deadlock: no PE can progress\n";
  let blocked = ref 0 and idle = ref 0 in
  Array.iter
    (fun col ->
      Array.iter
        (fun pe ->
          if not (pe.finished || pe.halted) then
            match pe.waiting with
            | Some w ->
                incr blocked;
                if !blocked <= max_detail then begin
                  let miss = missing_senders sim pe w in
                  Buffer.add_string buf
                    (Printf.sprintf
                       "  PE(%d,%d) blocked on exchange (apply_id=%d, seq=%d): \
                        missing sender%s %s\n"
                       pe.px pe.py w.w_comm.apply_id w.w_seq
                       (if List.length miss = 1 then "" else "s")
                       (if miss = [] then "<none: exchange ready but unscheduled>"
                        else
                          String.concat ", "
                            (List.map
                               (fun (x, y) -> Printf.sprintf "PE(%d,%d)" x y)
                               miss)))
                end
            | None ->
                incr idle;
                if !idle <= max_detail then
                  Buffer.add_string buf
                    (Printf.sprintf
                       "  PE(%d,%d) idle: not finished but has no queued task or \
                        pending exchange\n"
                       pe.px pe.py))
        col)
    sim.pes;
  if !blocked > max_detail then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more blocked PEs\n" (!blocked - max_detail));
  if !idle > max_detail then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more idle PEs\n" (!idle - max_detail));
  Buffer.add_string buf
    (Printf.sprintf "  total: %d blocked, %d idle, of %dx%d PEs" !blocked !idle
       sim.width sim.height);
  let halted =
    Array.fold_left
      (Array.fold_left (fun n pe -> if pe.halted then n + 1 else n))
      0 sim.pes
  in
  if halted > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "\n  %d PE%s permanently halted by fault injection (enable resilience \
          to degrade gracefully past them)"
         halted
         (if halted = 1 then "" else "s"));
  Buffer.contents buf

(** Lift the live-record window for the rest of the run if the fabric
    went quiescent with some PEs held at it; returns whether any was
    held.  When every PE performs every exchange this never fires: a
    held PE's oldest record waits on a receiver strictly behind it,
    which is either runnable or waits on a PE further behind still, so
    some PE can always progress.  It fires when a receiver halted or
    finished without consuming. *)
let lift_window (sim : t) : bool =
  let held =
    sim.window
    && Array.exists
         (Array.exists (fun pe ->
              (not (pe.finished || pe.halted))
              && pe.live_sends >= max_live_sends_per_pe))
         sim.pes
  in
  if held then sim.window <- false;
  held

(** Graceful degradation past halted PEs, run when the fabric has gone
    quiescent without finishing: every live receiver blocked on a sender
    that is permanently halted gives up after the resilience layer's
    halt timeout — the halted sender's [seq] moves past the pending
    exchange (receivers then substitute zeroes and taint themselves at
    delivery).  Another receiver of that exchange then finds it
    skipped, so each skipped exchange counts one halt timeout.  Returns
    whether anything new was marked; the driver alternates run /
    degrade rounds until either everything finishes or degradation
    stops making progress (a true deadlock).
    Without resilience (or with no injector) this is a no-op and the
    quiescent fabric is reported as deadlocked, as in the seed. *)
let degrade (sim : t) : bool =
  let f = sim.faults in
  if not (Faults.enabled f) then false
  else
    match (Faults.config f).resilience with
    | None -> false
    | Some r ->
        let marked = ref false in
        Array.iter
          (fun col ->
            Array.iter
              (fun pe ->
                if not (pe.finished || pe.halted) then
                  match pe.waiting with
                  | None -> ()
                  | Some w ->
                      List.iter
                        (fun (sx, sy) ->
                          let spe = sim.pes.(sx).(sy) in
                          if spe.halted then begin
                            (* [w_seq] is [spe]'s own [seq]: see
                               "Communication engine" *)
                            spe.seq.(w.w_comm.apply_id) <- w.w_seq + 1;
                            let st = Faults.stats f in
                            st.halt_timeouts <- st.halt_timeouts + 1;
                            st.recovery_cycles <-
                              st.recovery_cycles +. r.Faults.halt_timeout_cycles;
                            trace_fault sim pe ~name:"halt-timeout"
                              (w.w_registered_at +. r.Faults.halt_timeout_cycles);
                            marked := true
                          end)
                        (missing_senders sim pe w))
              col)
          sim.pes;
        !marked

(** {2 Driver} *)

(** The PEs in the order the driver visits them: column-major, or a
    Fisher–Yates permutation of it drawn from [seed]. *)
let visit_order ?seed (sim : t) : pe array =
  let order = Array.concat (Array.to_list sim.pes) in
  Option.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let pe = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- pe
      done)
    seed;
  order

(** Step every PE of [order] each round until no PE makes progress.  A
    PE's behaviour depends only on its own state and on the contents of
    send records, which are immutable once registered, so the order
    changes how often PEs are visited, never what they compute. *)
let run_polling ~(max_rounds : int) ~(order : pe array) (sim : t) : unit =
  let rounds = ref 0 in
  let rec drive () =
    let any = ref true in
    while (not (all_done sim)) && !any do
      incr rounds;
      if !rounds > max_rounds then fail "simulation did not converge";
      any := false;
      Array.iter
        (fun pe ->
          sim.sched.scans <- sim.sched.scans + 1;
          if step_pe sim pe then any := true)
        order
    done;
    if not (all_done sim) then
      (* quiescent but unfinished: release held PEs or degrade past
         halted ones, and rerun *)
      if lift_window sim || degrade sim then drive ()
      else raise (Sim_error (deadlock_report sim))
  in
  drive ()

(** What JSON summaries report under ["driver"]. *)
let driver = "polling"

(** Drive until every PE unblocks the command stream. *)
let run_to_completion ?max_rounds ?visit_seed (sim : t) : unit =
  let max_rounds =
    match max_rounds with Some r -> r | None -> sim.machine.sim_max_rounds
  in
  launch sim;
  run_polling ~max_rounds ~order:(visit_order ?seed:visit_seed sim) sim

(** Scheduler counters of the last run. *)
let sched_stats (sim : t) : Sched.stats = sim.sched

(** Per-PE validity mask, indexed [x][y]: false where the PE halted or
    consumed substituted / unrecoverable data (directly or transitively
    through a tainted neighbour's send).  All-true with the null
    injector. *)
let validity (sim : t) : bool array array =
  Array.map (Array.map (fun pe -> not (pe.halted || pe.tainted))) sim.pes

(** Wall-clock of the slowest PE, in cycles and seconds. *)
let elapsed_cycles (sim : t) : float =
  Array.fold_left
    (fun acc col -> Array.fold_left (fun acc pe -> Float.max acc pe.clock) acc col)
    0.0 sim.pes

let elapsed_seconds (sim : t) : float = elapsed_cycles sim /. sim.machine.clock_hz

(** Per-PE cycle accounts in the shape the trace aggregation consumes
    (row-major: y varies fastest within a column of constant x). *)
let pe_summaries (sim : t) : Wsc_trace.Aggregate.pe_summary list =
  let acc = ref [] in
  Array.iter
    (fun col ->
      Array.iter
        (fun pe ->
          acc :=
            {
              Wsc_trace.Aggregate.ps_x = pe.px;
              ps_y = pe.py;
              ps_compute = pe.stats.compute_cycles;
              ps_send = pe.stats.send_cycles;
              ps_wait = pe.stats.wait_cycles;
              ps_clock = pe.clock;
              ps_tasks = pe.stats.task_activations;
            }
            :: !acc)
        col)
    sim.pes;
  List.rev !acc

(** Aggregate statistics over all PEs. *)
let total_stats (sim : t) : pe_stats =
  let acc =
    {
      compute_cycles = 0.0;
      send_cycles = 0.0;
      wait_cycles = 0.0;
      task_activations = 0;
      flops = 0.0;
      elems_sent = 0;
      elems_drained = 0;
      mem_bytes = 0.0;
    }
  in
  Array.iter
    (fun col ->
      Array.iter
        (fun pe ->
          acc.compute_cycles <- acc.compute_cycles +. pe.stats.compute_cycles;
          acc.send_cycles <- acc.send_cycles +. pe.stats.send_cycles;
          acc.wait_cycles <- acc.wait_cycles +. pe.stats.wait_cycles;
          acc.task_activations <- acc.task_activations + pe.stats.task_activations;
          acc.flops <- acc.flops +. pe.stats.flops;
          acc.elems_sent <- acc.elems_sent + pe.stats.elems_sent;
          acc.elems_drained <- acc.elems_drained + pe.stats.elems_drained;
          acc.mem_bytes <- acc.mem_bytes +. pe.stats.mem_bytes)
        col)
    sim.pes;
  acc
