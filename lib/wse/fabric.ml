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
module Bufview = Wsc_core.Bufview
module Dmp = Wsc_dialects.Dmp
module Trace = Wsc_trace.Trace
module Faults = Wsc_faults.Faults

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(** {1 Communicate-call configuration}

    Each [communicate] call's config attr is decoded once per program
    ({!create}) into the exchange it registers: the source slots a
    receiver reads, in delivery order (input, swap, depth — the order
    the promoted reductions accumulate in, so FP results do not move),
    the distinct sender offsets, and the per-chunk wavelet counts. *)

let dir_vector = function
  | Dmp.East -> (1, 0)
  | Dmp.West -> (-1, 0)
  | Dmp.North -> (0, 1)
  | Dmp.South -> (0, -1)

(** One column a receiver takes in an exchange: input [sl_input] from
    the sender [sl_d] hops along [sl_dir], at offset ([sl_dx], [sl_dy])
    from the receiver. *)
type slot = {
  sl_input : int;
  sl_dir : Dmp.direction;
  sl_d : int;
  sl_dx : int;
  sl_dy : int;
  sl_rcv : string;  (** receive buffer *)
  sl_coeff : float;  (** promoted coefficient (0.0 when none applies) *)
  sl_halo : int;  (** state slot of the host-resident boundary column *)
}

type comm = {
  apply_id : int;
  z_base : int;
  c_nz : int;
  num_chunks : int;
  chunk_size : int;
  chunk_cb : string;
  done_cb : string;
  chunk_fn : int;  (** [chunk_cb]'s index in the staged program *)
  done_fn : int;
  promoted : bool;  (** coefficients are applied at delivery (§5.7) *)
  send_ptrs : string array;  (** per input *)
  slots : slot array;
  peers : (int * int) array;
      (** distinct sender offsets (dx, dy), in slot order: a receiver at
          (x, y) reads the senders at (x + dx, y + dy), so a sender at
          (x, y) is read by the in-grid receivers at (x - dx, y - dy) *)
  rcv_names : string array;  (** distinct receive buffers *)
  total_dirs : int;  (** directions a send is injected into *)
  incoming : int;  (** wavelets drained per chunk *)
  self_loopback : int;  (** looped-back wavelets per chunk (WSE2 self-send) *)
}

(** State slot a communicated input corresponds to, for boundary-column
    lookup: the Dirichlet halo is the initial value of that logical grid. *)
let halo_slot (send_ptr : string) : int =
  let p = send_ptr in
  if String.length p > 9 && String.sub p 0 9 = "ptr_state" then
    Option.value (int_of_string_opt (String.sub p 9 (String.length p - 9))) ~default:0
  else 0

let decode_comm ~(callback : string -> int) (a : attr) : comm =
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
                  | Some (String_attr s) -> s
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
                        (function String_attr s -> s | _ -> fail "cfg rcv buf")
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
  let slots =
    List.concat
      (List.mapi
         (fun i (send_ptr, swaps) ->
           List.concat_map
             (fun ((sw : Dmp.swap_desc), rcv) ->
               let vx, vy = dir_vector sw.dir in
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
                     sl_coeff =
                       (match
                          List.find_opt
                            (fun (ci, cdx, cdy, _) -> ci = i && cdx = dx && cdy = dy)
                            coeffs
                        with
                       | Some (_, _, _, c) -> c
                       | None -> 0.0);
                     sl_halo = halo_slot send_ptr;
                   }))
             swaps)
         inputs)
  in
  let dedup l =
    List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)
  in
  let swaps = List.concat_map (fun (_, s) -> List.map fst s) inputs in
  let chunk_cb = gets "chunk_cb" and done_cb = gets "done_cb" in
  {
    apply_id = geti "apply_id";
    z_base = geti "z_base";
    c_nz = geti "nz";
    num_chunks = geti "num_chunks";
    chunk_size = cs;
    chunk_cb;
    done_cb;
    chunk_fn = callback chunk_cb;
    done_fn = callback done_cb;
    promoted = coeffs <> [];
    send_ptrs = Array.of_list (List.map fst inputs);
    slots = Array.of_list slots;
    peers = Array.of_list (dedup (List.map (fun s -> (s.sl_dx, s.sl_dy)) slots));
    rcv_names =
      Array.of_list (dedup (List.concat_map (fun (_, s) -> List.map snd s) inputs));
    total_dirs = List.length swaps;
    incoming = List.fold_left (fun a (sw : Dmp.swap_desc) -> a + (sw.depth * cs)) 0 swaps;
    self_loopback = List.length swaps * cs;
  }

(** {1 Staged program}

    {!create} decodes every [csl.func] and [csl.task] once into an
    instruction array: opnames, attributes, [scf.if] regions, [csl.call]
    callees, [csl.activate] task names, [cmpi] predicates and each
    [communicate] call's {!comm} are resolved there, and each SSA value
    gets a slot in a per-call frame.  The staged program belongs to the
    simulation it was built for and every PE reads it, never writes it. *)

type cell = Cbuf of Bufview.t | Cdsd of Bufview.t | Cint of int | Cfloat of float

type pred = Slt | Sle | Sgt | Sge | Eq | Ne

(** One csl op.  Integer fields are frame slots, except the constants
    [off], [len], [stride] and [Increment_dsd]'s [by]. *)
type instr =
  | Get_global of int * string  (** destination, buffer *)
  | Deref_ptr of int * string  (** destination, pointer *)
  | Load_scalar of int * string
  | Store_scalar of string * int
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
  | Activate of string  (** a task known to {!code.index} *)
  | Assign_ptrs of string array * string array  (** destinations, sources *)
  | Communicate of comm
  | Unblock_cmd_stream

type func = {
  fname : string;
  nargs : int;  (** block arguments, the first slots of the frame *)
  nslots : int;
  body : instr array;
}

type code = {
  funcs : func array;
  index : (string, int) Hashtbl.t;  (** function or task name -> [funcs] *)
  comms : comm list;  (** every decoded communicate call *)
}

(** Stage one function or task.  Every decoding error is a [Sim_error]
    naming the function and the op. *)
let stage_func (index : (string, int) Hashtbl.t) (comms : comm list ref) (f : op) :
    func =
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
  let callee name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None -> fail "no function or task %s" name
  in
  let decode (o : op) : instr option =
    let arg i = use (operand o i) in
    let str k = string_attr_exn o k in
    let names k =
      match Csl.string_list_attr o k with
      | l -> Array.of_list l
      | exception Invalid_argument _ -> fail "%s is not a list of names" k
    in
    match o.opname with
    | "csl.get_global" -> Some (Get_global (def (result o), str "gname"))
    | "csl.deref_ptr" -> Some (Deref_ptr (def (result o), str "gname"))
    | "csl.load_scalar" -> Some (Load_scalar (def (result o), str "gname"))
    | "csl.store_scalar" -> Some (Store_scalar (str "gname", arg 0))
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
    | "csl.call" -> Some (Call (callee (str "callee")))
    | "csl.activate" ->
        let task = str "task" in
        ignore (callee task);
        Some (Activate task)
    | "csl.assign_ptrs" ->
        let dests = names "dests" and srcs = names "srcs" in
        if Array.length dests <> Array.length srcs then
          fail "%d destinations for %d sources" (Array.length dests) (Array.length srcs);
        Some (Assign_ptrs (dests, srcs))
    | "csl.member_call" -> (
        match str "field" with
        | "communicate" ->
            let c = decode_comm ~callback:callee (attr_exn o "config") in
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

let stage_program (program : op) : code =
  let defs =
    List.filter
      (fun o -> o.opname = "csl.func" || o.opname = "csl.task")
      (Csl.module_body program)
  in
  let name o =
    try string_attr_exn o "sym_name"
    with Invalid_argument _ -> fail "%s without a sym_name" o.opname
  in
  let index = Hashtbl.create 16 in
  (* a function shadows a task of the same name *)
  List.iter
    (fun kind ->
      List.iteri (fun i o -> if o.opname = kind then Hashtbl.replace index (name o) i) defs)
    [ "csl.task"; "csl.func" ];
  let comms = ref [] in
  let funcs = Array.of_list (List.map (stage_func index comms) defs) in
  { funcs; index; comms = List.rev !comms }

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

type send_record = {
  sr_chunk_ready : float array;  (** completion time of each chunk injection *)
  sr_data : float array array;  (** snapshot of the sent z-range, per input *)
  mutable sr_pending : int;
      (** receivers that have not yet completed the exchange; the record
          leaves the table at zero *)
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
  type t = float * int * string

  let compare (a, i, _) (b, j, _) =
    match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

type task_queue = Task_queue.t

type pe = {
  px : int;
  py : int;
  globals : (string, float array) Hashtbl.t;
  scalars : (string, int ref) Hashtbl.t;
  ptrs : (string, string ref) Hashtbl.t;
  mutable clock : float;
  mutable finished : bool;
  mutable task_queue : task_queue;
  mutable task_stamps : int;  (** insertion stamps handed out so far *)
  mutable waiting : waiting option;
  mutable seq : (int, int) Hashtbl.t;  (** apply_id -> communicate count *)
  stats : pe_stats;
  mutable live_sends : int;  (** this PE's records still in the send table *)
}

let queue_task (pe : pe) ~(at : float) (task : string) : unit =
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

type t = {
  machine : Machine.t;
  program : op;
  width : int;
  height : int;
  pes : pe array array;
  sends : (int * int * int * int, send_record) Hashtbl.t;
      (** (apply, seq, x, y) -> record *)
  halo : (int * int, float array) Hashtbl.t;
      (** host-resident boundary columns (x, y outside the PE grid) *)
  z_halo : int;
  zfull : int;
  nz : int;
  sched : Sched.stats;
  trace : Trace.sink;
      (** where the simulator reports spans and link transfers; with
          {!Trace.null} (the default) every site is a dead branch and
          results are bit-identical to an untraced run *)
  faults : Faults.t;
      (** fault-injection schedule and resilience bookkeeping; with
          {!Faults.null} (the default) every injection site is a dead
          branch, exactly like the trace sink *)
  code : code;  (** the program, staged once by {!create} *)
  mutable window : bool;
      (** whether the scheduler holds PEs at {!max_live_sends_per_pe}
          live records; lifted for the rest of the run if the fabric goes
          quiescent with PEs held (see {!lift_window}) *)
}

let new_pe (program : op) x y : pe =
  let globals = Hashtbl.create 16 in
  let scalars = Hashtbl.create 4 in
  let ptrs = Hashtbl.create 8 in
  List.iter
    (fun o ->
      match o.opname with
      | "csl.global_buffer" ->
          let name = string_attr_exn o "sym_name" in
          let size =
            match attr_exn o "type" with
            | Type_attr t -> num_elements t
            | _ -> fail "bad buffer type"
          in
          Hashtbl.replace globals name (Array.make size 0.0)
      | "csl.global_scalar" ->
          let name = string_attr_exn o "sym_name" in
          let init = match attr o "init" with Some (Int_attr i) -> i | _ -> 0 in
          Hashtbl.replace scalars name (ref init)
      | "csl.ptr_global" ->
          Hashtbl.replace ptrs (string_attr_exn o "sym_name")
            (ref (string_attr_exn o "target"))
      | _ -> ())
    (Csl.module_body program);
  {
    px = x;
    py = y;
    globals;
    scalars;
    ptrs;
    clock = 0.0;
    finished = false;
    task_queue = Task_queue.empty;
    task_stamps = 0;
    waiting = None;
    seq = Hashtbl.create 4;
    live_sends = 0;
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

(** Largest simulation, in estimated bytes, {!create} instantiates:
    every PE's program memory plus the send-table bound.  1 GiB admits
    every grid up to the benchmarks' Small size (100x100 PEs). *)
let max_simulated_bytes = 1 lsl 30

(** Largest sequential reference [wsc simulate] runs next to the fabric,
    in estimated bytes and apply-body ops (as
    [Stencil_program.reference_estimate] counts them).  At about 4 ns per
    op on a 2-core x86-64 host, 2e10 ops is a minute or two; the
    benchmarks' Small size fits at a few timesteps. *)
let max_reference_bytes = max_simulated_bytes

let max_reference_point_ops = 20_000_000_000

(** Bytes of one live send record: its column snapshots and chunk
    times as host floats, plus the table entry, key and headers. *)
let record_bytes (c : comm) : int =
  (8 * ((Array.length c.send_ptrs * c.c_nz) + c.num_chunks)) + 128

(** Estimated memory of simulating [program] on [pes] PEs. *)
let estimate_bytes ~(pes : int) ~(memory_bytes : int) (comms : comm list) : int =
  let record = List.fold_left (fun acc c -> max acc (record_bytes c)) 0 comms in
  pes * (memory_bytes + (max_live_sends_per_pe * record))

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
  let estimate = estimate_bytes ~pes:(width * height) ~memory_bytes:mem code.comms in
  if estimate > max_simulated_bytes then
    fail
      "PE grid %dx%d needs an estimated %d bytes to simulate (%d bytes of \
       program memory per PE plus the send-table bound), over the limit of %d \
       bytes; use a smaller proxy grid"
      width height estimate mem max_simulated_bytes;
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
    program;
    width;
    height;
    pes = Array.init width (fun x -> Array.init height (fun y -> new_pe program x y));
    sends = Hashtbl.create 1024;
    halo = Hashtbl.create 64;
    z_halo = int_attr_exn program "z_halo";
    zfull = int_attr_exn program "zfull";
    nz = int_attr_exn program "nz";
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
              Faults.taint f ~x:pe.px ~y:pe.py;
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

let buffer_of (pe : pe) name : float array =
  match Hashtbl.find_opt pe.globals name with
  | Some a -> a
  | None -> fail "PE(%d,%d): no buffer %s" pe.px pe.py name

let deref (pe : pe) ptr : float array =
  match Hashtbl.find_opt pe.ptrs ptr with
  | Some target -> buffer_of pe !target
  | None -> fail "PE(%d,%d): no pointer %s" pe.px pe.py ptr

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
let rec exec (sim : t) (pe : pe) (fr : cell array) (body : instr array)
    (comms : comm list ref) : unit =
  let m = sim.machine in
  for i = 0 to Array.length body - 1 do
    match body.(i) with
    | Get_global (d, name) ->
        cost pe 1.0;
        fr.(d) <- Cbuf (Bufview.of_array (buffer_of pe name))
    | Deref_ptr (d, name) ->
        cost pe 1.0;
        fr.(d) <- Cbuf (Bufview.of_array (deref pe name))
    | Load_scalar (d, name) ->
        cost pe 1.0;
        fr.(d) <- Cint !(Hashtbl.find pe.scalars name)
    | Store_scalar (name, v) ->
        cost pe 1.0;
        Hashtbl.find pe.scalars name := as_int fr.(v)
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
        | (Cdsd a | Cbuf a), Cfloat k -> Bufview.arith_scalar_into op a k dest
        | (Cdsd a | Cbuf a), Cint k -> Bufview.arith_scalar_into op a (float_of_int k) dest
        | Cfloat k, (Cdsd b | Cbuf b) -> Bufview.scalar_arith_into op k b dest
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
        let olds = Array.map (fun s -> !(Hashtbl.find pe.ptrs s)) srcs in
        Array.iteri (fun j d -> Hashtbl.find pe.ptrs d := olds.(j)) dests
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

(** The staged function or task [name]. *)
let func_named (sim : t) (name : string) : func =
  match Hashtbl.find_opt sim.code.index name with
  | Some i -> sim.code.funcs.(i)
  | None -> fail "no function or task %s" name

(** Run a function or task; returns the communicate calls it made, in
    program order. *)
let exec_func (sim : t) (pe : pe) (f : func) (args : cell array) : comm list =
  let comms = ref [] in
  call sim pe f args comms;
  List.rev !comms

(** {1 Communication engine}

    Send-record lifecycle: a send is filed under (apply, seq, x, y) with
    the number of receivers that will read it from this table, and each
    receiver drops its claim once it has completed the exchange; the
    last one removes the record.  A blocked receiver therefore always
    finds every record it has not consumed yet, and "sent" is simply
    table membership for the exchange it waits on.  Receivers that halt
    never drop their claims, so records they would have read stay until
    the end of the run. *)

let in_grid sim x y = x >= 0 && x < sim.width && y >= 0 && y < sim.height

(** Receivers that read the send of the PE at ([sx], [sy]): the in-grid
    PEs at the sender minus each peer offset. *)
let receivers_of (sim : t) (peers : (int * int) array) (sx : int) (sy : int) : int =
  let n = ref 0 in
  for i = 0 to Array.length peers - 1 do
    let dx, dy = peers.(i) in
    if in_grid sim (sx - dx) (sy - dy) then incr n
  done;
  !n

(** File a record that has receivers, tracking the table's high-water
    mark. *)
let store_send (sim : t) key (record : send_record) : unit =
  Hashtbl.replace sim.sends key record;
  let st = sim.sched in
  let live = Hashtbl.length sim.sends in
  if live > st.Sched.peak_sends_live then st.Sched.peak_sends_live <- live

(** Register this PE's send for an exchange: snapshot the z range of each
    send buffer, charge injection cost, record chunk completion times. *)
let register_send (sim : t) (pe : pe) (c : comm) (seq : int) : unit =
  let m = sim.machine in
  let data =
    Array.map (fun ptr -> Array.sub (deref pe ptr) c.z_base c.c_nz) c.send_ptrs
  in
  let self_mul = if m.self_send then 2.0 else 1.0 in
  let chunk_cost =
    float_of_int (c.total_dirs * c.chunk_size) *. m.send_cycles_per_elem *. self_mul
  in
  let ready =
    Array.init c.num_chunks (fun k ->
        pe.clock +. (float_of_int (k + 1) *. chunk_cost))
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
  let key = (c.apply_id, seq, pe.px, pe.py) in
  let pending = receivers_of sim c.peers pe.px pe.py in
  if pending > 0 then begin
    store_send sim key { sr_chunk_ready = ready; sr_data = data; sr_pending = pending };
    pe.live_sends <- pe.live_sends + 1
  end;
  (* taint propagation: data computed from substituted or unrecoverable
     inputs invalidates every receiver that reduces this send *)
  if Faults.enabled sim.faults && Faults.is_tainted sim.faults ~x:pe.px ~y:pe.py
  then Faults.taint_send sim.faults ~apply:c.apply_id ~seq ~x:pe.px ~y:pe.py

(** Whether the sender at offset ([dx], [dy]) has made exchange [seq]
    available: a boundary column always is; a fabric neighbour once its
    record is filed, or once the resilience layer skipped it. *)
let sender_ready (sim : t) (pe : pe) (apply : int) (seq : int) (dx : int) (dy : int) :
    bool =
  let sx = pe.px + dx and sy = pe.py + dy in
  (not (in_grid sim sx sy))
  || Hashtbl.mem sim.sends (apply, seq, sx, sy)
  || (Faults.enabled sim.faults && Faults.is_skipped sim.faults ~apply ~seq ~x:sx ~y:sy)

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
    sender's record, removing a record once its last receiver is done. *)
let release_sends (sim : t) (pe : pe) (w : waiting) : unit =
  let peers = w.w_comm.peers and apply = w.w_comm.apply_id in
  for i = 0 to Array.length peers - 1 do
    let dx, dy = peers.(i) in
    let sx = pe.px + dx and sy = pe.py + dy in
    if in_grid sim sx sy then begin
      let key = (apply, w.w_seq, sx, sy) in
      match Hashtbl.find sim.sends key with
      | r ->
          r.sr_pending <- r.sr_pending - 1;
          if r.sr_pending = 0 then begin
            Hashtbl.remove sim.sends key;
            let spe = sim.pes.(sx).(sy) in
            spe.live_sends <- spe.live_sends - 1
          end
      | exception Not_found -> () (* a halted sender the run degraded past *)
    end
  done

(** Where a receiver's column comes from. *)
type source =
  | Src_fabric of float array * float array
      (** neighbour's snapshot and per-chunk injection-ready times *)
  | Src_halo of float array  (** host-resident boundary column *)
  | Src_skipped
      (** the sender halted and the resilience layer degraded past it:
          receivers substitute zeroes and mark their data invalid *)

(** The column a receiver gets for slot [sl] of a ready exchange: a
    fabric neighbour's snapshot or the host-resident boundary column. *)
let source_column (sim : t) (pe : pe) (c : comm) (seq : int) (sl : slot) : source =
  let sx = pe.px + sl.sl_dx and sy = pe.py + sl.sl_dy in
  if in_grid sim sx sy then
    match Hashtbl.find_opt sim.sends (c.apply_id, seq, sx, sy) with
    | Some sr -> Src_fabric (sr.sr_data.(sl.sl_input), sr.sr_chunk_ready)
    | None ->
        if
          Faults.enabled sim.faults
          && Faults.is_skipped sim.faults ~apply:c.apply_id ~seq ~x:sx ~y:sy
        then Src_skipped
        else fail "complete_exchange: sender disappeared"
  else begin
    (* boundary: Dirichlet column held host-side, always available *)
    match Hashtbl.find_opt sim.halo (sx, sy) with
    | Some col ->
        Src_halo (Array.sub col ((sl.sl_halo * sim.zfull) + c.z_base) c.c_nz)
    | None -> fail "no boundary column for (%d,%d)" sx sy
  end

(** Deliver all chunks and run the callbacks; assumes {!exchange_ready}. *)
let rec complete_exchange (sim : t) (pe : pe) (w : waiting) : unit =
  let m = sim.machine in
  let c = w.w_comm in
  let cs = c.chunk_size in
  let sources = Array.map (source_column sim pe c w.w_seq) c.slots in
  for k = 0 to c.num_chunks - 1 do
    let off = k * cs in
    let arrival = ref w.w_registered_at in
    (* promoted staging buffers accumulate; clear once per chunk (with
       the one-shot reduction several directions share one buffer) *)
    if c.promoted then
      Array.iter
        (fun name ->
          let rcv = buffer_of pe name in
          Array.fill rcv 0 (Array.length rcv) 0.0)
        c.rcv_names;
    (* deliver into receive buffers *)
    Array.iteri
      (fun j sl ->
        let rcv = buffer_of pe sl.sl_rcv in
        let d = sl.sl_d in
        (* write [col] into this source's slot of the receive buffer, as
           damaged (or lost) by the link's outcome *)
        let deliver (col : float array) (outcome : delivery) : unit =
          if c.promoted then begin
            let coeff = sl.sl_coeff in
            match outcome with
            | Lost -> () (* the missing contribution reads as zero *)
            | Clean ->
                for z = 0 to cs - 1 do
                  rcv.(z) <- rcv.(z) +. (coeff *. col.(off + z))
                done
            | Damaged (idx, noise) ->
                for z = 0 to cs - 1 do
                  let v = col.(off + z) in
                  let v = if z = idx then v +. noise else v in
                  rcv.(z) <- rcv.(z) +. (coeff *. v)
                done
          end
          else
            match outcome with
            | Lost -> Array.fill rcv ((d - 1) * cs) cs 0.0
            | Clean -> Array.blit col off rcv ((d - 1) * cs) cs
            | Damaged (idx, noise) ->
                Array.blit col off rcv ((d - 1) * cs) cs;
                rcv.(((d - 1) * cs) + idx) <- rcv.(((d - 1) * cs) + idx) +. noise
        in
        match sources.(j) with
        | Src_halo col ->
            (* host links are outside the fault model *)
            deliver col Clean
        | Src_fabric (col, r) ->
            let sx = pe.px + sl.sl_dx and sy = pe.py + sl.sl_dy in
            let at0 = r.(k) +. float_of_int (d * m.hop_cycles) in
            let at, outcome =
              if Faults.enabled sim.faults then
                link_outcome sim pe ~apply:c.apply_id ~seq:w.w_seq ~chunk:k
                  ~input:sl.sl_input ~sx ~sy ~d ~col ~off ~cs at0
              else (at0, Clean)
            in
            arrival := Float.max !arrival at;
            trace_link sim ~src:sim.pes.(sx).(sy) ~dst:pe ~dir:sl.sl_dir ~chunk:k
              ~elems:cs ~ready:r.(k) ~arrival:at;
            if
              Faults.enabled sim.faults
              && Faults.is_tainted_send sim.faults ~apply:c.apply_id ~seq:w.w_seq
                   ~x:sx ~y:sy
            then Faults.taint sim.faults ~x:pe.px ~y:pe.py;
            deliver col outcome
        | Src_skipped ->
            (* sender halted: the receiver waited out the halt timeout,
               substitutes zeroes and marks itself *)
            (match (Faults.config sim.faults).resilience with
            | Some r ->
                arrival :=
                  Float.max !arrival (w.w_registered_at +. r.Faults.halt_timeout_cycles)
            | None -> ());
            Faults.taint sim.faults ~x:pe.px ~y:pe.py;
            deliver [||] Lost)
      c.slots;
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
    ignore (exec_func sim pe sim.code.funcs.(c.chunk_fn) [| Cint off |]);
    trace_span sim pe ~cat:"compute" ~name:c.chunk_cb cb_start pe.clock
  done;
  release_sends sim pe w;
  (* done callback: one final task activation *)
  pe.stats.task_activations <- pe.stats.task_activations + 1;
  pe.clock <- pe.clock +. float_of_int m.task_activate_cycles;
  let done_start = pe.clock in
  let new_comms = exec_func sim pe sim.code.funcs.(c.done_fn) [||] in
  trace_span sim pe ~cat:"compute" ~name:c.done_cb done_start pe.clock;
  (* the done callback may start the next exchange *)
  List.iter (start_exchange sim pe) new_comms

and start_exchange (sim : t) (pe : pe) (c : comm) : unit =
  let apply = c.apply_id in
  let seq =
    let s = Option.value (Hashtbl.find_opt pe.seq apply) ~default:0 in
    Hashtbl.replace pe.seq apply (s + 1);
    s
  in
  register_send sim pe c seq;
  if pe.waiting <> None then fail "PE(%d,%d): overlapping exchanges" pe.px pe.py;
  pe.waiting <- Some { w_comm = c; w_seq = seq; w_registered_at = pe.clock }

(** {1 Driver} *)

(** Run one queued task; returns true if anything executed.  The hardware
    scheduler dispatches the earliest-activated task, not the most
    recently queued one, so pop the entry with the smallest activation
    timestamp (ties resolve in insertion order). *)
let run_tasks (sim : t) (pe : pe) : bool =
  if Task_queue.is_empty pe.task_queue then false
  else begin
    (* fault injection at the dispatch point: the hardware scheduler is
       where a stuck or dead PE stops taking work *)
    let halted =
      Faults.enabled sim.faults
      && begin
           let n = Faults.next_dispatch sim.faults ~x:pe.px ~y:pe.py in
           if Faults.halt_here sim.faults ~x:pe.px ~y:pe.py ~activation:n
           then begin
             Faults.record_halt sim.faults ~x:pe.px ~y:pe.py;
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
      let ((at, _, name) as next) = Task_queue.min_elt pe.task_queue in
      pe.task_queue <- Task_queue.remove next pe.task_queue;
      pe.clock <- Float.max pe.clock at;
      let task_start = pe.clock in
      let comms = exec_func sim pe (func_named sim name) [||] in
      trace_span sim pe ~cat:"compute" ~name task_start pe.clock;
      List.iter (start_exchange sim pe) comms;
      true
    end
  end

let queued_tasks (pe : pe) : (float * string) list =
  List.map (fun (at, _, task) -> (at, task)) (Task_queue.elements pe.task_queue)

(** Whether the scheduler holds [pe]: it has [max_live_sends_per_pe]
    records its receivers have not consumed yet.  Holding a PE changes
    only when the host executes it, never what it computes, so results
    are bit-identical with or without the window. *)
let at_window (sim : t) (pe : pe) : bool =
  sim.window && pe.live_sends >= max_live_sends_per_pe

(** Advance one PE as far as possible; returns true on progress. *)
let step_pe (sim : t) (pe : pe) : bool =
  if
    pe.finished
    || Faults.enabled sim.faults
       && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py
  then false
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
  Array.iter
    (Array.iter (fun pe ->
         let run_start = pe.clock in
         let comms = exec_func sim pe (func_named sim "run") [||] in
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
             if
               (not pe.finished)
               && not
                    (Faults.enabled sim.faults
                    && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py)
             then begin
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
          if
            (not pe.finished)
            && not
                 (Faults.enabled sim.faults
                 && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py)
          then
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
  let halted = Faults.halted_count sim.faults in
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
              (not pe.finished)
              && pe.live_sends >= max_live_sends_per_pe
              && not
                   (Faults.enabled sim.faults
                   && Faults.is_halted sim.faults ~x:pe.px ~y:pe.py)))
         sim.pes
  in
  if held then sim.window <- false;
  held

(** Graceful degradation past halted PEs, run when the fabric has gone
    quiescent without finishing: every live receiver blocked on a sender
    that is permanently halted gives up after the resilience layer's
    halt timeout — the pending send is marked skipped (receivers then
    substitute zeroes and taint themselves at delivery).  Returns
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
                if
                  (not pe.finished)
                  && not (Faults.is_halted f ~x:pe.px ~y:pe.py)
                then
                  match pe.waiting with
                  | None -> ()
                  | Some w ->
                      List.iter
                        (fun (sx, sy) ->
                          if Faults.is_halted f ~x:sx ~y:sy then begin
                            Faults.skip_send f ~apply:w.w_comm.apply_id
                              ~seq:w.w_seq ~x:sx ~y:sy;
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
  Array.init sim.width (fun x ->
      Array.init sim.height (fun y ->
          not
            (Faults.is_halted sim.faults ~x ~y
            || Faults.is_tainted sim.faults ~x ~y)))

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
