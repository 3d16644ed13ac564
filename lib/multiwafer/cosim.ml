(** Multi-wafer co-simulation — see the interface.

    Execution is bulk-synchronous at wafer granularity: one BSP epoch
    is one global timestep.  Each epoch, every wafer's subproblem is
    rebuilt from the current global state (its interior plus a full
    halo ring, so inter-wafer halos are exchanged through host memory
    with perfect fidelity), simulated on its own fabric, and its
    interior gathered back.  Wafers run one at a time, in index order,
    in the calling domain: running the ranks in parallel is the
    hardware's job, not the simulator's.  Cells of the global halo
    ring keep their initial values forever — exactly the single-wafer
    host's Dirichlet boundary treatment — so the gathered fields are
    bit-identical to the undecomposed simulation by construction, and
    the modeled interconnect charges time without touching data.

    Resilience: the global grids are only mutated at the gather, and
    the gather only runs when every live wafer simulated on
    checksum-verified halos — so any detected fault (halo drop or
    corruption, wafer crash, wafer loss) leaves the globals exactly as
    they stood at the end of the previous epoch.  Recovery restores the
    last checkpoint and re-executes from there; every re-execution is
    keyed with a fresh attempt number, so transient faults clear and
    the recovered fields stay bit-identical to the fault-free run.  A
    wafer whose epoch exhausts [max_retries] is declared dead: its
    interior freezes, taint spreads to neighbours through the halo
    graph, and the run completes with a validity report instead of
    crashing. *)

module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Dmp = Wsc_dialects.Dmp
module Pipeline = Wsc_core.Pipeline
module Engine = Wsc_serve.Engine
module Cache = Wsc_serve.Cache
module Host = Wsc_wse.Host
module Fabric = Wsc_wse.Fabric
module Machine = Wsc_wse.Machine
module Faults = Wsc_faults.Faults
module Wf = Wsc_faults.Faults.Wafer

exception Cosim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Cosim_error s)) fmt

let domains_spawned () = 0

type recovery = {
  rollbacks : int;
  replayed_epochs : int;
  checkpoints : int;
  checkpoint_bytes : int;
  respawns : int;
  detections : int;
  degraded : bool;
  lost : (int * int) list;
  tainted : (int * int) list;
}

type t = {
  plan : Decompose.plan;
  grids : I.grid list;  (** gathered global state, [Host.read_all] shape *)
  epochs : int;
  device_cycles : float;  (** Σ over epochs of the slowest wafer's cycles *)
  interconnect_s : float;  (** modeled inter-wafer exchange time *)
  exchange_bytes : int;  (** bytes a real interconnect would have moved *)
  cache : Cache.stats;  (** compile-engine cache counters after compiling *)
  distinct_programs : int;  (** distinct per-wafer slice shapes *)
  wall_s : float;
  recovery : recovery option;  (** [None] unless a fault injector ran *)
}

(** {!Wsc_frontends.Stencil_program.init_grids}. *)
let init_grids = P.init_grids

(** Bit-exact comparison (not a tolerance): shape and every float's
    bits. *)
let grids_bit_identical (a : I.grid list) (b : I.grid list) : bool =
  List.length a = List.length b
  && List.for_all2
       (fun (x : I.grid) (y : I.grid) ->
         x.I.gbounds = y.I.gbounds
         && Array.length x.I.gdata = Array.length y.I.gdata
         &&
         let ok = ref true in
         Array.iteri
           (fun i v ->
             if Int64.bits_of_float v <> Int64.bits_of_float y.I.gdata.(i) then
               ok := false)
           x.I.gdata;
         !ok)
       a b

(** The undecomposed single-wafer run under the same pipeline options —
    the bit-identity baseline. *)
let reference ?(machine = Machine.wse3) ?(options = Pipeline.default_options)
    (p : P.t) : I.grid list =
  let compiled = Pipeline.compile ~options (P.compile p) in
  let h = Host.simulate machine compiled (P.init_grids p) in
  Host.read_all h

(* ------------------------------------------------------------------ *)
(* halo strips                                                         *)
(* ------------------------------------------------------------------ *)

(* the fault-draw key of a halo strip's side: -y, +y, +x, -x *)
let dir_code = function
  | Dmp.South -> 0
  | Dmp.North -> 1
  | Dmp.East -> 2
  | Dmp.West -> 3

(** The view cells a swap fills with a neighbour's data (the whole
    z column per cell: damage in an uncarried column is harmless to the
    computation and keeps the receiver-side checksum conservative). *)
let strip_cells (s : Decompose.slice) (w : Dmp.swap_desc) : (int * int) list =
  let depth = w.Dmp.depth in
  (* the strip's extent along an axis the neighbour's offset is [v] on *)
  let span v n =
    if v < 0 then List.init depth (fun i -> i - depth)
    else if v > 0 then List.init depth (fun i -> n + i)
    else List.init n Fun.id
  in
  let vx, vy = Dmp.vector w.Dmp.dir in
  let rows = span vy s.Decompose.sny in
  List.concat_map (fun x -> List.map (fun y -> (x, y)) rows) (span vx s.Decompose.snx)

let cell_floats (g : I.grid) (x : int) (y : int) : float array =
  match I.grid_get g [ x; y ] with
  | I.Rtensor a -> a
  | I.Rfloat v -> [| v |]
  | _ -> assert false

(** Receiver-side checksum over a swap's strip, all state grids — the
    simulated protocol computes it on both ends of the transfer. *)
let strip_checksum (view : I.grid list) (cells : (int * int) list) : int64 =
  let flat =
    Array.concat
      (List.concat_map
         (fun g -> List.map (fun (x, y) -> cell_floats g x y) cells)
         view)
  in
  Faults.checksum flat ~off:0 ~len:(Array.length flat)

let strip_scalars (view : I.grid list) (cells : (int * int) list) : int =
  List.fold_left
    (fun acc (g : I.grid) ->
      List.fold_left
        (fun a (x, y) -> a + Array.length (cell_floats g x y))
        acc cells)
    0 view

(** A dropped transfer: the receive buffer was never written. *)
let zero_strip (view : I.grid list) (cells : (int * int) list) : unit =
  List.iter
    (fun g ->
      List.iter
        (fun (x, y) ->
          match I.grid_get g [ x; y ] with
          | I.Rtensor a ->
              I.grid_set g [ x; y ] (I.Rtensor (Array.make (Array.length a) 0.0))
          | I.Rfloat _ -> I.grid_set g [ x; y ] (I.Rfloat 0.0)
          | _ -> assert false)
        cells)
    view

(** Perturb scalar [idx] of the flattened strip by [noise]. *)
let corrupt_strip (view : I.grid list) (cells : (int * int) list) ~(idx : int)
    ~(noise : float) : unit =
  let seen = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun (x, y) ->
          let a = cell_floats g x y in
          let n = Array.length a in
          if !seen <= idx && idx < !seen + n then begin
            let a = Array.copy a in
            a.(idx - !seen) <- a.(idx - !seen) +. noise;
            I.grid_set g [ x; y ] (I.Rtensor a)
          end;
          seen := !seen + n)
        cells)
    view

(* ------------------------------------------------------------------ *)
(* the run                                                             *)
(* ------------------------------------------------------------------ *)

type status = Healthy | Crashed | Lost_now | Halo_bad

let run ?engine ?(interconnect = Interconnect.default)
    ?(machine = Machine.wse3) ?(faults = Wf.null)
    ~(wafers : int * int) (p : P.t) : t =
  let t0 = Unix.gettimeofday () in
  let pl = Decompose.plan ~wafers p in
  let slices = Array.of_list pl.Decompose.slices in
  let n = Array.length slices in
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let subs = Array.map (Decompose.subprogram pl) slices in
  let distinct_programs =
    Array.to_list subs
    |> List.map (fun (s : P.t) -> s.P.extents)
    |> List.sort_uniq compare |> List.length
  in
  let injecting = Wf.enabled faults in
  let resilience =
    if injecting then (Wf.config faults).Wf.resilience else None
  in
  (* compile through the shared engine, where equal-extent slices key
     identically: in index order the first wafer of each shape misses
     and every later one hits *)
  let compile_wafer i =
    match (Engine.compile_module engine (P.compile subs.(i))).Engine.outcome with
    | Ok c -> snd (Pipeline.modules_of c.Engine.lowered)
    | Error e ->
        fail "wafer (%d,%d): compile failed: %s" slices.(i).Decompose.wi
          slices.(i).Decompose.wj e.Engine.e_message
  in
  let programs = Array.init n compile_wafer in
  let wafer_index =
    let h = Hashtbl.create n in
    Array.iteri
      (fun i (s : Decompose.slice) ->
        Hashtbl.replace h (s.Decompose.wi, s.Decompose.wj) i)
      slices;
    h
  in
  let neighbour (s : Decompose.slice) (d : Dmp.direction) : int option =
    let vx, vy = Dmp.vector d in
    Hashtbl.find_opt wafer_index (s.Decompose.wi + vx, s.Decompose.wj + vy)
  in
  (* global state, including the Dirichlet halo ring that never moves *)
  let globals = P.init_grids p in
  let epochs = p.P.iterations in
  let outs : I.grid list array = Array.make n [] in
  let cycles = Array.make n 0.0 in
  let statuses = Array.make n Healthy in
  let dead = Array.make n false in
  let tainted = Array.make n false in
  let device_cycles = ref 0.0 in
  let ic_s = ref 0.0 in
  let exchanges = ref 0 in
  let rollbacks = ref 0 in
  let respawns = ref 0 in
  let checkpoints = ref 0 in
  let checkpoint_bytes = ref 0 in
  let total_execs = ref 0 in
  let exec_count = Array.make (epochs + 1) 0 in
  let take_checkpoint epoch =
    let ck = Checkpoint.take ~epoch globals in
    incr checkpoints;
    checkpoint_bytes := !checkpoint_bytes + Checkpoint.bytes ck;
    ck
  in
  let ck = ref (Option.map (fun _ -> take_checkpoint 0) resilience) in
  let cadence =
    match resilience with
    | Some r -> max 1 r.Wf.checkpoint_cadence
    | None -> 1
  in
  let max_retries =
    match resilience with Some r -> r.Wf.max_retries | None -> 0
  in
  let e = ref 1 in
  while !e <= epochs do
    let epoch = !e in
    exec_count.(epoch) <- exec_count.(epoch) + 1;
    incr total_execs;
    let attempt = exec_count.(epoch) in
    Array.fill cycles 0 n 0.0;
    Array.fill statuses 0 n Healthy;
    for i = 0 to n - 1 do
      if dead.(i) then ()
      else if injecting && Wf.lost_here faults ~epoch ~wafer:i then begin
        statuses.(i) <- Lost_now;
        Wf.record_detection faults
      end
      else if injecting && Wf.crash_here faults ~epoch ~wafer:i ~attempt
      then begin
        statuses.(i) <- Crashed;
        Wf.record_detection faults
      end
      else begin
        let s = slices.(i) in
        (* the wafer's current view: interior and full halo ring copied
           out of the global grids (neighbour interiors where a
           neighbour owns them, initial boundary values elsewhere) *)
        let sub_ft = P.field_type subs.(i) in
        let view =
          List.map
            (fun gl ->
              let g = I.retensorize_grid (I.grid_of_typ sub_ft) in
              let pt = [| 0; 0 |] in
              I.iter_box g.I.gbounds pt (fun () ->
                  I.grid_set g [ pt.(0); pt.(1) ]
                    (I.grid_get gl [ s.Decompose.x0 + pt.(0); s.Decompose.y0 + pt.(1) ]));
              g)
            globals
        in
        (* inject inter-wafer faults on the freshly received halos and
           verify the per-swap checksums the protocol would carry *)
        if injecting then
          List.iter
            (fun (w : Dmp.swap_desc) ->
              let dir = dir_code w.Dmp.dir in
              let dropped = Wf.drop_halo faults ~epoch ~wafer:i ~dir ~attempt in
              let corrupted =
                (not dropped)
                && Wf.corrupt_halo faults ~epoch ~wafer:i ~dir ~attempt
              in
              if dropped || corrupted then begin
                let cells = strip_cells s w in
                let sent = strip_checksum view cells in
                if dropped then zero_strip view cells
                else begin
                  let len = strip_scalars view cells in
                  let idx, noise =
                    Wf.halo_corruption faults ~epoch ~wafer:i ~dir ~attempt
                      ~len
                  in
                  corrupt_strip view cells ~idx ~noise
                end;
                let received = strip_checksum view cells in
                (* detection only with the protocol on; without it the
                   damaged halo is consumed silently *)
                if resilience <> None && received <> sent then begin
                  statuses.(i) <- Halo_bad;
                  Wf.record_detection faults
                end
              end)
            s.Decompose.swaps;
        if statuses.(i) = Healthy then begin
          let h = Host.load machine programs.(i) view in
          Host.run h;
          outs.(i) <- Host.read_all h;
          cycles.(i) <- Fabric.elapsed_cycles h.Host.sim
        end
      end
    done;
    (* device time burns on every execution — wafers that simulated
       before the epoch rolled back are real recovery cost *)
    device_cycles := !device_cycles +. Array.fold_left Float.max 0.0 cycles;
    let faulty =
      Array.to_list statuses
      |> List.mapi (fun i st -> (i, st))
      |> List.filter (fun (i, st) -> (not dead.(i)) && st <> Healthy)
    in
    (* recovery happens off the fast path: faults without the protocol
       either abort (a dead wafer cannot be papered over) or, for halo
       damage, silently poison the data like PR 3's no-resilience mode *)
    if faulty <> [] && resilience = None then begin
      let i, st = List.hd faulty in
      let s = slices.(i) in
      fail "wafer (%d,%d) %s at epoch %d with resilience disabled"
        s.Decompose.wi s.Decompose.wj
        (match st with
        | Crashed -> "crashed"
        | Lost_now -> "was lost"
        | _ -> "failed")
        epoch
    end;
    if faulty = [] then begin
      (* gather: each live wafer's interior back into the global grids
         (the halo ring is untouched, preserving Dirichlet; dead wafers
         stay frozen at their last gathered state) *)
      Array.iteri
        (fun i out ->
          if not dead.(i) then
            let s = slices.(i) in
            List.iter2
              (fun gl oj ->
                for sx = 0 to s.Decompose.snx - 1 do
                  for sy = 0 to s.Decompose.sny - 1 do
                    I.grid_set gl
                      [ s.Decompose.x0 + sx; s.Decompose.y0 + sy ]
                      (I.grid_get oj [ sx; sy ])
                  done
                done)
              globals out)
        outs;
      (* the interconnect moves updated halos between consecutive
         epochs; epoch 1 starts from locally computable initial data *)
      if epoch >= 2 then begin
        incr exchanges;
        let charge =
          Array.fold_left
            (fun acc (s : Decompose.slice) ->
              let base = Interconnect.slice_s interconnect s in
              let i = Hashtbl.find wafer_index (s.Decompose.wi, s.Decompose.wj) in
              let f =
                if injecting && Wf.spike_here faults ~epoch ~wafer:i then
                  (Wf.config faults).Wf.spike_factor
                else 1.0
              in
              Float.max acc (base *. f))
            0.0 slices
        in
        ic_s := !ic_s +. charge
      end;
      (* taint flows one wafer-hop per epoch through the halo graph *)
      if Array.exists (fun b -> b) tainted then
        Array.iteri
          (fun i (s : Decompose.slice) ->
            if (not dead.(i)) && not tainted.(i) then
              if
                List.exists
                  (fun (w : Dmp.swap_desc) ->
                    match neighbour s w.Dmp.dir with
                    | Some j -> tainted.(j)
                    | None -> false)
                  s.Decompose.swaps
              then tainted.(i) <- true)
          slices;
      (match resilience with
      | Some _ when epoch < epochs && epoch mod cadence = 0 ->
          ck := Some (take_checkpoint epoch)
      | _ -> ());
      incr e
    end
    else if attempt > max_retries then begin
      (* this epoch's retry budget is exhausted: declare the offending
         wafers dead and degrade instead of crashing — their interiors
         freeze and taint spreads from them *)
      List.iter
        (fun (i, _) ->
          dead.(i) <- true;
          tainted.(i) <- true)
        faulty
    end
    else begin
      (* rollback: restore the last checkpoint and re-execute from
         there; crashed wafers are respawned through the shared engine
         (a warm cache hit — the slice was compiled once already) *)
      incr rollbacks;
      List.iter
        (fun (i, st) ->
          match st with
          | Crashed | Lost_now ->
              incr respawns;
              programs.(i) <- compile_wafer i
          | _ -> ())
        faulty;
      match !ck with
      | Some c ->
          Checkpoint.restore c ~into:globals;
          e := Checkpoint.epoch c + 1
      | None -> fail "rollback requested with no checkpoint"
    end
  done;
  let recovery =
    if not injecting then None
    else
      let coords pred =
        Array.to_list slices
        |> List.mapi (fun i (s : Decompose.slice) ->
               ((s.Decompose.wi, s.Decompose.wj), pred i))
        |> List.filter_map (fun (c, keep) -> if keep then Some c else None)
      in
      Some
        {
          rollbacks = !rollbacks;
          replayed_epochs = max 0 (!total_execs - epochs);
          checkpoints = !checkpoints;
          checkpoint_bytes = !checkpoint_bytes;
          respawns = !respawns;
          detections = (Wf.stats faults).Wf.detected;
          degraded = Array.exists (fun b -> b) dead;
          lost = coords (fun i -> dead.(i));
          tainted = coords (fun i -> tainted.(i));
        }
  in
  let interconnect_s, exchange_bytes =
    if injecting then
      (!ic_s, !exchanges * Interconnect.epoch_bytes pl)
    else
      (* fault-free closed form, unchanged from the pre-fault cosim *)
      let x = max 0 (epochs - 1) in
      (float_of_int x *. Interconnect.epoch_s interconnect pl,
       x * Interconnect.epoch_bytes pl)
  in
  {
    plan = pl;
    grids = globals;
    epochs;
    device_cycles = !device_cycles;
    interconnect_s;
    exchange_bytes;
    cache = Engine.cache_stats engine;
    distinct_programs;
    wall_s = Unix.gettimeofday () -. t0;
    recovery;
  }
