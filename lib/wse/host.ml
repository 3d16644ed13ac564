(** Host runtime: the memcpy-style interface between field data and the
    simulated fabric (paper §4.2's host interaction, simulator-side).

    Loads one z-column per PE per state grid, keeps the global Dirichlet
    boundary columns host-side (delivered by the communication engine as
    virtual neighbours of edge PEs), runs the program, and reads the
    results back through the module's result pointers. *)

open Wsc_ir.Ir
module I = Wsc_dialects.Interp
module Trace = Wsc_trace.Trace

exception Host_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Host_error s)) fmt

type t = {
  sim : Fabric.t;
  bounds : (int * int) list;  (** the state grids' bounds, ring included *)
  result_ptrs : int list;  (** per state slot, the pointer to read it through *)
}

(** Offset of the z-column at [(x, y)] in [g]'s data. *)
let column_offset (g : I.grid) zfull x y : int =
  let z = I.tensor_extent g.I.gelt in
  if z <> zfull then fail "column length %d does not match zfull %d" z zfull;
  I.flat_index g [ x; y ] * zfull

(** Create the simulator and copy the initial state in; [trace] is
    handed to the fabric and also carries host-side markers (load,
    run completion, readback) on its own track. *)
let load ?(trace = Trace.null) ?(faults = Wsc_faults.Faults.null)
    (machine : Machine.t) (program : op) (init_grids : I.grid list) : t =
  let sim = Fabric.create ~trace ~faults machine program in
  if Trace.enabled trace then begin
    Trace.name_process trace ~pid:Trace.host_pid "host";
    Trace.name_track trace ~pid:Trace.host_pid ~tid:0 "host runtime";
    Trace.instant trace ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"load" 0.0
  end;
  let n_state = int_attr_exn program "n_state" in
  if List.length init_grids <> n_state then
    fail "expected %d state grids, got %d" n_state (List.length init_grids);
  let pointer = Fabric.lookup sim Fabric.Pointer in
  let result_ptrs =
    match Wsc_core.Csl.string_list_attr program "result_ptrs" with
    | l -> List.map pointer l
    | exception Invalid_argument _ -> fail "bad result_ptrs"
  in
  let zfull = sim.Fabric.zfull in
  (* interior columns into PE buffers *)
  let state_ptrs = List.init n_state (fun j -> pointer (Wsc_core.To_actors.state_ptr j)) in
  for x = 0 to sim.Fabric.width - 1 do
    for y = 0 to sim.Fabric.height - 1 do
      let pe = sim.Fabric.pes.(x).(y) in
      List.iter2
        (fun (g : I.grid) ptr ->
          let buf = Fabric.deref pe ptr in
          Array.blit g.I.gdata (column_offset g zfull x y) buf 0 zfull)
        init_grids state_ptrs
    done
  done;
  (* boundary columns host-side: all points of the full bounds outside the
     PE grid, concatenated across state slots *)
  let bounds = match init_grids with g0 :: _ -> g0.I.gbounds | [] -> fail "no state grids" in
  let p = [| 0; 0 |] in
  I.iter_box bounds p (fun () ->
      let x = p.(0) and y = p.(1) in
      if not (Fabric.in_grid sim x y) then begin
        let ring = Array.create_float (n_state * zfull) in
        List.iteri
          (fun j (g : I.grid) ->
            Array.blit g.I.gdata (column_offset g zfull x y) ring (j * zfull) zfull)
          init_grids;
        Hashtbl.replace sim.Fabric.halo (x, y) ring
      end);
  { sim; bounds; result_ptrs }

(** Run the device program to completion. *)
let run (h : t) : unit =
  let trace = h.sim.Fabric.trace in
  if Trace.enabled trace then
    Trace.span_begin trace ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"run" 0.0;
  Fabric.run_to_completion h.sim;
  if Trace.enabled trace then
    Trace.span_end trace ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"run"
      (Fabric.elapsed_cycles h.sim)

(** Read state grid [j] back: interior columns from the PEs (through the
    final pointer assignment), ring columns from slot [j] of the
    host-resident boundary, which the run never writes. *)
let read_state (h : t) (j : int) : I.grid =
  let sim = h.sim in
  let zfull = sim.Fabric.zfull in
  let ptr = List.nth h.result_ptrs j in
  let out = I.make_grid h.bounds (Tensor ([ zfull ], F32)) in
  (* [iter_box] visits the points in row-major order, so the k-th point
     is column k of [out] *)
  let p = [| 0; 0 |] and k = ref 0 in
  I.iter_box h.bounds p (fun () ->
      let x = p.(0) and y = p.(1) in
      let dst = !k * zfull in
      if Fabric.in_grid sim x y then
        Array.blit (Fabric.deref sim.Fabric.pes.(x).(y) ptr) 0 out.I.gdata dst zfull
      else Array.blit (Hashtbl.find sim.Fabric.halo (x, y)) (j * zfull) out.I.gdata dst zfull;
      incr k);
  out

let read_all (h : t) : I.grid list = List.mapi (fun j _ -> read_state h j) h.result_ptrs

(** {1 Graceful degradation reporting} *)

let validity (h : t) : bool array array = Fabric.validity h.sim

(** Human-readable account of the regions fault injection invalidated:
    [None] when every PE's data is valid, otherwise the number of
    affected PEs, their bounding box, and the first few coordinates —
    what the host prints instead of crashing when a run degraded past
    halted or unrecoverable PEs. *)
let fault_report (h : t) : string option =
  let mask = validity h in
  let bad = ref [] and n = ref 0 in
  let x0 = ref max_int and y0 = ref max_int and x1 = ref (-1) and y1 = ref (-1) in
  Array.iteri
    (fun x col ->
      Array.iteri
        (fun y ok ->
          if not ok then begin
            incr n;
            if !n <= 8 then bad := (x, y) :: !bad;
            x0 := min !x0 x;
            y0 := min !y0 y;
            x1 := max !x1 x;
            y1 := max !y1 y
          end)
        col)
    mask;
  if !n = 0 then None
  else
    Some
      (Printf.sprintf
         "%d of %d PEs hold invalid data (region x:%d-%d y:%d-%d): %s%s" !n
         (h.sim.Fabric.width * h.sim.Fabric.height)
         !x0 !x1 !y0 !y1
         (String.concat ", "
            (List.rev_map (fun (x, y) -> Printf.sprintf "PE(%d,%d)" x y) !bad))
         (if !n > 8 then ", ..." else ""))

(** {1 Convenience: compile + run + compare} *)

(** Simulate a compiled program on freshly initialized grids; returns the
    host handle after completion. *)
let simulate ?trace ?faults (machine : Machine.t) (compiled : op)
    (init_grids : I.grid list) : t =
  let _, program = Wsc_core.Pipeline.modules_of compiled in
  let h = load ?trace ?faults machine program init_grids in
  run h;
  let tr = h.sim.Fabric.trace in
  if Trace.enabled tr then
    Trace.instant tr ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"readback"
      (Fabric.elapsed_cycles h.sim);
  h
