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
  program : op;
  init_grids : I.grid list;  (** kept for boundary columns and halo readback *)
  result_ptrs : string list;
}

let column_of_grid (g : I.grid) (x : int) (y : int) : float array =
  match I.grid_get g [ x; y ] with
  | I.Rtensor col -> col
  | _ -> fail "grid element is not a z-column"

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
  let result_ptrs =
    match attr_exn program "result_ptrs" with
    | Array_attr l ->
        List.map (function String_attr s -> s | _ -> fail "bad result_ptrs") l
    | _ -> fail "bad result_ptrs"
  in
  let zfull = sim.Fabric.zfull in
  (* interior columns into PE buffers *)
  for x = 0 to sim.Fabric.width - 1 do
    for y = 0 to sim.Fabric.height - 1 do
      let pe = sim.Fabric.pes.(x).(y) in
      List.iteri
        (fun j g ->
          let col = column_of_grid g x y in
          if Array.length col <> zfull then
            fail "column length %d does not match zfull %d" (Array.length col) zfull;
          let buf = Fabric.deref pe (Printf.sprintf "ptr_state%d" j) in
          Array.blit col 0 buf 0 zfull)
        init_grids
    done
  done;
  (* boundary columns host-side: all points of the full bounds outside the
     PE grid, concatenated across state slots *)
  (match init_grids with
  | g0 :: _ ->
      let p = [| 0; 0 |] in
      I.iter_box g0.I.gbounds p (fun () ->
          let x = p.(0) and y = p.(1) in
          if not (Fabric.in_grid sim x y) then
            Hashtbl.replace sim.Fabric.halo (x, y)
              (Array.concat (List.map (fun g -> column_of_grid g x y) init_grids)))
  | [] -> fail "no state grids");
  { sim; program; init_grids; result_ptrs }

(** Run the device program to completion. *)
let run ?driver (h : t) : unit =
  let trace = h.sim.Fabric.trace in
  if Trace.enabled trace then
    Trace.span_begin trace ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"run" 0.0;
  Fabric.run_to_completion ?driver h.sim;
  if Trace.enabled trace then
    Trace.span_end trace ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"run"
      (Fabric.elapsed_cycles h.sim)

(** Read state grid [j] back: interior columns from the PEs (through the
    final pointer assignment), halo columns unchanged from the initial
    data. *)
let read_state (h : t) (j : int) : I.grid =
  let init = List.nth h.init_grids j in
  let out = I.copy_grid init in
  let ptr = List.nth h.result_ptrs j in
  for x = 0 to h.sim.Fabric.width - 1 do
    for y = 0 to h.sim.Fabric.height - 1 do
      let pe = h.sim.Fabric.pes.(x).(y) in
      let buf = Fabric.deref pe ptr in
      I.grid_set out [ x; y ] (I.Rtensor (Array.copy buf))
    done
  done;
  out

let read_all (h : t) : I.grid list =
  List.mapi (fun j _ -> read_state h j) h.init_grids

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
let simulate ?driver ?trace ?faults (machine : Machine.t) (compiled : op)
    (init_grids : I.grid list) : t =
  let _, program = Wsc_core.Pipeline.modules_of compiled in
  let h = load ?trace ?faults machine program init_grids in
  run ?driver h;
  let tr = h.sim.Fabric.trace in
  if Trace.enabled tr then
    Trace.instant tr ~pid:Trace.host_pid ~tid:0 ~cat:"host" ~name:"readback"
      (Fabric.elapsed_cycles h.sim);
  h
