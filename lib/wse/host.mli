(** Host runtime: the memcpy-style interface between field data and the
    simulated fabric — load one z-column per PE per state grid, keep the
    global Dirichlet boundary columns host-side, run the device program,
    read results back through the module's result pointers. *)

exception Host_error of string

(** A loaded run.  The state lives on the fabric alone: interior
    columns in the PE buffers, Dirichlet ring columns in [sim.halo]; the
    handle keeps only the grids' bounds, for readback. *)
type t = {
  sim : Fabric.t;
  bounds : (int * int) list;
  result_ptrs : int list;  (** per state slot, the pointer it is read through *)
}

(** Create the simulator for [program] and copy the initial state grids
    (2-D grids of z-column tensors, full halo bounds) onto the PEs and
    the host-resident ring; the grids are only read, never kept.
    [trace] is handed to the fabric and also carries host-side markers;
    [faults] is handed to the fabric's injection sites.
    @raise Host_error on state-count or column-length mismatch. *)
val load :
  ?trace:Wsc_trace.Trace.sink ->
  ?faults:Wsc_faults.Faults.t ->
  Machine.t -> Wsc_ir.Ir.op -> Wsc_dialects.Interp.grid list -> t

(** Run the device program to completion (host calls the exported
    [run]). *)
val run : t -> unit

(** Read state grid [j] back into a fresh grid: interior columns from
    the PEs through the final pointer assignment, halo columns unchanged
    from the load. *)
val read_state : t -> int -> Wsc_dialects.Interp.grid

val read_all : t -> Wsc_dialects.Interp.grid list

(** Per-PE validity mask of the completed run, indexed [x][y]: false
    where fault injection left the PE's readback data invalid (the PE
    halted, or it consumed substituted / unrecoverable data). *)
val validity : t -> bool array array

(** Human-readable account of the regions fault injection invalidated:
    [None] when every PE's data is valid, otherwise the affected PE
    count, bounding box and first few coordinates — what the host
    reports instead of crashing when a run degraded gracefully. *)
val fault_report : t -> string option

(** [simulate machine compiled grids] — extract the program module from a
    compiled result, load, and run to completion. *)
val simulate :
  ?trace:Wsc_trace.Trace.sink ->
  ?faults:Wsc_faults.Faults.t ->
  Machine.t -> Wsc_ir.Ir.op -> Wsc_dialects.Interp.grid list -> t
