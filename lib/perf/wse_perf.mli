(** WSE performance measurement: run the actually-compiled program on the
    fabric simulator on a small proxy grid for two iteration counts, take
    the steady-state per-iteration cycles, and extrapolate to the
    requested PE grid (valid because the program is SPMD with
    bounded-radius neighbour communication). *)

module B = Wsc_benchmarks.Benchmarks
module Machine = Wsc_wse.Machine

type measurement = {
  bench : string;
  machine : string;
  size : B.size;
  nx : int;
  ny : int;
  nz : int;
  iterations : int;
  cycles_per_iter : float;  (** steady-state, slowest PE *)
  time_to_solution_s : float;
  gpts_per_s : float;  (** the paper's GPts/s a.k.a. GCells/s *)
  tflops : float;
  pct_of_peak : float;
  flops_per_pt : float;  (** measured on the simulator *)
  mem_bytes_per_pt : float;  (** SRAM traffic of the DSD builtins *)
  fabric_bytes_per_pt : float;  (** injected wavelet payload *)
  tasks_per_pe_per_iter : float;
  chunks : int;  (** communication chunks the compiler chose *)
}

(** Extent of the square proxy grid the measurement simulates. *)
val proxy_extent : int

(** Steady-state cycles per iteration of the benchmark at [size]
    (default the {!proxy_extent} square proxy grid, which keeps the real
    z extent): the per-iteration delta between runs of [lo] and [hi]
    timesteps ([window], default [(2, 4)]), or the startup-inclusive
    [c_lo / lo] for single-shot programs.  The simulated steady state is
    exactly periodic and independent of the grid extent, so any window
    and extent give the same value (checked by test_perf, "steady state
    exact").  Also returns the last run's timestep count and aggregate
    PE stats, and the chunk count the compiler chose.  The one
    steady-state measurement: {!measure} and the autotuner's screening
    both use it. *)
val steady_state :
  ?pipeline_options:Wsc_core.Pipeline.options ->
  ?size:B.size ->
  ?window:int * int ->
  B.descr ->
  machine:Machine.t ->
  float * (int * Wsc_wse.Fabric.pe_stats) * int

(** The benchmark at [size], with its extents read from that program:
    simulated itself when no wider than the proxy grid, else measured
    on the proxy grid and extrapolated. *)
val measure :
  ?pipeline_options:Wsc_core.Pipeline.options ->
  machine:Machine.t -> size:B.size -> B.descr -> measurement

val pp_measurement : Format.formatter -> measurement -> unit
