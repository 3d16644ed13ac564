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

(** Compile and simulate [iters] timesteps of a benchmark on an
    [extent]x[extent] proxy grid (default {!proxy_extent}) with the real
    z extent; returns the elapsed cycles, the aggregated PE stats and
    the chunk count the compiler chose.  The raw primitive behind
    {!measure}; the autotuner memoizes calls to it so each distinct
    (program, options, iters) proxy run executes once per tuning
    session. *)
val simulate_iters :
  ?pipeline_options:Wsc_core.Pipeline.options ->
  ?extent:int ->
  B.descr ->
  machine:Machine.t ->
  iters:int ->
  float * Wsc_wse.Fabric.pe_stats * int

(** Steady-state cycle prediction for [iterations] timesteps at [size]:
    two short runs at the same size (so the same z extent), per-iteration
    delta, scaled.  Comparable with a full simulation of that exact grid;
    feeds the trace deviation report. *)
val predict_cycles :
  ?pipeline_options:Wsc_core.Pipeline.options ->
  B.descr -> machine:Machine.t -> size:B.size -> iterations:int -> float

val measure :
  ?pipeline_options:Wsc_core.Pipeline.options ->
  machine:Machine.t -> size:B.size -> B.descr -> measurement

val pp_measurement : Format.formatter -> measurement -> unit
