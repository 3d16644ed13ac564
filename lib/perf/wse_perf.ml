(** WSE performance measurement.

    Throughput for the paper's problem sizes is obtained by running the
    actually-compiled program on the fabric simulator.  Because the
    program is SPMD and communication is bounded-radius nearest-neighbour,
    an interior PE's steady-state per-iteration cycle count is independent
    of the grid extent; we therefore simulate a small proxy grid with the
    benchmark's real z extent (or the program itself, when it is no
    wider than the proxy) for two iteration counts and take the
    difference ({!steady_state}), then scale to the requested PE grid
    (the standard weak-scaling extrapolation for wafer SPMD codes).

    Reported metrics mirror the paper: GPts/s (a.k.a. GCells/s) over the
    whole grid, TFLOP/s, and time to solution. *)

module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module Machine = Wsc_wse.Machine

type measurement = {
  bench : string;
  machine : string;
  size : B.size;
  nx : int;
  ny : int;
  nz : int;
  iterations : int;
  cycles_per_iter : float;  (** steady-state, slowest-PE *)
  time_to_solution_s : float;
  gpts_per_s : float;
  tflops : float;
  pct_of_peak : float;
  flops_per_pt : float;  (** measured on the simulator *)
  mem_bytes_per_pt : float;
  fabric_bytes_per_pt : float;
  tasks_per_pe_per_iter : float;
  chunks : int;
}

let proxy_extent = 6

(** Compile and simulate [iters] timesteps of the benchmark at [size];
    returns the elapsed cycles, the aggregate PE stats and the chunk
    count the compiler chose (recovered from the communicate config). *)
let simulate_iters ?(pipeline_options = Wsc_core.Pipeline.default_options)
    ~(size : B.size) (d : B.descr) ~(machine : Machine.t) ~(iters : int) :
    float * Wsc_wse.Fabric.pe_stats * int =
  let p = d.make_n size iters in
  let m = Wsc_core.Pipeline.compile ~options:pipeline_options (P.compile p) in
  let h = Wsc_wse.Host.simulate machine m (P.init_grids p) in
  let _, program = Wsc_core.Pipeline.modules_of m in
  let chunks =
    match
      Wsc_ir.Ir.find_op
        (fun o ->
          o.Wsc_ir.Ir.opname = "csl.member_call" && Wsc_ir.Ir.has_attr o "config")
        program
    with
    | Some o -> (
        match Wsc_ir.Ir.attr_exn o "config" with
        | Wsc_ir.Ir.Dict_attr dict -> (
            match List.assoc_opt "num_chunks" dict with
            | Some (Wsc_ir.Ir.Int_attr n) -> n
            | _ -> 1)
        | _ -> 1)
    | None -> 1
  in
  (Wsc_wse.Fabric.elapsed_cycles h.sim, Wsc_wse.Fabric.total_stats h.sim, chunks)

let steady_state ?pipeline_options
    ?(size = B.Proxy (proxy_extent, proxy_extent)) ?(window = (2, 4))
    (d : B.descr) ~(machine : Machine.t) :
    float * (int * Wsc_wse.Fabric.pe_stats) * int =
  let lo, hi = window in
  let run iters = simulate_iters ?pipeline_options ~size d ~machine ~iters in
  let c_lo, stats_lo, chunks_lo = run lo in
  if d.default_iterations <= 1 then
    (* single-shot (UVKBE): startup-inclusive cost *)
    (c_lo /. float_of_int lo, (lo, stats_lo), chunks_lo)
  else
    let c_hi, stats_hi, chunks = run hi in
    ((c_hi -. c_lo) /. float_of_int (hi - lo), (hi, stats_hi), chunks)

(** Steady-state measurement of the benchmark at [size]: simulated on
    that program itself when it fits the proxy grid, else on the proxy
    grid (same z) and scaled to [size]. *)
let measure ?pipeline_options ~(machine : Machine.t) ~(size : B.size)
    (d : B.descr) : measurement =
  let nx, ny, nz = (d.make size).P.extents in
  let sim_size =
    if nx <= proxy_extent && ny <= proxy_extent then size
    else B.Proxy (proxy_extent, proxy_extent)
  in
  let iterations = d.default_iterations in
  let cycles_per_iter, (stats_iters, stats2), chunks =
    steady_state ?pipeline_options ~size:sim_size d ~machine
  in
  let sim_nx, sim_ny = B.xy_extents sim_size in
  let sim_pes = float_of_int (sim_nx * sim_ny) in
  let sim_points = sim_pes *. float_of_int nz in
  let sim_iters = float_of_int stats_iters in
  let flops_per_pt = stats2.flops /. (sim_points *. sim_iters) in
  let mem_bytes_per_pt = stats2.mem_bytes /. (sim_points *. sim_iters) in
  let fabric_bytes_per_pt =
    (* both injected and drained wavelets cross the PE's ramp *)
    4.0
    *. float_of_int (stats2.elems_sent + stats2.elems_drained)
    /. (sim_points *. sim_iters)
  in
  let tasks_per_pe_per_iter =
    float_of_int stats2.task_activations /. sim_pes /. sim_iters
  in
  let time = float_of_int iterations *. cycles_per_iter /. machine.clock_hz in
  let points = float_of_int nx *. float_of_int ny *. float_of_int nz in
  let gpts = points *. float_of_int iterations /. time /. 1e9 in
  let flops_total = points *. float_of_int iterations *. flops_per_pt in
  let tflops = flops_total /. time /. 1e12 in
  let peak =
    float_of_int (nx * ny) *. machine.flops_per_pe_per_cycle *. machine.clock_hz
  in
  {
    bench = d.id;
    machine = machine.name;
    size;
    nx;
    ny;
    nz;
    iterations;
    cycles_per_iter;
    time_to_solution_s = time;
    gpts_per_s = gpts;
    tflops;
    pct_of_peak = 100.0 *. flops_total /. time /. peak;
    flops_per_pt;
    mem_bytes_per_pt;
    fabric_bytes_per_pt;
    tasks_per_pe_per_iter;
    chunks;
  }

let pp_measurement fmt (m : measurement) =
  Format.fprintf fmt
    "%-10s %-5s %-7s %4dx%-4d z=%-4d  %8.2f GPts/s  %7.1f TFLOP/s  %5.1f%% peak  \
     %6.0f cyc/it  %d chunk(s)"
    m.bench m.machine
    (B.size_to_string m.size)
    m.nx m.ny m.nz m.gpts_per_s m.tflops m.pct_of_peak m.cycles_per_iter m.chunks
