(** WSE performance measurement.

    Throughput for the paper's problem sizes is obtained by running the
    actually-compiled program on the fabric simulator.  Because the
    program is SPMD and communication is bounded-radius nearest-neighbour,
    an interior PE's steady-state per-iteration cycle count is independent
    of the grid extent; we therefore simulate a small proxy grid with the
    benchmark's real z extent for two iteration counts and take the
    difference, then scale to the requested PE grid (the standard
    weak-scaling extrapolation for wafer SPMD codes).

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

(** Simulate the compiled program for [iters] timesteps on a proxy grid
    of [extent]x[extent] PEs with the benchmark's real z extent; returns
    the host handle after completion plus the chunk count the compiler
    chose. *)
let simulate_proxy ?(pipeline_options = Wsc_core.Pipeline.default_options)
    ?(extent = proxy_extent) (d : B.descr) ~(machine : Machine.t)
    ~(iters : int) : Wsc_wse.Host.t * int =
  let size = B.Proxy (extent, extent) in
  let p = d.make_n size iters in
  let m = Wsc_core.Pipeline.compile ~options:pipeline_options (P.compile p) in
  let h = Wsc_wse.Host.simulate machine m (P.init_grids p) in
  let _, program = Wsc_core.Pipeline.modules_of m in
  let chunks =
    match Wsc_ir.Ir.find_op_by_name "csl_stencil.apply" m with
    | Some _ -> 0 (* already lowered away *)
    | None -> (
        (* recover from the communicate config *)
        match
          Wsc_ir.Ir.find_op
            (fun o ->
              o.Wsc_ir.Ir.opname = "csl.member_call"
              && Wsc_ir.Ir.has_attr o "config")
            program
        with
        | Some o -> (
            match Wsc_ir.Ir.attr_exn o "config" with
            | Wsc_ir.Ir.Dict_attr dict -> (
                match List.assoc_opt "num_chunks" dict with
                | Some (Wsc_ir.Ir.Int_attr n) -> n
                | _ -> 1)
            | _ -> 1)
        | None -> 1)
  in
  (h, chunks)

(** Simulate for [iters] timesteps on the proxy grid; returns elapsed
    cycles and aggregate stats.  The raw primitive behind {!measure} and
    the autotuner's memoized candidate evaluation. *)
let simulate_iters ?pipeline_options ?extent (d : B.descr) ~(machine : Machine.t)
    ~(iters : int) : float * Wsc_wse.Fabric.pe_stats * int =
  let h, chunks = simulate_proxy ?pipeline_options ?extent d ~machine ~iters in
  (Wsc_wse.Fabric.elapsed_cycles h.sim, Wsc_wse.Fabric.total_stats h.sim, chunks)

(** Analytic cycle prediction for a full run at [size]: steady-state
    per-iteration cycles measured by two short runs of the same program
    at the same size, scaled to [iterations].  Unlike {!measure} the
    short runs use [size]'s own extents (including its z extent), so the
    prediction is directly comparable with a simulation of that exact
    grid — the basis of the trace deviation report. *)
let predict_cycles ?(pipeline_options = Wsc_core.Pipeline.default_options)
    (d : B.descr) ~(machine : Machine.t) ~(size : B.size) ~(iterations : int) :
    float =
  let run iters =
    let p = d.make_n size iters in
    let m = Wsc_core.Pipeline.compile ~options:pipeline_options (P.compile p) in
    let h = Wsc_wse.Host.simulate machine m (P.init_grids p) in
    Wsc_wse.Fabric.elapsed_cycles h.sim
  in
  let i1 = 2 and i2 = 4 in
  let c1 = run i1 in
  if iterations <= 1 then c1 /. float_of_int i1
  else
    let c2 = run i2 in
    (c2 -. c1) /. float_of_int (i2 - i1) *. float_of_int iterations

(** Steady-state measurement via two runs. *)
let measure ?(pipeline_options = Wsc_core.Pipeline.default_options)
    ~(machine : Machine.t) ~(size : B.size) (d : B.descr) : measurement =
  let nx, ny = B.xy_extents size in
  let nz = match size with B.Tiny -> 6 | _ -> d.z_extent in
  let iterations = d.default_iterations in
  let i1 = 2 and i2 = 4 in
  let c1, _, _ = simulate_iters ~pipeline_options d ~machine ~iters:i1 in
  let c2, stats2, chunks = simulate_iters ~pipeline_options d ~machine ~iters:i2 in
  let cycles_per_iter = (c2 -. c1) /. float_of_int (i2 - i1) in
  (* handle single-shot benchmarks (UVKBE): startup-inclusive cost *)
  let cycles_per_iter =
    if iterations <= 1 then c1 /. float_of_int i1 else cycles_per_iter
  in
  let n_proxy_pes = float_of_int (proxy_extent * proxy_extent) in
  let proxy_points = n_proxy_pes *. float_of_int nz in
  let proxy_iters = float_of_int i2 in
  let flops_per_pt = stats2.flops /. (proxy_points *. proxy_iters) in
  let mem_bytes_per_pt = stats2.mem_bytes /. (proxy_points *. proxy_iters) in
  let fabric_bytes_per_pt =
    (* both injected and drained wavelets cross the PE's ramp *)
    4.0
    *. float_of_int (stats2.elems_sent + stats2.elems_drained)
    /. (proxy_points *. proxy_iters)
  in
  let tasks_per_pe_per_iter =
    float_of_int stats2.task_activations /. n_proxy_pes /. proxy_iters
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
