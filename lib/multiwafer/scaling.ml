(** Strong/weak wafer scaling — see the interface.

    The model composes two measured/calibrated parts exactly the way
    [Wsc_perf.Cluster] does for the GPU and CPU baselines: per-wafer
    compute time is the simulator-measured steady-state cycles per
    iteration (extent-independent: the program is SPMD, every PE owns
    one z-column), and the per-epoch inter-wafer exchange is priced by
    the [Interconnect] latency/bandwidth model on the byte volumes the
    decomposition's [swap_desc]s imply. *)

module B = Wsc_benchmarks.Benchmarks
module Machine = Wsc_wse.Machine
module Cluster = Wsc_perf.Cluster

type point = {
  wafers : int * int;
  n_wafers : int;
  global : int * int * int;
  per_wafer : int * int;  (** widest slice *)
  feasible : bool;  (** every slice fits the machine's PE rectangle *)
  compute_s : float;  (** per iteration *)
  exchange_s : float;  (** per iteration, slowest wafer *)
  t_iter_s : float;
  gpts_per_s : float;
  speedup : float;  (** vs the first (1-wafer) point *)
  efficiency : float;  (** speedup / wafers (strong), t1/tN (weak) *)
  exchange_bytes : int;  (** received per epoch, all wafers *)
}

type figure = {
  mode : [ `Strong | `Weak ];
  bench : string;
  machine : string;
  cycles_per_iter : float;
  clock_hz : float;
  interconnect : Interconnect.t;
  points : point list;
  baselines : (string * Cluster.cluster_measurement) list;
}

let wafer_grids = [ (1, 1); (2, 1); (2, 2); (4, 2); (4, 4) ]

let baselines () =
  [
    ("tursa_128_a100", Cluster.tursa_128_a100 ());
    ("archer2_128_nodes", Cluster.archer2_128_nodes ());
  ]

(** One scaling point: the global problem [gx × gy × z] decomposed over
    [wafers]; compute per iteration is [cycles_per_iter / clock]. *)
let point ~(interconnect : Interconnect.t) ~(machine : Machine.t)
    ~(cycles_per_iter : float) (d : B.descr) ~(wafers : int * int)
    ~(global : int * int) : point =
  let wx, wy = wafers in
  let gx, gy = global in
  let p = d.B.make_n (B.Proxy (gx, gy)) 1 in
  let pl = Decompose.plan ~wafers p in
  let _, _, nz = p.Wsc_frontends.Stencil_program.extents in
  let widest =
    List.fold_left
      (fun (mx, my) (s : Decompose.slice) ->
        (max mx s.Decompose.snx, max my s.Decompose.sny))
      (0, 0) pl.Decompose.slices
  in
  let feasible =
    List.for_all
      (fun (s : Decompose.slice) ->
        s.Decompose.snx <= machine.Machine.max_width
        && s.Decompose.sny <= machine.Machine.max_height)
      pl.Decompose.slices
  in
  let compute_s = cycles_per_iter /. machine.Machine.clock_hz in
  let exchange_s =
    if wx * wy = 1 then 0.0 else Interconnect.epoch_s interconnect pl
  in
  let t_iter_s = compute_s +. exchange_s in
  let points = float_of_int gx *. float_of_int gy *. float_of_int nz in
  {
    wafers;
    n_wafers = wx * wy;
    global = (gx, gy, nz);
    per_wafer = widest;
    feasible;
    compute_s;
    exchange_s;
    t_iter_s;
    gpts_per_s = points /. t_iter_s /. 1e9;
    speedup = 1.0 (* filled against the first point below *);
    efficiency = 1.0;
    exchange_bytes = (if wx * wy = 1 then 0 else Interconnect.epoch_bytes pl);
  }

let with_ratios (mode : [ `Strong | `Weak ]) (points : point list) : point list =
  match points with
  | [] -> []
  | p1 :: _ ->
      List.map
        (fun p ->
          let speedup =
            match mode with
            | `Strong -> p1.t_iter_s /. p.t_iter_s
            | `Weak -> p.gpts_per_s /. p1.gpts_per_s
          in
          let efficiency =
            match mode with
            | `Strong -> speedup /. float_of_int p.n_wafers
            | `Weak -> p1.t_iter_s /. p.t_iter_s
          in
          { p with speedup; efficiency })
        points

(** Weak scaling: each wafer keeps the machine's full PE rectangle; the
    global problem grows with the wafer grid. *)
let weak ?(interconnect = Interconnect.default) ~(machine : Machine.t)
    ~(cycles_per_iter : float) (d : B.descr) : figure =
  let pwx, pwy = (machine.Machine.max_width, machine.Machine.max_height) in
  let points =
    List.map
      (fun (wx, wy) ->
        point ~interconnect ~machine ~cycles_per_iter d ~wafers:(wx, wy)
          ~global:(wx * pwx, wy * pwy))
      wafer_grids
  in
  {
    mode = `Weak;
    bench = d.B.id;
    machine = machine.Machine.name;
    cycles_per_iter;
    clock_hz = machine.Machine.clock_hz;
    interconnect;
    points = with_ratios `Weak points;
    baselines = baselines ();
  }

(** Strong scaling: the global problem is fixed at 2× the wafer
    rectangle each way and sliced ever finer. *)
let strong ?(interconnect = Interconnect.default) ~(machine : Machine.t)
    ~(cycles_per_iter : float) (d : B.descr) : figure =
  let gx, gy = (2 * machine.Machine.max_width, 2 * machine.Machine.max_height) in
  let points =
    List.map
      (fun wafers ->
        point ~interconnect ~machine ~cycles_per_iter d ~wafers ~global:(gx, gy))
      wafer_grids
  in
  {
    mode = `Strong;
    bench = d.B.id;
    machine = machine.Machine.name;
    cycles_per_iter;
    clock_hz = machine.Machine.clock_hz;
    interconnect;
    points = with_ratios `Strong points;
    baselines = baselines ();
  }
