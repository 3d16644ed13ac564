(** The paper's Figure 6 pushed past one wafer: strong/weak scaling of
    an N-wafer WSE against the 128-GPU (Tursa A100) and 128-node
    (ARCHER2) cluster models.  Per-wafer compute comes from the
    simulator-measured steady-state cycles per iteration
    ([Wsc_perf.Wse_perf.measure] — extent-independent, the program is
    SPMD); the inter-wafer term prices the decomposition's halo volumes
    through the {!Interconnect} model. *)

module B = Wsc_benchmarks.Benchmarks
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
  efficiency : float;
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

(** Each wafer keeps the machine's full PE rectangle; the global problem
    grows with the wafer grid (1×1, 2×1, 2×2, 4×2, 4×4). *)
val weak :
  ?interconnect:Interconnect.t ->
  machine:Wsc_wse.Machine.t ->
  cycles_per_iter:float ->
  B.descr ->
  figure

(** Fixed global problem (2× the machine rectangle each way) sliced
    over the same wafer grids as {!weak}. *)
val strong :
  ?interconnect:Interconnect.t ->
  machine:Wsc_wse.Machine.t ->
  cycles_per_iter:float ->
  B.descr ->
  figure
