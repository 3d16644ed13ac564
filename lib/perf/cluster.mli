(** Performance models of the GPU and CPU cluster baselines (Figure 6):
    memory-bandwidth rooflines with a strong-scaling halo-exchange term,
    following the setups of Bisbas et al. (IPDPS'25). *)

type device = {
  dev_name : string;
  mem_bw_bytes : float;
  bw_efficiency : float;
  peak_flops : float;
  interconnect_bytes : float;
  bytes_per_point : float;
      (** acoustic-kernel memory traffic per point, calibrated against
          the published throughputs (see DESIGN.md) *)
}

(** Nvidia A100-80GB as deployed on Tursa. *)
val a100 : device

(** One ARCHER2 node (2 × AMD EPYC 7742). *)
val archer2_node : device

type cluster_measurement = {
  cm_name : string;
  devices : int;
  grid_points : float;
  gpts_per_s : float;
  time_per_iter_s : float;
  flops_per_s : float;
  memory_bound : bool;
  ai : float;
}

(** Strong-scaling throughput of [devices] devices on an [n]³ grid. *)
val acoustic_throughput : device -> devices:int -> n:int -> cluster_measurement

(** The two Figure 6 baselines: 1158³ on 128 GPUs, 1024³ on 128 nodes. *)
val tursa_128_a100 : unit -> cluster_measurement

val archer2_128_nodes : unit -> cluster_measurement

(** Single-A100 point for the Figure 7 roofline. *)
val single_a100 : unit -> cluster_measurement
