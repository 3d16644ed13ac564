(** Modeled inter-wafer interconnect — see the interface. *)

type t = { latency_s : float; bandwidth_bytes_per_s : float }

(* SwarmX-class defaults: a few microseconds of switch latency and
   ~150 GB/s per wafer edge — deliberately coarse, like the cluster
   baselines in [Wsc_perf.Cluster]. *)
let default = { latency_s = 2e-6; bandwidth_bytes_per_s = 150e9 }

(** Latency plus bytes over bandwidth; 0 for 0 bytes. *)
let exchange_s (t : t) ~(bytes : int) : float =
  if bytes <= 0 then 0.0
  else t.latency_s +. (float_of_int bytes /. t.bandwidth_bytes_per_s)

let bytes_per_scalar = 4 (* the pipeline computes in f32 *)

(** One wafer's receive time for one epoch. *)
let slice_s (t : t) (s : Decompose.slice) : float =
  exchange_s t ~bytes:(bytes_per_scalar * Decompose.slice_exchange_scalars s)

(** Time one BSP epoch spends exchanging: every wafer's receives happen
    in parallel over its own links, so the epoch is charged the slowest
    wafer's exchange. *)
let epoch_s (t : t) (pl : Decompose.plan) : float =
  List.fold_left (fun acc s -> Float.max acc (slice_s t s)) 0.0 pl.Decompose.slices

(** Bytes received per epoch across all wafers. *)
let epoch_bytes (pl : Decompose.plan) : int =
  bytes_per_scalar * Decompose.exchange_scalars pl
