(** Modeled inter-wafer interconnect: a latency + bandwidth charge per
    BSP epoch, in the same coarse analytic style as the A100/ARCHER2
    cluster baselines.  The co-simulator exchanges halos through host
    memory (that is what makes the results bit-identical); this model
    prices what a SwarmX-like fabric would charge for the same bytes. *)

type t = { latency_s : float; bandwidth_bytes_per_s : float }

(** ~2 µs latency, 150 GB/s per wafer. *)
val default : t

val bytes_per_scalar : int

(** One wafer's receive time for one epoch (its swaps' scalars at
    [bytes_per_scalar] each).  The fault layer multiplies this by
    [spike_factor] on an interconnect latency spike. *)
val slice_s : t -> Decompose.slice -> float

(** Per-epoch charge: the slowest wafer's receive time (links are
    parallel across wafers). *)
val epoch_s : t -> Decompose.plan -> float

(** Total bytes received per epoch over all wafers. *)
val epoch_bytes : Decompose.plan -> int
