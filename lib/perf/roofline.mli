(** Roofline model (Figure 7).  Each WSE kernel contributes two points:
    its measured traffic priced against local SRAM bandwidth and against
    the (ramp-limited) fabric.  All inputs are measured on the simulator
    from the actually-compiled program. *)

module Machine = Wsc_wse.Machine

type point = {
  label : string;
  ai : float;  (** arithmetic intensity, FLOPs per byte *)
  gflops : float;  (** achieved performance over the whole machine *)
  bound : [ `Compute | `Memory ];
}

type roof = {
  machine_name : string;
  peak_gflops : float;
  mem_bw_gbytes : float;
  fabric_bw_gbytes : float;
}

(** The roofline of a [pes]-sized rectangle of the given machine. *)
val wse_roof : Machine.t -> pes:int -> roof

(** min(peak, AI × bandwidth). *)
val attainable : roof -> bw_gbytes:float -> float -> float

(** The memory and fabric points of one WSE measurement. *)
val points_of_measurement : roof -> Wse_perf.measurement -> point list

(** The acoustic-on-one-A100 point from the cluster model. *)
val a100_point : unit -> point

val a100_roof : roof
val pp_point : Format.formatter -> point -> unit
