(** Cost model of the hand-written 25-point seismic CSL kernel
    (Jacquelin et al., SC'22) for Figure 5: our measured per-iteration
    breakdown plus the paper's four documented hand-written inefficiencies
    (two-chunk communication, full-column transmission, ~2× task count,
    WSE2-only). *)

module B = Wsc_benchmarks.Benchmarks

type breakdown = {
  hw_cycles_per_iter : float;
  ours_cycles_per_iter : float;
  advantage_pct : float;  (** how much faster the generated code is *)
}

(** Figure 5 data point for one problem size (WSE2 only, as the
    hand-written kernel is). *)
val compare_seismic : size:B.size -> breakdown * Wse_perf.measurement

(** Hand-written throughput in GPts/s for a problem size. *)
val hand_written_gpts : size:B.size -> float
