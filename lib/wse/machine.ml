(** Machine models of the Cerebras WSE generations (paper §2, §6).

    Parameters are calibrated against published figures: each PE performs
    one 32-bit fused multiply-accumulate per cycle through the DSD
    builtins (so the hand-tuned 25-point seismic kernel's 28.2% of peak on
    WSE2 reproduces Jacquelin et al.'s numbers), wavelets move one hop per
    cycle, and — the key WSE2/WSE3 difference the paper exploits — the
    WSE2's switch configuration requires each PE to transmit data to
    itself as well as to its neighbours, doubling injection cost, which
    the WSE3's upgraded switching logic removes (§6). *)

type generation = WSE2 | WSE3

type t = {
  gen : generation;
  name : string;
  clock_hz : float;
  max_width : int;
  max_height : int;
  pe_memory_bytes : int;
  self_send : bool;  (** WSE2 switch workaround: every send also loops back *)
  dsd_overhead_cycles : int;  (** fixed cost to issue one DSD builtin *)
  dsd_elems_per_cycle : float;  (** f32 throughput of DSD builtins *)
  send_cycles_per_elem : float;  (** fabric injection cost per 32-bit wavelet *)
  drain_cycles_per_elem : float;
      (** cost of moving/reducing one incoming wavelet from the input
          queue to memory (the communication library's @fmacs off the
          fabric, §5.7) *)
  hop_cycles : int;  (** per-hop router latency *)
  task_activate_cycles : int;  (** hardware task scheduling overhead *)
  call_cycles : int;  (** function call overhead *)
  flops_per_pe_per_cycle : float;  (** peak: one f32 FMA per cycle *)
  sim_max_rounds : int;
      (** simulator divergence guard: max whole-grid scan rounds before
          the run is declared non-converging *)
}

let wse2 : t =
  {
    gen = WSE2;
    name = "WSE2";
    clock_hz = 1.1e9;
    max_width = 750;
    max_height = 994;
    pe_memory_bytes = 48 * 1024;
    self_send = true;
    dsd_overhead_cycles = 6;
    dsd_elems_per_cycle = 0.5;
    send_cycles_per_elem = 2.0;
    drain_cycles_per_elem = 2.0;
    hop_cycles = 1;
    task_activate_cycles = 60;
    call_cycles = 10;
    flops_per_pe_per_cycle = 2.0;
    sim_max_rounds = 1_000_000;
  }

let wse3 : t =
  {
    wse2 with
    gen = WSE3;
    name = "WSE3";
    max_width = 762;
    max_height = 1176;
    self_send = false;
    task_activate_cycles = 50;
  }

let of_generation = function WSE2 -> wse2 | WSE3 -> wse3

(** Total PEs of the full wafer. *)
let total_pes (m : t) = m.max_width * m.max_height

(** Peak f32 compute of the wafer in FLOP/s. *)
let peak_flops (m : t) = float_of_int (total_pes m) *. m.flops_per_pe_per_cycle *. m.clock_hz

(** Peak local memory bandwidth per PE: 128-bit read + 64-bit write per
    cycle (paper §2). *)
let mem_bandwidth_per_pe (m : t) = 24.0 *. m.clock_hz

(** Aggregate link bandwidth: 32-bit in each of 4 directions per cycle
    per PE (the headline "214 Pb/s" class figure). *)
let fabric_bandwidth_per_pe (m : t) = 16.0 *. m.clock_hz

(** Usable fabric bandwidth for a PE's own data: the ramp moves one
    32-bit wavelet per cycle between core and router, which is what
    bounds a stencil's injection and drain rates. *)
let ramp_bandwidth_per_pe (m : t) = 4.0 *. m.clock_hz
