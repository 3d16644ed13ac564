(** Wafer-level fault campaign runner — see the interface.

    Cost model: one single-wafer reference and one fault-free
    co-simulation per campaign, then one co-simulation per
    (kind, rate, seed) cell.  Every cell shares one compile engine, so
    a whole sweep compiles each slice shape exactly once. *)

module Wf = Wsc_faults.Faults.Wafer
module Sweep = Wsc_faults_campaign.Sweep
module B = Wsc_benchmarks.Benchmarks
module I = Wsc_dialects.Interp
module Fabric = Wsc_wse.Fabric
module Machine = Wsc_wse.Machine
module Engine = Wsc_serve.Engine
module Json = Wsc_trace.Json

type cell = {
  kind : Wf.kind;
  rate : float;
  seed : int;
  completed : bool;
  survived : bool;
  bit_identical : bool;
  degraded : bool;
  divergence : float;
  injected : int;
  detections : int;
  rollbacks : int;
  replayed_epochs : int;
  respawns : int;
  checkpoints : int;
  checkpoint_bytes : int;
  lost_wafers : int;
  tainted_wafers : int;
  device_cycles : float;
  overhead_cycles : float;
  error : string option;
}

type report = {
  header : Sweep.header;
  wafers : int * int;
  resilience : Wf.resilience;
  cells : cell list;
}

let survived (r : report) = List.map (fun c -> c.survived) r.cells

let unrecovered (r : report) (c : cell) : bool =
  r.header.Sweep.resilient
  && ((c.completed && (not c.degraded) && not c.bit_identical)
     || c.error <> None)

let run ?engine ?(machine = Machine.wse3) ?iterations
    ?(kinds = Wf.all_kinds) ?(resilience = Wf.default_resilience)
    ~(bench : string) ~(size : B.size) ~(wafers : int * int)
    ~(resilient : bool) ~(rates : float list) ~(seeds : int list) () : report
    =
  let p = B.program ?iterations bench size in
  let engine = match engine with Some e -> e | None -> Engine.create () in
  (* the bit-identity yardstick: the undecomposed single-wafer run *)
  let reference = Cosim.reference ~machine p in
  (* fault-free co-simulation under the same plan: recovery overhead is
     measured in device cycles against it *)
  let baseline = Cosim.run ~engine ~machine ~wafers p in
  let run_cell kind rate seed : cell =
    let cfg = Wf.config_for kind ~rate ~seed ~resilient in
    let cfg = { cfg with Wf.resilience = Option.map (fun _ -> resilience) cfg.Wf.resilience } in
    let faults = Wf.create cfg in
    let outcome =
      try Sweep.attempt (fun () -> Cosim.run ~engine ~machine ~faults ~wafers p)
      with Cosim.Cosim_error msg -> Error msg
    in
    let st = Wf.stats faults in
    let injected =
      st.Wf.halo_drops + st.Wf.halo_corrupts + st.Wf.crashes + st.Wf.losses
      + st.Wf.spikes
    in
    let base =
      {
        kind;
        rate;
        seed;
        completed = false;
        survived = false;
        bit_identical = false;
        degraded = false;
        divergence = Float.nan;
        injected;
        detections = st.Wf.detected;
        rollbacks = 0;
        replayed_epochs = 0;
        respawns = 0;
        checkpoints = 0;
        checkpoint_bytes = 0;
        lost_wafers = 0;
        tainted_wafers = 0;
        device_cycles = Float.nan;
        overhead_cycles = Float.nan;
        error = None;
      }
    in
    match outcome with
    | Error msg -> { base with error = Some msg }
    | Ok r ->
        let rec_ =
          match r.Cosim.recovery with
          | Some rc -> rc
          | None -> assert false (* the injector was enabled *)
        in
        let identical = Cosim.grids_bit_identical r.Cosim.grids reference in
        {
          base with
          completed = true;
          survived = identical && not rec_.Cosim.degraded;
          bit_identical = identical;
          degraded = rec_.Cosim.degraded;
          divergence = I.max_abs_diff_list r.Cosim.grids reference;
          detections = rec_.Cosim.detections;
          rollbacks = rec_.Cosim.rollbacks;
          replayed_epochs = rec_.Cosim.replayed_epochs;
          respawns = rec_.Cosim.respawns;
          checkpoints = rec_.Cosim.checkpoints;
          checkpoint_bytes = rec_.Cosim.checkpoint_bytes;
          lost_wafers = List.length rec_.Cosim.lost;
          tainted_wafers = List.length rec_.Cosim.tainted;
          device_cycles = r.Cosim.device_cycles;
          overhead_cycles = r.Cosim.device_cycles -. baseline.Cosim.device_cycles;
        }
  in
  {
    header =
      Sweep.header ~bench ~machine ~size p ~resilient
        baseline.Cosim.device_cycles;
    wafers;
    resilience;
    cells = Sweep.cells kinds rates seeds run_cell;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let to_string (r : report) : string =
  let buf = Buffer.create 1024 in
  let h = r.header and wx, wy = r.wafers in
  Buffer.add_string buf
    (Printf.sprintf
       "wafer fault campaign: %s on %dx%d %s (%s, %d epochs, %s driver, \
        resilience %s)\n"
       h.bench wx wy h.machine h.size h.iterations Fabric.driver
       (if h.resilient then
          Printf.sprintf "on: cadence %d, max retries %d"
            r.resilience.checkpoint_cadence r.resilience.max_retries
        else "off"));
  Buffer.add_string buf
    (Printf.sprintf "fault-free co-simulation: %.0f device cycles\n"
       h.baseline_cycles);
  Buffer.add_string buf (Sweep.survival_line (survived r));
  Buffer.add_string buf
    "kind          rate    seed  ok  bits  inj  det  rbk  replay  spawn  \
     ckpt  lost  taint   overhead  divergence\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-12s  %-6g  %-4d  %-2s  %-4s  %3d  %3d  %3d  %6d  %5d  %4d  \
            %4d  %5d  %9.0f  %s%s\n"
           (Wf.kind_to_string c.kind)
           c.rate c.seed
           (if c.survived then "y" else "n")
           (if c.bit_identical then "y" else "n")
           c.injected c.detections c.rollbacks c.replayed_epochs c.respawns
           c.checkpoints c.lost_wafers c.tainted_wafers
           (if Float.is_nan c.overhead_cycles then 0.0 else c.overhead_cycles)
           (Sweep.div_to_string c.divergence)
           (match c.error with None -> "" | Some e -> "  ! " ^ e)))
    r.cells;
  Buffer.contents buf

let cell_to_json (c : cell) : Json.t =
  Json.Obj
    [
      ("kind", Json.String (Wf.kind_to_string c.kind));
      ("rate", Json.Float c.rate);
      ("seed", Json.Int c.seed);
      ("completed", Json.Bool c.completed);
      ("survived", Json.Bool c.survived);
      ("bit_identical", Json.Bool c.bit_identical);
      ("degraded", Json.Bool c.degraded);
      ("divergence", Json.float_or_null c.divergence);
      ("injected", Json.Int c.injected);
      ("detections", Json.Int c.detections);
      ("rollbacks", Json.Int c.rollbacks);
      ("replayed_epochs", Json.Int c.replayed_epochs);
      ("respawns", Json.Int c.respawns);
      ("checkpoints", Json.Int c.checkpoints);
      ("checkpoint_bytes", Json.Int c.checkpoint_bytes);
      ("lost_wafers", Json.Int c.lost_wafers);
      ("tainted_wafers", Json.Int c.tainted_wafers);
      ("device_cycles", Json.float_or_null c.device_cycles);
      ("overhead_cycles", Json.float_or_null c.overhead_cycles);
      ( "error",
        match c.error with None -> Json.Null | Some e -> Json.String e );
    ]

let to_json (r : report) : Json.t =
  let wx, wy = r.wafers in
  Sweep.to_json ~tool:"mwfaults" r.header
    ~placement:[ ("wafers", Json.String (Printf.sprintf "%dx%d" wx wy)) ]
    ~recovery:
      [
        ("checkpoint_cadence", Json.Int r.resilience.checkpoint_cadence);
        ("max_retries", Json.Int r.resilience.max_retries);
      ]
    ~survived:(survived r)
    (List.map cell_to_json r.cells)
