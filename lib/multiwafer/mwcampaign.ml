(** Wafer-level fault campaign runner — see the interface.

    Cost model: one single-wafer reference and one fault-free
    co-simulation per campaign, then one co-simulation per
    (kind, rate, seed) cell.  Every cell shares one compile engine, so
    a whole sweep compiles each slice shape exactly once. *)

module Wf = Wsc_faults.Faults.Wafer
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
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
  bench : string;
  machine : string;
  size : string;
  iterations : int;
  wafers : int * int;
  resilient : bool;
  cadence : int;
  max_retries : int;
  baseline_cycles : float;
  cells : cell list;
}

let survival_rate (r : report) : float =
  match r.cells with
  | [] -> 1.0
  | cs ->
      float_of_int (List.length (List.filter (fun c -> c.survived) cs))
      /. float_of_int (List.length cs)

let max_abs_diff (a : I.grid list) (b : I.grid list) : float =
  List.fold_left2
    (fun acc (x : I.grid) (y : I.grid) ->
      if Array.length x.I.gdata <> Array.length y.I.gdata then infinity
      else begin
        let d = ref acc in
        Array.iteri
          (fun i v -> d := Float.max !d (Float.abs (v -. y.I.gdata.(i))))
          x.I.gdata;
        !d
      end)
    0.0 a b

let run ?engine ?(machine = Machine.wse3) ?iterations
    ?(kinds = Wf.all_kinds) ?(resilience = Wf.default_resilience)
    ~(bench : string) ~(size : B.size) ~(wafers : int * int)
    ~(resilient : bool) ~(rates : float list) ~(seeds : int list) () : report
    =
  let d = B.find bench in
  let p =
    match iterations with Some n -> d.B.make_n size n | None -> d.B.make size
  in
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
      match Cosim.run ~engine ~machine ~faults ~wafers p with
      | r -> Ok r
      | exception Cosim.Cosim_error msg -> Error msg
      | exception Fabric.Sim_error msg -> Error msg
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
          divergence = max_abs_diff r.Cosim.grids reference;
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
  let cells =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun rate -> List.map (fun seed -> run_cell kind rate seed) seeds)
          rates)
      kinds
  in
  let wx, wy = wafers in
  {
    bench;
    machine = machine.Machine.name;
    size = B.size_to_string size;
    iterations = p.P.iterations;
    wafers = (wx, wy);
    resilient;
    cadence = resilience.Wf.checkpoint_cadence;
    max_retries = resilience.Wf.max_retries;
    baseline_cycles = baseline.Cosim.device_cycles;
    cells;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** Fixed formats throughout so a replayed campaign renders the same
    bytes. *)
let div_to_string (d : float) : string =
  if Float.is_nan d then "-" else Printf.sprintf "%.3e" d

let to_string (r : report) : string =
  let buf = Buffer.create 1024 in
  let wx, wy = r.wafers in
  Buffer.add_string buf
    (Printf.sprintf
       "wafer fault campaign: %s on %dx%d %s (%s, %d epochs, %s driver, \
        resilience %s)\n"
       r.bench wx wy r.machine r.size r.iterations Fabric.driver
       (if r.resilient then
          Printf.sprintf "on: cadence %d, max retries %d" r.cadence
            r.max_retries
        else "off"));
  Buffer.add_string buf
    (Printf.sprintf "fault-free co-simulation: %.0f device cycles\n"
       r.baseline_cycles);
  Buffer.add_string buf
    (Printf.sprintf "survival: %d/%d cells (%.0f%%)\n"
       (List.length (List.filter (fun c -> c.survived) r.cells))
       (List.length r.cells)
       (100.0 *. survival_rate r));
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
           (div_to_string c.divergence)
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

(** Shared [--json] envelope (see {!Wsc_trace.Json.summary}). *)
let to_json (r : report) : Json.t =
  let wx, wy = r.wafers in
  Json.summary ~tool:"mwfaults"
    ~config:
      [
        ("bench", Json.String r.bench);
        ("machine", Json.String r.machine);
        ("size", Json.String r.size);
        ("iterations", Json.Int r.iterations);
        ("wafers", Json.String (Printf.sprintf "%dx%d" wx wy));
        ("driver", Json.String Fabric.driver);
        ("resilient", Json.Bool r.resilient);
        ("checkpoint_cadence", Json.Int r.cadence);
        ("max_retries", Json.Int r.max_retries);
        ("baseline_cycles", Json.Float r.baseline_cycles);
        ("survival_rate", Json.Float (survival_rate r));
      ]
    ~results:(List.map cell_to_json r.cells)
