(** Fault-injection campaign runner: see the interface for the model.

    Each cell compiles nothing new — the benchmark is compiled once, the
    reference is interpreted once, the fault-free baseline is simulated
    once per campaign — so the sweep cost is one fabric simulation per
    (kind, rate, seed) cell. *)

module Faults = Wsc_faults.Faults
module B = Wsc_benchmarks.Benchmarks
module P = Wsc_frontends.Stencil_program
module I = Wsc_dialects.Interp
module Fabric = Wsc_wse.Fabric
module Host = Wsc_wse.Host
module Machine = Wsc_wse.Machine
module Json = Wsc_trace.Json

type cell = {
  kind : Faults.kind;
  rate : float;
  seed : int;
  completed : bool;
  survived : bool;
  divergence : float;
  valid_pes : int;
  total_pes : int;
  elapsed_cycles : float;
  overhead_cycles : float;
  recovery_cycles : float;
  injected : int;
  retries : int;
  giveups : int;
  halt_timeouts : int;
  error : string option;
}

type report = { header : Sweep.header; cells : cell list }

let survived (r : report) = List.map (fun c -> c.survived) r.cells

(** Max |difference| vs the reference over the PEs the validity mask
    accepts; halted or tainted PEs hold substituted data by design and
    are excluded (the host reports them as affected regions instead). *)
let divergence_over_valid (valid : bool array array) (refs : I.grid list)
    (outs : I.grid list) : float =
  let width = Array.length valid in
  let height = if width = 0 then 0 else Array.length valid.(0) in
  let d = ref 0.0 in
  List.iter2
    (fun rg og ->
      for x = 0 to width - 1 do
        for y = 0 to height - 1 do
          if valid.(x).(y) then
            match (I.grid_get rg [ x; y ], I.grid_get og [ x; y ]) with
            | I.Rtensor a, I.Rtensor b when Array.length a = Array.length b ->
                Array.iteri
                  (fun i v -> d := Float.max !d (Float.abs (v -. b.(i))))
                  a
            | _ -> d := infinity
        done
      done)
    refs outs;
  !d

let run ?(machine = Machine.wse3) ?iterations
    ?(kinds = Faults.all_kinds) ?trace ~(bench : string)
    ~(size : B.size) ~(resilient : bool) ~(rates : float list)
    ~(seeds : int list) () : report =
  let p = B.program ?iterations bench size in
  let compiled =
    Wsc_core.Pipeline.compile ~options:Wsc_core.Pipeline.default_options
      (P.compile p)
  in
  let refs = List.map I.retensorize_grid (P.run_reference p) in
  (* fault-free baseline: recovery overhead is measured against it *)
  let baseline =
    let h = Host.simulate machine compiled (P.init_grids p) in
    Fabric.elapsed_cycles h.Host.sim
  in
  let run_cell kind rate seed : cell =
    let cfg = Faults.config_for kind ~rate ~seed ~resilient in
    let faults = Faults.create cfg in
    let outcome =
      Sweep.attempt (fun () ->
          Host.simulate ?trace ~faults machine compiled (P.init_grids p))
    in
    let st = Faults.stats faults in
    let injected =
      st.Faults.drops + st.Faults.corrupts + st.Faults.stalls + st.Faults.halts
      + st.Faults.backpressures
    in
    let base =
      {
        kind;
        rate;
        seed;
        completed = false;
        survived = false;
        divergence = Float.nan;
        valid_pes = 0;
        total_pes = 0;
        elapsed_cycles = Float.nan;
        overhead_cycles = Float.nan;
        recovery_cycles = st.Faults.recovery_cycles;
        injected;
        retries = st.Faults.retries;
        giveups = st.Faults.giveups;
        halt_timeouts = st.Faults.halt_timeouts;
        error = None;
      }
    in
    match outcome with
    | Error msg -> { base with error = Some msg }
    | Ok h ->
        let sim = h.Host.sim in
        let valid = Fabric.validity sim in
        let valid_pes =
          Array.fold_left
            (fun acc col ->
              Array.fold_left (fun a ok -> if ok then a + 1 else a) acc col)
            0 valid
        in
        let total_pes = sim.Fabric.width * sim.Fabric.height in
        let div = divergence_over_valid valid refs (Host.read_all h) in
        let elapsed = Fabric.elapsed_cycles sim in
        {
          base with
          completed = true;
          survived = P.within_tolerance div;
          divergence = div;
          valid_pes;
          total_pes;
          elapsed_cycles = elapsed;
          overhead_cycles = elapsed -. baseline;
        }
  in
  {
    header = Sweep.header ~bench ~machine ~size p ~resilient baseline;
    cells = Sweep.cells kinds rates seeds run_cell;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let to_string (r : report) : string =
  let buf = Buffer.create 1024 in
  let h = r.header in
  Buffer.add_string buf
    (Printf.sprintf
       "fault campaign: %s on %s (%s, %d iterations, %s driver, resilience \
        %s)\n"
       h.bench h.machine h.size h.iterations Fabric.driver
       (if h.resilient then "on" else "off"));
  Buffer.add_string buf
    (Printf.sprintf "fault-free baseline: %.0f cycles\n" h.baseline_cycles);
  Buffer.add_string buf (Sweep.survival_line (survived r));
  Buffer.add_string buf
    "kind          rate    seed  ok  injected  retries  giveups  degraded  \
     valid      overhead   recovery  divergence\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-12s  %-6g  %-4d  %-2s  %8d  %7d  %7d  %8d  %4d/%-4d %9.0f  %9.0f  %s%s\n"
           (Faults.kind_to_string c.kind)
           c.rate c.seed
           (if c.survived then "y" else "n")
           c.injected c.retries c.giveups c.halt_timeouts c.valid_pes
           c.total_pes
           (if Float.is_nan c.overhead_cycles then 0.0 else c.overhead_cycles)
           c.recovery_cycles (Sweep.div_to_string c.divergence)
           (match c.error with None -> "" | Some e -> "  ! " ^ e)))
    r.cells;
  Buffer.contents buf

let cell_to_json (c : cell) : Json.t =
  Json.Obj
    [
      ("kind", Json.String (Faults.kind_to_string c.kind));
      ("rate", Json.Float c.rate);
      ("seed", Json.Int c.seed);
      ("completed", Json.Bool c.completed);
      ("survived", Json.Bool c.survived);
      ("divergence", Json.float_or_null c.divergence);
      ("valid_pes", Json.Int c.valid_pes);
      ("total_pes", Json.Int c.total_pes);
      ("elapsed_cycles", Json.float_or_null c.elapsed_cycles);
      ("overhead_cycles", Json.float_or_null c.overhead_cycles);
      ("recovery_cycles", Json.Float c.recovery_cycles);
      ("injected", Json.Int c.injected);
      ("retries", Json.Int c.retries);
      ("giveups", Json.Int c.giveups);
      ("halt_timeouts", Json.Int c.halt_timeouts);
      ( "error",
        match c.error with None -> Json.Null | Some e -> Json.String e );
    ]

let to_json (r : report) : Json.t =
  Sweep.to_json ~tool:"faults" r.header ~placement:[] ~recovery:[]
    ~survived:(survived r)
    (List.map cell_to_json r.cells)
