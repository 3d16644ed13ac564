(** Shared fault-campaign sweep: see the interface. *)

module Fabric = Wsc_wse.Fabric
module Json = Wsc_trace.Json

type header = {
  bench : string;
  machine : string;
  size : string;
  iterations : int;
  resilient : bool;
  baseline_cycles : float;
}

let header ~bench ~(machine : Wsc_wse.Machine.t) ~size
    (p : Wsc_frontends.Stencil_program.t) ~resilient baseline_cycles =
  {
    bench;
    machine = machine.name;
    size = Wsc_benchmarks.Benchmarks.size_to_string size;
    iterations = p.iterations;
    resilient;
    baseline_cycles;
  }

let cells kinds rates seeds run =
  List.concat_map
    (fun kind ->
      List.concat_map (fun rate -> List.map (run kind rate) seeds) rates)
    kinds

let attempt f =
  match f () with
  | r -> Ok r
  | exception (Fabric.Sim_error msg | Wsc_wse.Host.Host_error msg) -> Error msg

let survivors survived = List.length (List.filter Fun.id survived)

let survival_rate = function
  | [] -> 1.0
  | survived ->
      float_of_int (survivors survived) /. float_of_int (List.length survived)

(* fixed formats throughout so a replayed campaign renders the same
   bytes *)
let survival_line survived =
  Printf.sprintf "survival: %d/%d cells (%.0f%%)\n" (survivors survived)
    (List.length survived)
    (100.0 *. survival_rate survived)

let div_to_string d = if Float.is_nan d then "-" else Printf.sprintf "%.3e" d

let to_json ~tool h ~placement ~recovery ~survived results =
  Json.summary ~tool
    ~config:
      ([
         ("bench", Json.String h.bench);
         ("machine", Json.String h.machine);
         ("size", Json.String h.size);
         ("iterations", Json.Int h.iterations);
       ]
      @ placement
      @ [
          ("driver", Json.String Fabric.driver);
          ("resilient", Json.Bool h.resilient);
        ]
      @ recovery
      @ [
          ("baseline_cycles", Json.Float h.baseline_cycles);
          ("survival_rate", Json.Float (survival_rate survived));
        ])
    ~results
