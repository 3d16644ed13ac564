(** What the two fault campaigns share: PE faults on the fabric
    ({!Campaign}) and wafer faults in co-simulation
    ([Wsc_multiwafer.Mwcampaign]).  Each campaign runs its own cells;
    this module fixes the cell order, error capture, the survival
    summary and the [--json] config shape. *)

(** What a campaign report carries besides its cells. *)
type header = {
  bench : string;
  machine : string;
  size : string;
  iterations : int;
  resilient : bool;
  baseline_cycles : float;  (** the fault-free run's cycles *)
}

(** The header of a campaign over program [p] (read for its iteration
    count); the last argument is the fault-free run's cycles. *)
val header :
  bench:string -> machine:Wsc_wse.Machine.t ->
  size:Wsc_benchmarks.Benchmarks.size -> Wsc_frontends.Stencil_program.t ->
  resilient:bool -> float -> header

(** [cells kinds rates seeds run] runs one cell per coordinate in sweep
    order: kind, then rate, then seed. *)
val cells :
  'k list -> float list -> int list -> ('k -> float -> int -> 'c) -> 'c list

(** Run one cell; a simulator or host error ends the cell with its
    message instead of ending the sweep. *)
val attempt : (unit -> 'a) -> ('a, string) result

(** The ["survival: a/b cells (p%)"] report line. *)
val survival_line : bool list -> string

(** A cell's divergence, ["-"] when it did not complete. *)
val div_to_string : float -> string

(** The [--json] document (see {!Wsc_trace.Json.summary}): the header
    and the fraction of cells that survived (1 for none) under
    ["config"], [placement] after the iteration count, [recovery] after
    the resilience flag. *)
val to_json :
  tool:string -> header -> placement:(string * Wsc_trace.Json.t) list ->
  recovery:(string * Wsc_trace.Json.t) list -> survived:bool list ->
  Wsc_trace.Json.t list -> Wsc_trace.Json.t
