(** Chrome Trace Event exporter: renders a collected {!Trace.sink} as
    the JSON object format Perfetto and chrome://tracing accept, with
    PEs as named tracks and link transfers as async flow pairs.
    Fabric-track timestamps are simulated cycles written into [ts]
    verbatim (one viewer-µs = one cycle). *)

val to_string : Trace.sink -> string
val write_file : path:string -> Trace.sink -> unit
