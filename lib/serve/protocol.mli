(** The compile service's wire format: JSON-lines, one request and one
    response per line.

    Requests:
    {v
    {"id": 1, "op": "compile", "source": "<stencil-dialect IR>",
     "config": {"inline_stencils": false, ...}, "timeout_s": 5.0}
    {"id": 2, "op": "stats"}
    {"id": 3, "op": "shutdown"}
    v}
    [config] keys mirror [Wsc_core.Pipeline.options] fields (all
    optional, defaults from the server); unknown keys are a protocol
    error — a silently ignored knob would poison the cache key.

    Responses reuse the shared {!Wsc_trace.Json.summary} envelope
    ([tool = "serve"], [schema_version] from {!Wsc_trace.Json}); [config]
    echoes the request id and op, [results] carries exactly one object
    whose [status] is ["ok"] or ["error"].  Responses are not ordered:
    concurrent workers finish in any order, so clients match on [id]. *)

type compile_request = {
  rq_id : int;
  rq_source : string;
  rq_options : Wsc_core.Pipeline.options;  (** resolved over the defaults *)
  rq_timeout_s : float option;
}

type request =
  | Compile of compile_request
  | Stats of int  (** cache/engine counters; id echoed *)
  | Shutdown of int  (** drain in-flight work, then exit cleanly *)

(** Parse one request line.  The error carries the request id when one
    was readable (so the error response can echo it) and a message. *)
val request_of_string :
  defaults:Wsc_core.Pipeline.options ->
  string ->
  (request, int option * string) Stdlib.result

(** Render a request back to one wire line (no trailing newline).
    [request_of_string] of the result is the identity on the id, op,
    source and resolved options. *)
val request_to_string : request -> string

(** A compile request line with default config — what
    [wsc batch --dump-requests] writes. *)
val compile_line : id:int -> source:string -> string

(** {1 Responses} *)

(** The response for a finished compile request (ok or error). *)
val compile_response : id:int -> Engine.result -> Wsc_trace.Json.t

(** A protocol-level failure (unparsable line, bad config, unknown op). *)
val protocol_error_response : id:int option -> string -> Wsc_trace.Json.t

(** The ["cache"] object of the stats response and the batch report:
    the compile cache's counters and the tuned-config store's hits and
    misses. *)
val cache_json :
  Cache.stats -> tuned_hits:int -> tuned_misses:int -> Wsc_trace.Json.t

(** [retries] / [worker_restarts] are the pool's resilience counters
    (jobs requeued after a worker death, and worker recoveries). *)
val stats_response :
  id:int ->
  engine:Engine.t ->
  ?retries:int ->
  ?worker_restarts:int ->
  uptime_s:float ->
  unit ->
  Wsc_trace.Json.t

val shutdown_response : id:int -> Wsc_trace.Json.t

(** {1 Response inspection (clients, tests, bench)} *)

val response_id : Wsc_trace.Json.t -> int option

val response_status : Wsc_trace.Json.t -> string option

(** ["hit"] / ["miss"] of a compile response. *)
val response_cache : Wsc_trace.Json.t -> string option

(** The rendered cacheable payload of an ok compile response — the
    [files] and [compile] members, exactly the parts a cache hit must
    reproduce byte-identically.  [None] on errors. *)
val response_payload : Wsc_trace.Json.t -> string option
