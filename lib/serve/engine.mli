(** The compile engine: one stencil-dialect source in, cached-or-fresh
    CSL out.  Shared by [wsc serve], [wsc batch] and the bench harness.

    Keying: the source is parsed, reprinted into canonical form (the
    print→parse→print fixpoint makes that form unique per module), and
    digested together with the pipeline configuration
    ([Wsc_core.Pipeline.options_to_string]) — so a repeat submission
    with different whitespace, comments or value names is still a cache
    hit, and the same module under a different configuration is not.

    A hit returns the *exact* record the cold compile produced — same
    CSL bytes, same pass remarks, same op counts, same cold wall time —
    so cached responses are byte-identical to cold ones by construction.
    Failures are never cached: every error response is recomputed.

    Concurrent misses on one key are single-flight ({!Cache.acquire}):
    one worker compiles, the others block and are served its record —
    reported to them as a plain cache hit, counted separately in
    [Cache.stats.dedup_hits].

    Timeouts are cooperative: the deadline is checked after parsing and
    at every pass boundary (via [Pass.options.on_ir]), bounding a
    pathological request to roughly one pass beyond its budget rather
    than wedging a worker forever. *)

type error_kind =
  | Bad_request  (** malformed protocol input (empty source, bad config) *)
  | Parse_failure
  | Pass_failure  (** a pass raised *)
  | Verify_failure  (** the post-pass verifier rejected the module *)
  | Timeout
  | Internal

val error_kind_to_string : error_kind -> string

type error = { e_kind : error_kind; e_message : string }

(** The cacheable result of one cold compile. *)
type compiled = {
  key : string;  (** content-addressed cache key (hex digest) *)
  canonical_bytes : int;  (** length of the canonical module text *)
  files : (string * string) list;  (** CSL output: filename, contents *)
  lowered : Wsc_ir.Ir.op;
      (** the fully lowered module (layout + program csl modules) — kept
          so simulation clients (the multiwafer co-simulator) can run a
          cached compile without reparsing; treat as read-only, it is
          shared across every hit for the key *)
  remarks : Wsc_ir.Pass.remark list;  (** per-pass wall time and op deltas *)
  ops_in : int;  (** module ops entering the pipeline *)
  ops_out : int;  (** ops in the fully lowered module *)
  cold_wall_s : float;  (** parse→emit wall time of the cold compile *)
}

(** Absolute [Unix.gettimeofday] stamps of one request's phases; the
    derived accessors give the span lengths the protocol reports. *)
type timing = {
  t_submit : float;  (** enqueued (equals [t_start] when never queued) *)
  t_start : float;  (** a worker picked it up *)
  t_parsed : float;
  t_compiled : float;  (** pipeline done, or cache lookup resolved *)
  t_done : float;  (** CSL printed / response payload ready *)
}

val queue_s : timing -> float
val parse_s : timing -> float
val compile_s : timing -> float
val emit_s : timing -> float
val total_s : timing -> float

type result = {
  outcome : (compiled, error) Stdlib.result;
  cache : [ `Hit | `Miss ] option;
      (** [None] when the request failed before it could be keyed *)
  tuned : bool;
      (** the request hit the attached tuned-config store and was
          compiled under its tuned options *)
  timing : timing;
}

type t

val default_capacity : int
val default_timeout_s : float

(** [tuned] attaches a tuned-config store: requests whose program-only
    canonical digest has an entry compile under the stored options
    instead of their own (opt-in — engines without a store behave exactly
    as before).  The
    request's [program_name] is preserved across the override. *)
val create :
  ?capacity:int ->
  ?timeout_s:float ->
  ?options:Wsc_core.Pipeline.options ->
  ?tuned:Tuned.t ->
  unit ->
  t

(** Compile one source: parse it, then {!compile_module}.  [options]
    overrides the engine default for this request (a different
    configuration is a different cache key); [timeout_s] likewise;
    [submitted_at] is the enqueue stamp for queue accounting.
    Thread-safe: called concurrently from worker domains. *)
val compile_source :
  t ->
  ?options:Wsc_core.Pipeline.options ->
  ?timeout_s:float ->
  ?submitted_at:float ->
  string ->
  result

(** Compile a module without going through text: the key is the one its
    printed source would get from {!compile_source} (the MD5 of the
    canonical print), and so are the cached record and its CSL.  A miss
    runs the pipeline on the module itself, which may rewrite it in
    place: hand over a module nothing else uses. *)
val compile_module :
  t ->
  ?options:Wsc_core.Pipeline.options ->
  ?timeout_s:float ->
  ?submitted_at:float ->
  Wsc_ir.Ir.op ->
  result

(** The cache key this engine would use for a source (parse + canonical
    reprint + tuned-store consultation + digest), without compiling and
    without bumping the tuned counters. *)
val key_of_source :
  t -> ?options:Wsc_core.Pipeline.options -> string -> (string, error) Stdlib.result

val cache_stats : t -> Cache.stats

(** Lifetime request counters: total, ok, errored. *)
val counters : t -> int * int * int

(** [(tuned_hits, tuned_misses)] of the attached tuned-config store;
    [(0, 0)] when none is attached. *)
val tuned_counters : t -> int * int

(** Emit the request's phase spans (queue wait, parse, per-pass compile,
    emit) onto [sink] under [Trace.serve_pid], track [tid], timestamps
    in wall-clock microseconds relative to [epoch].  Null sinks cost
    nothing. *)
val emit_spans :
  Wsc_trace.Trace.sink -> tid:int -> epoch:float -> id:int -> result -> unit
