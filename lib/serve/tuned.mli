(** The tuned-config cache: autotuned pipeline options, content-addressed
    by program.

    Keys are the MD5 digest of the program's canonical print→parse→print
    text *alone* (no options suffix) — the same canonical text that
    prefixes the compile-cache key, so "the same program" means exactly
    what it means for compile-cache hits.  The value is the full
    {!Wsc_core.Pipeline.options} record the tuner validated for that
    program.  {!Engine} consults an attached store after parsing and,
    on a hit, compiles the request under the tuned options instead of
    the request's (counted as [tuned_hits] / [tuned_misses]).

    The store is thread-safe: lookups and insertions may race from the
    serve pool's worker domains.

    This module also owns the JSON rendering of pipeline options
    ([config_of_options] / [options_of_config]), shared with the wire
    protocol, so a persisted store round-trips through the same
    serializer that validates request configs. *)

module J = Wsc_trace.Json

type t

(** {1 Options <-> JSON} *)

(** Parse a config object's key/value pairs over [defaults].  Unknown
    keys and ill-typed values are fatal: accepting one silently would
    hand two behaviorally different configs one cache key. *)
val options_of_config :
  Wsc_core.Pipeline.options ->
  (string * J.t) list ->
  (Wsc_core.Pipeline.options, string) result

(** Total rendering of an options record as a JSON object; the inverse
    of {!options_of_config} over defaults. *)
val config_of_options : Wsc_core.Pipeline.options -> J.t

(** {1 The store} *)

val create : unit -> t

(** Key for a canonical module text: [Fingerprint.digest_hex] of the
    text alone. *)
val key_of_canonical : string -> string

(** Insert (or replace) the tuned options for a program key. *)
val add : t -> key:string -> Wsc_core.Pipeline.options -> unit

(** Look up a program key, bumping the hit or miss counter. *)
val find : t -> string -> Wsc_core.Pipeline.options option

(** Like {!find} but without touching the counters (for keying previews
    that are not compile requests). *)
val peek : t -> string -> Wsc_core.Pipeline.options option

val size : t -> int

(** [(tuned_hits, tuned_misses)] since creation. *)
val counters : t -> int * int

(** {1 Persistence} *)

(** Deterministic rendering on the shared summary envelope
    (tool ["tuned-configs"], one result row per entry, sorted by key). *)
val to_json : t -> J.t

(** Write the store as JSON to [path]. *)
val save_file : t -> string -> unit

(** Load a store previously written by {!save_file}. *)
val load_file : string -> (t, string) result
