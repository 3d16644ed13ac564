(** The long-running compilation server behind [wsc serve].

    Reads JSON-lines requests from stdin (default) or a Unix-domain
    socket, fans compile work out across the persistent {!Pool} of
    worker domains, and writes one JSON-lines response per request —
    out of order; clients match on the echoed [id].  All writing happens
    on the main thread, so response lines never interleave.

    Shutdown is graceful on every path — SIGINT/SIGTERM, a [shutdown]
    request, or EOF on stdin: the server stops reading, drains every
    accepted request, flushes all responses, prints the cache/request
    counters to stderr and returns normally (exit 0).  No partial JSON
    is ever left on stdout. *)

type transport =
  | Stdio  (** requests on stdin, responses on stdout; EOF = shutdown *)
  | Unix_socket of string  (** path; concurrent clients are multiplexed *)

type config = {
  domains : int;  (** worker domains (clamped to ≥ 1) *)
  capacity : int;  (** compile-cache capacity, entries *)
  timeout_s : float;  (** default per-request compile deadline *)
  options : Wsc_core.Pipeline.options;  (** default pipeline config *)
  transport : transport;
  trace_path : string option;
      (** write a Chrome trace of every request's phase spans here at
          shutdown (one track per worker domain under [Trace.serve_pid]) *)
  tuned : Tuned.t option;
      (** tuned-config store the engine consults per program; hit/miss
          counters surface in [stats] responses and the shutdown line *)
}

val default_config : config

(** {1 Cooperative stop flag}

    Shared by [wsc serve] and [wsc batch]: the signal handlers only set
    an atomic flag; the main loops poll it and run their drain path. *)

(** Install SIGINT/SIGTERM handlers that set the stop flag. *)
val install_signal_handlers : unit -> unit

val stop_requested : unit -> bool

(** Reset the flag (tests that reuse the process). *)
val reset_stop : unit -> unit

(** Run the server until shutdown; returns the number of requests
    served.  Prints final counters to stderr. *)
val run : config -> int
